#!/usr/bin/env python3
"""Wall-clock benchmark of the Riveter reproduction: one command, one workload.

    python3 benchmarks/wall/run.py --workload NAME --seed N [--seconds S]
                                   [--trace [0|1]] [--smoke] [--result PATH]

Prints every metric by name with its unit, checks the program's outputs,
writes the result document (envelope + host fingerprint) to ``--result`` and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics ``BENCHMARK.json`` names - the end-to-end ones without ``--trace``,
the per-layer ones with it.

A run is: imports, the set-up repeated ``SETUP_REPEATS`` times (median
reported), one warm-up round, measured rounds until ``--seconds`` have
passed and the workload's minimum round count is reached, verification.
A traced run alternates traced and untraced rounds (their ratio is the
tracing overhead), then probes every layer the workload did not exercise,
so that it yields every per-layer metric.  End-to-end numbers always come
from the untraced run.

Flush policy: the program's own (today: no fsync anywhere); the benchmark
adds none.  Wall numbers are this sandbox's, not a device's.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before the heavy imports: they are set-up

import argparse  # noqa: E402
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

SCHEMA = "riveter-wall/1"
DEFAULT_SEED = 20240701
RUN_SECONDS = 10.0
SETUP_REPEATS = 3
FLUSH_POLICY = "program's own (no fsync anywhere); the benchmark adds none"


# The program under test is the checkout's own ``src``, never a site install.
if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"error: {SRC / 'repro'} not found; run from a checkout of the repository")
for _entry_path in (str(HERE), str(SRC)):
    if _entry_path not in sys.path:
        sys.path.insert(0, _entry_path)

import numpy  # noqa: E402
from repro.harness.bench import git_rev  # noqa: E402

import metrics as catalogue  # noqa: E402
from spans import Recorder, validate_spans, write_jsonl  # noqa: E402
from workloads import (  # noqa: E402
    PROBES,
    SMOKE,
    WORKLOADS,
    Context,
    end_to_end,
    engine_run_share,
    make_family,
)

#: Interpreter start-up is not in it; everything the benchmark imports is.
IMPORT_SECONDS = time.perf_counter() - _PROCESS_START


def fs_type(path: Path) -> str:
    """File-system type holding *path* (longest mount-point prefix)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3 and target.startswith(fields[1]) and len(fields[1]) >= len(best):
            best, kind = fields[1], fields[2]
    return kind


def host_fingerprint(work: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "work_fs": fs_type(work),
        "flush_policy": FLUSH_POLICY,
    }


def _entry(metric, value) -> dict:
    return {
        "value": value, "unit": metric.unit, "kind": metric.kind,
        "better": metric.better, "bound": metric.bound,
    }


def _shape(cfg: dict, smoke: bool) -> dict:
    """A workload's or probe's parameters, shrunk for ``--smoke``."""
    if not smoke:
        return dict(cfg)
    return cfg | {key: value for key, value in SMOKE.items() if key in cfg}


def _probe_families(native, ctx, smoke: bool) -> tuple[dict, list]:
    """One traced round of each family the workload is not made of."""
    layer, ops = {}, []
    for kind, probe_cfg in PROBES.items():
        if kind == native.kind:
            continue
        family = make_family(_shape(probe_cfg, smoke), ctx, catalog=native.catalog)
        ctx.rec.scope = f"{kind}/probe"
        with ctx.rec.op("setup"):
            family.setup()
        round_ = family.round(0, warmup=True)
        family.verify(round_, [round_])
        layer.update(family.layer_metrics([round_]))
        ops.extend(round_.ops)
    return layer, ops


def _median_span(spans, name: str, scope: str = "") -> float:
    walls = [s.seconds for s in spans if s.name == name and s.scope.startswith(scope)]
    return statistics.median(walls) if walls else 0.0


def _layer_metrics(family, rounds, ctx: Context, smoke: bool) -> tuple[dict, list]:
    """Every per-layer metric of a traced run, and the ops its probes added."""
    import layers  # only a traced run pays for importing every layer

    rec = ctx.rec
    traced = [r.wall for r in rounds if r.spans]
    plain = [r.wall for r in rounds if not r.spans]
    layer = {
        "bench.trace_overhead_ratio": statistics.median(traced) / statistics.median(plain),
        "bench.engine_run_share": engine_run_share(rounds),
        **family.layer_metrics(rounds),
    }
    probed, probe_ops = _probe_families(family, ctx, smoke)
    layer.update(probed)
    rec.scope = "layers/probe"
    layer.update(layers.probe_layers(ctx, family.catalog, SRC))
    dbgen_s = _median_span(rec.spans, "tpch.dbgen", f"{family.kind}/setup")
    rows = sum(family.catalog.get(t).num_rows for t in family.catalog.table_names)
    layer["tpch.dbgen_s"] = dbgen_s
    layer["tpch.dbgen_rows_per_s"] = rows / dbgen_s
    layer["fleet.workload_gen_ms"] = 1e3 * _median_span(rec.spans, "fleet.workload_gen")
    layer["fleet.calibrate_ms"] = 1e3 * _median_span(rec.spans, "fleet.calibrate")
    layer["bench.spans"] = len(rec.spans)
    return layer, probe_ops


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload; returns the result document."""
    cfg = _shape(WORKLOADS[name], smoke)
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Whatever the program mkdtemp()s stays inside the checkout, on real disk.
    previous_tmp, tempfile.tempdir = tempfile.tempdir, str(work)
    ctx = Context(seed, work, Recorder())
    try:
        return _run(name, cfg, ctx, seconds, trace, smoke)
    finally:
        tempfile.tempdir = previous_tmp
        shutil.rmtree(work, ignore_errors=True)


def _run(name: str, cfg: dict, ctx: Context, seconds: float, trace: bool, smoke: bool) -> dict:
    rec, kind = ctx.rec, cfg["family"]

    rec.enabled = trace
    family, setups = None, []
    for index in range(1 if smoke else SETUP_REPEATS):
        family = None  # drop the previous catalog before the next is built
        gc.collect()
        family = make_family(cfg, ctx)
        rec.scope = f"{kind}/setup/{index}"
        with rec.op("setup") as setup:
            family.setup()
        setups.append(setup.seconds)

    rec.enabled = False
    rec.scope = f"{kind}/warmup"
    warmup = family.round(-1, warmup=True)

    rounds = []
    min_rounds = max(cfg["min_rounds"], 2 if trace else 1)
    started = time.perf_counter()
    while len(rounds) < min_rounds or (not smoke and time.perf_counter() - started < seconds):
        gc.collect()
        rec.enabled = trace and len(rounds) % 2 == 0
        rec.scope = f"{kind}/round/{len(rounds)}"
        rounds.append(family.round(len(rounds)))

    rec.enabled = trace
    rec.scope = f"{kind}/verify"
    family.verify(warmup, rounds)
    problems = []
    if any(round_.virtual != rounds[0].virtual for round_ in rounds[1:]):
        problems.append("virtual-clock numbers differ between rounds of one run")
    ops = [op for round_ in rounds for op in round_.ops]

    values = {
        "setup_s": IMPORT_SECONDS + statistics.median(setups),
        **end_to_end(rounds),
        "virtual_s": rounds[-1].virtual["virtual_s"],
        **family.family_metrics(rounds),
    }
    layer: dict[str, float] = {}
    if trace:
        layer, probe_ops = _layer_metrics(family, rounds, ctx, smoke)
        ops += probe_ops
        records = write_jsonl(rec, HERE / "out" / f"trace-{name}.jsonl")
        problems += validate_spans(records)

    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = [op for op in ops if not op.ok]
    problems += sorted({f"{op.name}: {op.note}" for op in failed})
    known = catalogue.by_name()
    return {
        "schema": SCHEMA,
        "workload": name,
        "seed": ctx.seed,
        "trace": int(trace),
        "smoke": smoke,
        "git_rev": git_rev(),
        "parameters": {k: v for k, v in cfg.items() if k != "why"} | {"seconds": seconds},
        "host": host_fingerprint(ctx.work),
        "rounds": len(rounds),
        "setup_repeats": len(setups),
        "attempted": len(ops),
        "failed": len(failed),
        "correct": not problems,
        "problems": problems,
        "info": family.info,
        "metrics": {n: _entry(known[n], v) for n, v in values.items()},
        "per_layer": {n: _entry(known[n], v) for n, v in layer.items()},
        "samples": {
            "round_wall_s": [r.wall for r in rounds],
            "setup_s": [IMPORT_SECONDS + s for s in setups],
        },
    }


def contract_line(doc: dict) -> str:
    """The last line of standard output, in the form ``BENCHMARK.json`` fixes."""
    if doc["trace"]:
        wanted, source = catalogue.PER_LAYER, doc["per_layer"]
    else:
        wanted, source = catalogue.END_TO_END, doc["metrics"]
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            m.name: {"value": source[m.name]["value"], "unit": m.unit} for m in wanted
        },
    })


def print_report(doc: dict) -> None:
    print(
        f"# {doc['workload']} seed={doc['seed']} rounds={doc['rounds']} "
        f"ops={doc['attempted']} failed={doc['failed']} trace={doc['trace']} "
        f"git={doc['git_rev']} fs={doc['host']['work_fs']} nproc={doc['host']['nproc']}"
    )
    print(f"# flush policy: {FLUSH_POLICY}")
    for section in ("metrics", "per_layer"):
        for name, entry in doc[section].items():
            bound = "" if entry["bound"] is None else f"  bound {entry['bound']:.1%}"
            print(f"{name:38s} {entry['value']:>16.6g} {entry['unit']:9s} ({entry['kind']}){bound}")
    for key, value in doc["info"].items():
        print(f"# {key}: {value:.6g}")
    for problem in doc["problems"]:
        print(f"# PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the measured rounds last (default: %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="record spans and print the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="SF-0.002, one round, tiny fleet shapes")
    parser.add_argument("--result", type=Path, default=None,
                        help="where the result document goes (default: out/ next to this file)")
    args = parser.parse_args(argv)
    doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    suffix = "-trace" if args.trace else ""
    result = args.result or HERE / "out" / f"result-{args.workload}{suffix}.json"
    result.parent.mkdir(parents=True, exist_ok=True)
    result.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print_report(doc)
    print(f"# result document: {result}")
    print(contract_line(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
