"""Tests of the wall benchmark itself (not tier-1; run them on their own):

    PYTHONPATH=src python -m pytest benchmarks/wall

Everything runs in ``--smoke`` mode: SF-0.002, one round, tiny fleet shapes.
"""

from __future__ import annotations

import functools
import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402  (puts the checkout's src on the path)
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_PATH = ROOT / "BENCHMARK.json"
BENCHMARK = json.loads(BENCHMARK_PATH.read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
WORKLOADS = list(workloads.WORKLOADS)
FAMILY_METRICS = {
    "tpch": set(),
    "suspend": {"persist_ms", "reload_ms", "snapshot_file_bytes", "virtual_overhead_s"},
    "fleet": {"sim_arrivals_per_s", "slo_attainment", "interactive_p95_virtual_s",
              "snapshot_file_bytes"},
}


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: bool = False, seed: int = run.DEFAULT_SEED, repeat: int = 0):
    """Result document and wall seconds of one smoke run (cached per argument set)."""
    started = time.perf_counter()
    doc = run.run_workload(workload, seed, run.RUN_SECONDS, trace, smoke=True)
    return doc, time.perf_counter() - started


# -- BENCHMARK.json -----------------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    assert BENCHMARK_PATH.stat().st_size <= 64 * 1024
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= len(BENCHMARK["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in BENCHMARK["command"])
    assert not any(a.startswith("/") or ".." in a.split("/") for a in BENCHMARK["command"])
    assert 1 <= len(BENCHMARK["paths"]) <= 16
    assert all(PATH.match(p) and not p.startswith("/") for p in BENCHMARK["paths"])
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in BENCHMARK[key]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_benchmark_json_and_the_catalogue_agree():
    assert [w["name"] for w in BENCHMARK["workloads"]] == WORKLOADS
    assert BENCHMARK["run_seconds"] == run.RUN_SECONDS
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    catalogue = metrics.END_TO_END + metrics.FAMILY + metrics.PER_LAYER
    assert all(NAME.match(m.name) and UNIT.match(m.unit) for m in catalogue)
    assert len({m.name for m in catalogue}) == len(catalogue)
    assert Path(BENCHMARK["command"][1]) == (HERE / "run.py").relative_to(ROOT)
    assert BENCHMARK["paths"] == [str(HERE.relative_to(ROOT))]


# -- the runs -----------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    doc, _ = smoke(workload)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    line = json.loads(run.contract_line(doc))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m.name for m in metrics.END_TO_END]
    for metric in metrics.END_TO_END:
        reading = line["metrics"][metric.name]
        assert reading["unit"] == metric.unit
        assert math.isfinite(reading["value"]) and reading["value"] > 0
    family = workloads.WORKLOADS[workload]["family"]
    reported = set(doc["metrics"]) - {m.name for m in metrics.END_TO_END}
    assert reported == FAMILY_METRICS[family]
    for key in ("schema", "git_rev", "seed", "parameters", "host"):
        assert key in doc
    assert {"nproc", "python", "numpy", "work_fs", "flush_policy"} <= set(doc["host"])


def test_five_smoke_runs_take_under_thirty_seconds():
    assert sum(smoke(workload)[1] for workload in WORKLOADS) < 30


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_sound_span_trees(workload):
    doc, _ = smoke(workload, trace=True)
    assert doc["correct"], doc["problems"]
    line = json.loads(run.contract_line(doc))
    assert list(line["metrics"]) == [m.name for m in metrics.PER_LAYER]
    assert all(math.isfinite(r["value"]) and r["value"] >= 0 for r in line["metrics"].values())
    assert line["metrics"]["bench.trace_overhead_ratio"]["value"] > 0
    records = [
        json.loads(text)
        for text in (HERE / "out" / f"trace-{workload}.jsonl").read_text().splitlines()
    ]
    assert len(records) == doc["per_layer"]["bench.spans"]["value"]
    assert spans.validate_spans(records) == []
    roots = [r for r in records if r["parent"] is None]
    assert len(roots) == len({r["trace"] for r in records})  # one trace id per op
    assert all(r["self"] >= -1e-6 for r in records)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_virtual_metrics_and_counts(workload):
    first, _ = smoke(workload)
    again, _ = smoke(workload, repeat=1)
    exact = [n for n, e in first["metrics"].items() if e["kind"] == "v"]
    assert "virtual_s" in exact
    for name in exact:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name
    assert first["attempted"] == again["attempted"]
    other, _ = smoke(workload, seed=run.DEFAULT_SEED + 1)
    assert other["metrics"]["virtual_s"]["value"] != first["metrics"]["virtual_s"]["value"]


def test_an_injected_wrong_result_shows_up_in_failed(monkeypatch):
    class WrongOnce(workloads.QueryExecutor):
        runs_of_q6 = 0

        def run(self):
            result = super().run()
            if self.query_name == "Q6":
                WrongOnce.runs_of_q6 += 1
                if WrongOnce.runs_of_q6 == 2:  # the measured round, not the warm-up
                    result.chunk.set_column(0, result.chunk.column_at(0) + 1.0)
            return result

    monkeypatch.setattr(workloads, "QueryExecutor", WrongOnce)
    doc = run.run_workload("tpch_power", run.DEFAULT_SEED, run.RUN_SECONDS, False, smoke=True)
    assert doc["failed"] == 1 and not doc["correct"]
    assert any("Q6" in problem for problem in doc["problems"])


def test_a_bare_directory_yields_no_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no program, no numbers."""
    shutil.copy(BENCHMARK_PATH, tmp_path)
    shutil.copytree(
        HERE, tmp_path / HERE.relative_to(ROOT),
        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"),
    )
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


# -- spans ---------------------------------------------------------------------------


def _record(span, trace, parent, start, end, self_seconds=None):
    return {"span": span, "trace": trace, "parent": parent, "name": f"s{span}", "scope": "",
            "start": start, "end": end, "counts": {},
            "self": end - start if self_seconds is None else self_seconds}


def test_validate_spans_catches_broken_trees():
    sound = [_record(0, 0, None, 0.0, 1.0, 0.5), _record(1, 0, 0, 0.2, 0.7)]
    assert spans.validate_spans(sound) == []
    outside = [_record(0, 0, None, 0.0, 1.0), _record(1, 0, 0, 0.5, 1.5)]
    assert any("not inside" in p for p in spans.validate_spans(outside))
    two_roots = [_record(0, 0, None, 0.0, 1.0), _record(1, 0, None, 1.0, 2.0)]
    assert any("2 roots" in p for p in spans.validate_spans(two_roots))
    negative = [_record(0, 0, None, 0.0, 1.0, -0.1)]
    assert any("negative self" in p for p in spans.validate_spans(negative))
    orphan = [_record(1, 0, 7, 0.0, 1.0)]
    assert any("was not recorded" in p for p in spans.validate_spans(orphan))


def test_recorder_measures_ops_always_and_spans_only_when_tracing():
    recorder = spans.Recorder()
    with recorder.op("op") as op:
        with recorder.span("quiet") as quiet:
            pass
        with recorder.span("needed", always=True) as needed:
            time.sleep(0.001)
    assert op.seconds > 0 and quiet.seconds == 0.0 and needed.seconds > 0
    assert recorder.spans == []
    recorder.enabled = True
    with recorder.op("op") as op:
        with recorder.span("child"):
            pass
    assert [s.name for s in recorder.spans] == ["child", "op"]
    selfs = spans.self_times(recorder.spans)
    assert selfs[op.span_id] == pytest.approx(op.seconds - recorder.spans[0].seconds)


# -- compare.py ----------------------------------------------------------------------


def _doc(value, seed=1, workload="tpch_power", nproc=2, virtual=100.0):
    entry = {"unit": "s", "kind": "h", "better": "lower", "bound": 0.10}
    return {
        "schema": run.SCHEMA, "workload": workload, "seed": seed, "smoke": False, "trace": 0,
        "host": {"nproc": nproc}, "parameters": {"scale": 0.1},
        "metrics": {
            "round_wall_s": dict(entry, value=value),
            "virtual_s": dict(entry, kind="v", bound=0.05, value=virtual),
        },
        "per_layer": {},
    }


def _write(directory: Path, docs: list[dict]) -> Path:
    directory.mkdir(parents=True)
    for index, doc in enumerate(docs):
        (directory / f"{doc['workload']}.{index:02d}.json").write_text(json.dumps(doc))
    return directory


def _compare(tmp_path, parent, change, *options):
    a, b = _write(tmp_path / "a", parent), _write(tmp_path / "b", change)
    return compare.main([str(a), str(b), *options])


NOISE = [0.0, 0.002, -0.002, 0.004, -0.004, 0.001, -0.001, 0.003, -0.003, 0.0]


def test_selfcheck_passes_within_bounds_and_fails_outside(tmp_path, capsys):
    parent = [_doc(1.0 + n, seed=i) for i, n in enumerate(NOISE)]
    assert _compare(tmp_path / "ok", parent, parent, "--selfcheck") == 0
    slow = [_doc(1.2 + n, seed=i) for i, n in enumerate(NOISE)]
    assert _compare(tmp_path / "slow", parent, slow, "--selfcheck") == 1
    moved = [_doc(1.0 + n, seed=i, virtual=100.5) for i, n in enumerate(NOISE)]
    assert _compare(tmp_path / "moved", parent, moved, "--selfcheck") == 1
    assert "DIFFERS" in capsys.readouterr().out


def test_compare_refuses_other_fingerprints_and_mixed_seeds(tmp_path, capsys):
    assert _compare(tmp_path / "host", [_doc(1.0)], [_doc(1.0, nproc=8)]) == 2
    assert "host.nproc" in capsys.readouterr().err
    assert _compare(tmp_path / "seed", [_doc(1.0, seed=1)], [_doc(1.0, seed=2)]) == 2


def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_quartiles(tmp_path, capsys):
    parent = [_doc(1.0 + n, seed=i) for i, n in enumerate(NOISE)]
    faster = [_doc(0.9 + n, seed=i) for i, n in enumerate(NOISE)]
    claim = ["--claim", "round_wall_s:tpch_power"]
    assert _compare(tmp_path / "gain", parent, faster, *claim) == 0
    assert "gain (10/10 pairs)" in capsys.readouterr().out
    mixed = [_doc(v, seed=i) for i, v in enumerate([0.9] * 8 + [1.1] * 2)]
    assert _compare(tmp_path / "mixed", parent, mixed, *claim) == 1
    assert "8/10 pairs won" in capsys.readouterr().out
    hair = [_doc(1.0 + n - 0.0005, seed=i) for i, n in enumerate(NOISE)]
    assert _compare(tmp_path / "hair", parent, hair, *claim) == 1
    assert "within the parent's quartiles" in capsys.readouterr().out
    assert _compare(tmp_path / "few", parent[:3], faster[:3], *claim) == 1


def test_unclaimed_metric_is_worse_past_its_bound_and_unresolved_when_noisy(tmp_path, capsys):
    parent = [_doc(1.0 + n, seed=i) for i, n in enumerate(NOISE)]
    slower = [_doc(1.15 + n, seed=i) for i, n in enumerate(NOISE)]
    assert _compare(tmp_path / "worse", parent, slower) == 1
    assert "worse" in capsys.readouterr().out
    noisy = [_doc(1.0 + 60 * n, seed=i) for i, n in enumerate(NOISE)]
    assert _compare(tmp_path / "noisy", parent, noisy) == 0
    assert "unresolved" in capsys.readouterr().out
    assert _compare(tmp_path / "ok", parent, [_doc(1.02 + n, seed=i) for i, n in enumerate(NOISE)]) == 0
