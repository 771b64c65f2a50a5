"""The five workloads of the wall benchmark, as three families of rounds.

Load shape, all workloads: closed loop, one client, one process, one
thread.  ``--seed`` feeds dbgen, the suspend fractions and the fleet master
seed through :func:`repro.seeding.derive_seed`; the program only ever sees
the generated inputs.  Every layer is driven from outside through its
public functions, each call wrapped in a span (see ``spans.py``).

Why each workload exists is recorded in ``WORKLOADS[...]["why"]`` and, at
length, in the README next to this file.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.engine.errors import QuerySuspended
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.fleet import (
    AdmissionController,
    FleetCluster,
    fleet_report,
    generate_workload,
    make_policy,
    make_tenants,
    report_to_json,
)
from repro.optimizer import optimize_plan
from repro.seeding import derive_seed
from repro.suspend import PipelineLevelStrategy, ProcessLevelStrategy, SnapshotStore
from repro.tpch import QUERY_NAMES, build_query, generate_catalog
from repro.tpch.reference import REFERENCES

from spans import Recorder, self_times

__all__ = ["WORKLOADS", "SMOKE", "Context", "Op", "Round", "make_family", "chunk_digest"]

#: (suspension level, query) cells of the suspend workloads.
CELLS = (
    ("pipeline", "Q3"), ("pipeline", "Q13"), ("pipeline", "Q18"), ("pipeline", "Q21"),
    ("process", "Q1"), ("process", "Q3"), ("process", "Q9"),
)
#: Cells whose second snapshot shares a state with the first, so an
#: incremental store must write it as a delta.  The others keep no state
#: alive across two suspensions (their second record is a full snapshot).
DELTA_CELLS = {("pipeline", "Q21"), ("process", "Q3"), ("process", "Q9")}
STRATEGIES = {"pipeline": PipelineLevelStrategy, "process": ProcessLevelStrategy}

#: First suspension: share of the normal virtual time at which it is
#: requested.  The range stays clear of two cliffs (pipeline Q18 lands on a
#: 200x smaller breaker past 0.63, process Q9 on a 25 % smaller image below
#: 0.38) so that seeds differ in degree, not in kind.  Later suspensions:
#: share of the time still to run, kept short so the states of the previous
#: snapshot are still alive (the delta path).
FIRST_FRACTION = (0.40, 0.60)
NEXT_FRACTION = (0.05, 0.25)

WORKLOADS: dict[str, dict] = {
    "tpch_power": {
        "family": "tpch", "scale": 0.1, "min_rounds": 10,
        "why": "engine only: scan, kernels, join/aggregate/sort sinks do all the work; "
               "suspend, store and fleet do none",
    },
    "suspend_adaptive": {
        "family": "suspend", "scale": 0.1, "min_rounds": 5,
        "codec": "adaptive", "incremental": False, "suspensions": 1,
        "why": "persist is CPU-bound in storage.codec; the engine does little, so an "
               "engine-only gain must not move it",
    },
    "suspend_chain_raw": {
        "family": "suspend", "scale": 0.1, "min_rounds": 10,
        "codec": "raw", "incremental": True, "suspensions": 2,
        "why": "same layer the other way: write-bound raw persist, second-generation "
               "resume and the delta path of the incremental store",
    },
    "fleet_macro": {
        "family": "fleet", "scale": 0.002, "min_rounds": 2, "fidelity": "macro",
        "workers": 200, "tenants": 120, "duration": 28800.0, "warmup_share": 1.0,
        "arrivals": 75500,
        "why": "the fleet event loop does the work; the engine runs only during "
               "calibration, so engine and codec gains must leave it flat",
    },
    "fleet_engine": {
        "family": "fleet", "scale": 0.01, "min_rounds": 2, "fidelity": "engine",
        "workers": 8, "tenants": 24, "duration": 2400.0, "warmup_share": 1 / 3,
        "arrivals": 1270,
        "why": "integration: every slice a real QueryExecutor, every suspension a real "
               "persist; engine, suspend and fleet gains must add up here",
    },
}

#: ``--smoke`` overrides: SF-0.002, one round, tiny fleet shapes.
SMOKE = {
    "scale": 0.002, "min_rounds": 1,
    "workers": 2, "tenants": 3, "duration": 600.0, "arrivals": None,
}

#: Shapes of the families a traced run probes beside its own (one round each).
PROBES: dict[str, dict] = {
    "tpch": {"family": "tpch"},
    "suspend": {"family": "suspend", "codec": "raw", "incremental": True, "suspensions": 2},
    "fleet": {"family": "fleet", "scale": 0.002, "fidelity": "macro",
              "workers": 8, "tenants": 24, "duration": 3600.0, "warmup_share": 1.0},
}

MEAN_ON_SECONDS = 180.0
MEAN_OFF_SECONDS = 30.0
POLICY = "suspend-aware"
#: A fleet workload has a stated input size: the seed picks an instance whose
#: arrival count is within this share of ``cfg["arrivals"]``.  Bursty tenants
#: make the raw count swing 7 % between seeds, and wall and virtual time with it.
ARRIVALS_TOLERANCE = 0.015


@dataclass
class Context:
    seed: int
    work: Path
    rec: Recorder


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool = True
    note: str = ""


@dataclass
class Round:
    ops: list[Op]
    #: exact, seed-determined numbers of the round; equal in every round
    virtual: dict
    #: host seconds of steps a family metric sums (persist, reload)
    host: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    #: what verification compares across rounds (digests, report JSON)
    outputs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)


@functools.lru_cache(maxsize=None)
def fleet_master_seed(seed: int, tenants: int, duration: float, arrivals: int | None) -> int:
    """The fleet master seed *seed* stands for: the first of its derived
    streams whose workload has the stated size (the first outright when the
    shape states none)."""
    for attempt in range(1000):
        master = derive_seed(seed, "fleet", attempt)
        if arrivals is None:
            return master
        count = len(generate_workload(make_tenants(tenants, master), duration, master))
        if abs(count - arrivals) <= ARRIVALS_TOLERANCE * arrivals:
            return master
    raise RuntimeError(f"no workload of {arrivals} arrivals among 1000 streams of seed {seed}")


def chunk_digest(chunk) -> str:
    """Byte-for-byte identity of a result chunk (names, dtypes, shapes, data)."""
    digest = hashlib.sha1()
    for name, array in zip(chunk.schema.names, chunk.arrays()):
        digest.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def matches_reference(chunk, expected) -> bool:
    """Compare a result with a ``repro.tpch.reference`` answer.

    Keys and counts must be equal; floating sums agree to 1e-9 relative
    (the references add in another order than the engine).
    """
    if not isinstance(expected, dict):
        got = chunk.column_at(0)[0]
        if np.isnan(got):
            # SUM over no rows is NULL in the engine and 0.0 in the reference
            # (Q17 finds no part at SF-0.002 under some seeds).
            return expected == 0.0
        return bool(np.isclose(got, expected, rtol=1e-9, atol=0.0))
    shared = [name for name in expected if name in chunk.schema.names]
    if not shared:
        return False
    for name in shared:
        got, want = chunk.column(name), np.asarray(expected[name])
        if got.shape != want.shape:
            return False
        if want.size == 0:
            continue  # an empty reference column is typed float whatever it holds
        if want.dtype.kind == "f":
            if not np.allclose(got, want, rtol=1e-9, atol=0.0):
                return False
        elif not np.array_equal(got, want):
            return False
    return True


def _median_over_rounds(rounds: list[Round], value) -> float:
    """Median over the traced rounds of ``value(round.spans)``."""
    traced = [r for r in rounds if r.spans]
    return statistics.median(value(r.spans) for r in traced) if traced else 0.0


def _span_seconds(rounds: list[Round], name: str, **counts) -> float:
    """Median per-round seconds in the spans called *name* whose counts include *counts*."""
    return _median_over_rounds(rounds, lambda spans: sum(
        span.seconds for span in spans
        if span.name == name and all(span.counts.get(k) == v for k, v in counts.items())
    ))


def _span_count(rounds: list[Round], name: str, key: str) -> float:
    """Median per-round total of the count *key* on the spans called *name*."""
    return _median_over_rounds(rounds, lambda spans: sum(
        span.counts.get(key, 0) for span in spans if span.name == name
    ))


class Family:
    """One kind of round.  ``catalog`` lets a probe reuse the native one."""

    kind = ""

    def __init__(self, cfg: dict, ctx: Context, catalog=None):
        self.cfg = cfg
        self.ctx = ctx
        self.rec = ctx.rec
        self.catalog = catalog
        #: findings of verification worth keeping that are not faults
        self.info: dict = {}

    def _catalog(self):
        if self.catalog is None:
            with self.rec.span("tpch.dbgen"):
                self.catalog = generate_catalog(
                    self.cfg["scale"], seed=derive_seed(self.ctx.seed, "dbgen")
                )
        return self.catalog

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int, warmup: bool = False) -> Round:
        raise NotImplementedError

    def verify(self, warmup: Round, rounds: list[Round]) -> None:
        """Check the rounds' outputs; an op that fails a check is marked in place."""
        raise NotImplementedError

    def family_metrics(self, rounds: list[Round]) -> dict[str, float]:
        return {}

    def layer_metrics(self, rounds: list[Round]) -> dict[str, float]:
        raise NotImplementedError


# -- tpch_power ------------------------------------------------------------------


class TpchFamily(Family):
    """All 22 TPC-H plans; op = build_query -> optimize_plan -> executor -> run()."""

    kind = "tpch"

    def setup(self) -> None:
        self._catalog()

    def round(self, index: int, warmup: bool = False) -> Round:
        rec, catalog = self.rec, self.catalog
        mark = len(rec.spans)
        ops, digests, chunks = [], {}, {}
        virtual = 0.0
        for query in QUERY_NAMES:
            with rec.op(query) as op:
                with rec.span("tpch.build_query"):
                    plan = build_query(query)
                with rec.span("optimizer.optimize_plan"):
                    plan = optimize_plan(catalog, plan).plan
                with rec.span("engine.build_pipelines"):
                    executor = QueryExecutor(
                        catalog, plan, query_name=query,
                        lazy_filters=True, select_operators=True,
                    )
                with rec.span("engine.run") as run:
                    result = executor.run()
            pipelines = result.stats.pipelines
            run.counts["rows_scanned"] = sum(
                o.rows for p in pipelines for o in p.operators if o.kind == "scan"
            )
            run.counts["morsels"] = sum(p.morsels_processed for p in pipelines)
            virtual += result.stats.duration
            ops.append(Op(query, op.seconds))
            digests[query] = chunk_digest(result.chunk)
            if warmup:
                chunks[query] = result.chunk
        return Round(
            ops, {"virtual_s": virtual}, spans=rec.spans[mark:],
            outputs={"digests": digests, "chunks": chunks},
        )

    def verify(self, warmup: Round, rounds: list[Round]) -> None:
        first = warmup.outputs["digests"]
        for round_ in rounds:
            for op in round_.ops:
                if round_.outputs["digests"][op.name] != first[op.name]:
                    op.ok, op.note = False, "differs from the warm-up round"
        for query in QUERY_NAMES:
            chunk = warmup.outputs["chunks"][query]
            if query in REFERENCES:
                good = matches_reference(chunk, REFERENCES[query](self.catalog))
                how = "repro.tpch.reference"
            else:
                plain = QueryExecutor(
                    self.catalog, build_query(query), query_name=query, lazy_filters=False
                ).run()
                good = chunk_digest(plain.chunk) == first[query]
                how = "the optimizer-off plan"
            if not good:
                for round_ in rounds:
                    for op in round_.ops:
                        if op.name == query:
                            op.ok, op.note = False, f"disagrees with {how}"

    def layer_metrics(self, rounds: list[Round]) -> dict[str, float]:
        out = {
            "tpch.build_query_ms": 1e3 * _span_seconds(rounds, "tpch.build_query"),
            "optimizer.optimize_ms": 1e3 * _span_seconds(rounds, "optimizer.optimize_plan"),
            "engine.pipeline_build_ms": 1e3 * _span_seconds(rounds, "engine.build_pipelines"),
            "engine.rows_scanned": _span_count(rounds, "engine.run", "rows_scanned"),
            "engine.morsels": _span_count(rounds, "engine.run", "morsels"),
        }
        traced = [r for r in rounds if r.spans]
        for query in QUERY_NAMES:
            walls = []
            for round_ in traced:
                roots = {s.span_id for s in round_.spans if s.parent_id is None and s.name == query}
                walls.append(sum(
                    s.seconds for s in round_.spans
                    if s.name == "engine.run" and s.parent_id in roots
                ))
            out[f"engine.query_ms.{query}"] = 1e3 * statistics.median(walls) if walls else 0.0
        return out


# -- suspend_adaptive / suspend_chain_raw --------------------------------------------


class SuspendFamily(Family):
    """Suspend -> persist -> register -> fresh executor -> materialize -> resume."""

    kind = "suspend"

    def setup(self) -> None:
        catalog = self._catalog()
        self.profile = HardwareProfile()
        self.plans, self.normal, self.expected = {}, {}, {}
        for query in sorted({query for _, query in CELLS}, key=QUERY_NAMES.index):
            with self.rec.span("tpch.build_query"):
                plan = build_query(query)
            with self.rec.span("optimizer.optimize_plan"):
                self.plans[query] = optimize_plan(catalog, plan).plan
            with self.rec.span("engine.run"):
                result = self._executor(query).run()
            self.normal[query] = result.stats.duration
            self.expected[query] = chunk_digest(result.chunk)
        self.fractions = {}
        for index, cell in enumerate(CELLS):
            rng = random.Random(derive_seed(self.ctx.seed, "suspend-fraction", index))
            self.fractions[cell] = [rng.uniform(*FIRST_FRACTION)] + [
                rng.uniform(*NEXT_FRACTION) for _ in range(self.cfg["suspensions"] - 1)
            ]

    def _executor(self, query, controller=None, resume=None) -> QueryExecutor:
        return QueryExecutor(
            self.catalog, self.plans[query], profile=self.profile, controller=controller,
            query_name=query, resume=resume, lazy_filters=True, select_operators=True,
        )

    def round(self, index: int, warmup: bool = False) -> Round:
        rec = self.rec
        mark = len(rec.spans)
        base = self.ctx.work / f"suspend-{self.cfg['codec']}-r{index}"
        shutil.rmtree(base, ignore_errors=True)
        ops = []
        virtual = {"virtual_s": 0.0, "virtual_overhead_s": 0.0, "snapshot_file_bytes": 0}
        host = {"persist_s": 0.0, "reload_s": 0.0}
        detail = {"delta_bytes": 0, "delta_full_bytes": 0, "pipeline_bytes": 0, "process_bytes": 0}
        stores = []
        for cell in CELLS:
            op = self._cycle(cell, base, virtual, host, detail, stores)
            ops.append(op)
        if rec.enabled:
            # What a restarted process pays before it can look anything up.
            with rec.op("store_open"):
                for directory in stores:
                    with rec.span("suspend.store_open"):
                        SnapshotStore(directory, incremental=self.cfg["incremental"])
        shutil.rmtree(base, ignore_errors=True)
        return Round(ops, virtual, host, rec.spans[mark:], outputs=detail)

    def _cycle(self, cell, base, virtual, host, detail, stores) -> Op:
        rec = self.rec
        level, query = cell
        directory = base / f"{level}-{query}"
        directory.mkdir(parents=True)
        normal = self.normal[query]
        pending = list(self.fractions[cell])
        records, problems = [], []
        busy = ran = 0.0
        with rec.op(f"{level}:{query}", level=level) as op:
            store = SnapshotStore(directory / "store", incremental=self.cfg["incremental"])
            strategy = STRATEGIES[level](self.profile, codec=self.cfg["codec"])
            resume = None
            while True:
                controller = None
                if pending:
                    controller = strategy.make_request_controller(
                        pending.pop(0) * (normal - ran)
                    )
                with rec.span("engine.build_pipelines"):
                    executor = self._executor(query, controller, resume)
                try:
                    with rec.span("engine.run", suspended=True) as run:
                        result = executor.run()
                        run.counts["suspended"] = False
                    busy += executor.clock.now()
                    break
                except QuerySuspended as suspended:
                    capture = suspended.capture
                with rec.span("suspend.persist", always=True, level=level) as persist:
                    outcome = strategy.persist(capture, directory)
                full_bytes = Path(outcome.snapshot_path).stat().st_size
                with rec.span("suspend.register", always=True) as register:
                    record = store.register(outcome, query)
                # A resumed process starts from nothing: it rebuilds the
                # pipelines before it can deserialize states into them.
                with rec.span("engine.build_pipelines"):
                    fresh = self._executor(query)
                with rec.span("suspend.materialize", always=True) as materialize:
                    path = store.materialize(record)
                with rec.span("suspend.prepare_resume", always=True, level=level) as prepare:
                    resumed = strategy.prepare_resume(
                        path, fresh.pipelines, fresh.plan_fingerprint
                    )
                resume = resumed.resume_state
                records.append(record)
                persist.counts["bytes"] = record.file_bytes
                host["persist_s"] += persist.seconds + register.seconds
                host["reload_s"] += materialize.seconds + prepare.seconds
                ran += outcome.suspended_at
                busy += outcome.suspended_at + outcome.persist_latency + resumed.reload_latency
                if record.is_delta:
                    detail["delta_bytes"] += record.file_bytes
                    detail["delta_full_bytes"] += full_bytes
        op.counts["file_bytes"] = sum(r.file_bytes for r in records)
        stores.append(directory / "store")
        virtual["virtual_s"] += busy
        virtual["virtual_overhead_s"] += busy - normal
        virtual["snapshot_file_bytes"] += op.counts["file_bytes"]
        detail[f"{level}_bytes"] += op.counts["file_bytes"]
        if chunk_digest(result.chunk) != self.expected[query]:
            problems.append("resumed result differs from the uninterrupted run")
        if len(records) != self.cfg["suspensions"]:
            problems.append(f"{len(records)} suspension(s), expected {self.cfg['suspensions']}")
        elif self.cfg["incremental"] and cell in DELTA_CELLS and not records[1].is_delta:
            problems.append("second record is not a delta")
        return Op(f"{level}:{query}", op.seconds, not problems, "; ".join(problems))

    def verify(self, warmup: Round, rounds: list[Round]) -> None:
        pass  # every cycle is checked where it runs

    def family_metrics(self, rounds: list[Round]) -> dict[str, float]:
        last = rounds[-1].virtual
        return {
            "persist_ms": 1e3 * statistics.median(r.host["persist_s"] for r in rounds),
            "reload_ms": 1e3 * statistics.median(r.host["reload_s"] for r in rounds),
            "snapshot_file_bytes": last["snapshot_file_bytes"],
            "virtual_overhead_s": last["virtual_overhead_s"],
        }

    def layer_metrics(self, rounds: list[Round]) -> dict[str, float]:
        def ms(name, **counts):
            return 1e3 * _span_seconds(rounds, name, **counts)

        detail = rounds[-1].outputs
        reuse = 0.0
        if detail["delta_full_bytes"]:
            reuse = 1.0 - detail["delta_bytes"] / detail["delta_full_bytes"]
        return {
            "suspend.run_to_suspend_ms": ms("engine.run", suspended=True),
            "suspend.resume_finish_ms": ms("engine.run", suspended=False),
            "suspend.persist_ms.pipeline": ms("suspend.persist", level="pipeline"),
            "suspend.persist_ms.process": ms("suspend.persist", level="process"),
            "suspend.register_ms": ms("suspend.register"),
            "suspend.materialize_ms": ms("suspend.materialize"),
            "suspend.prepare_resume_ms.pipeline": ms("suspend.prepare_resume", level="pipeline"),
            "suspend.prepare_resume_ms.process": ms("suspend.prepare_resume", level="process"),
            "suspend.file_bytes.pipeline": detail["pipeline_bytes"],
            "suspend.file_bytes.process": detail["process_bytes"],
            "suspend.delta_reuse_ratio": reuse,
            "suspend.store_open_ms": ms("suspend.store_open"),
        }


# -- fleet_macro / fleet_engine ------------------------------------------------------


class FleetFamily(Family):
    """One op = construct a FleetCluster, run the workload, build the report."""

    kind = "fleet"

    def __init__(self, cfg: dict, ctx: Context, catalog=None):
        # The fleet shapes fix their own scale: a probe never borrows the
        # native catalog (engine fidelity at SF-0.1 would take minutes).
        super().__init__(cfg, ctx, None)
        # Choosing the instance is the benchmark's work, not the program's:
        # it happens here, outside the timed set-up.
        self.master = fleet_master_seed(
            ctx.seed, cfg["tenants"], cfg["duration"], cfg.get("arrivals")
        )

    def setup(self) -> None:
        cfg = self.cfg
        self._catalog()
        with self.rec.span("fleet.workload_gen"):
            self.roster = make_tenants(cfg["tenants"], self.master)
            self.arrivals = generate_workload(self.roster, cfg["duration"], self.master)
        self.macro_profiles: dict = {}
        if cfg["fidelity"] == "macro":
            self._calibrate()

    def _calibrate(self) -> None:
        with self.rec.span("fleet.calibrate"):
            warm = self._cluster("macro", self.ctx.work / "fleet-calibrate")
            for tenant in self.roster:
                for query in tenant.queries:
                    warm.measure(query)

    def _cluster(self, fidelity: str, directory: Path) -> FleetCluster:
        cfg = self.cfg
        return FleetCluster(
            self.catalog,
            make_policy(POLICY),
            workers=cfg["workers"],
            seed=self.master,
            admission=AdmissionController(max_queue_depth=max(16, 2 * cfg["workers"])),
            snapshot_dir=directory,
            mean_on_seconds=MEAN_ON_SECONDS,
            mean_off_seconds=MEAN_OFF_SECONDS,
            fidelity=fidelity,
            macro_profiles=self.macro_profiles if fidelity == "macro" else None,
        )

    def _simulate(self, fidelity, arrivals, duration, directory):
        rec = self.rec
        shutil.rmtree(directory, ignore_errors=True)
        with rec.op("simulation", fidelity=fidelity) as op:
            with rec.span("fleet.construct"):
                cluster = self._cluster(fidelity, directory)
            with rec.span("fleet.run") as run:
                result = cluster.run(arrivals, duration)
            with rec.span("fleet.report"):
                report = fleet_report(result)
                text = report_to_json(report)
        # Tens of megabytes at 75 k completions: keep its identity, not it.
        digest = hashlib.sha256(text.encode()).hexdigest()
        if rec.enabled:
            run.counts["arrivals"] = len(arrivals)
            run.counts["slices"] = sum(
                1 for c in result.completions for s in c.segments if s["phase"] == "run"
            )
        shutil.rmtree(directory, ignore_errors=True)
        return op, report, digest

    def round(self, index: int, warmup: bool = False) -> Round:
        cfg, rec = self.cfg, self.rec
        mark = len(rec.spans)
        arrivals, duration = self.arrivals, cfg["duration"]
        if warmup and cfg["warmup_share"] < 1.0:
            duration *= cfg["warmup_share"]
            arrivals = generate_workload(self.roster, duration, self.master)
        op, report, digest = self._simulate(
            cfg["fidelity"], arrivals, duration, self.ctx.work / f"fleet-r{index}"
        )
        totals = report["totals"]
        problems = []
        if totals["arrivals"] != totals["completed"] + totals["rejected"]:
            problems.append("arrivals != completed + rejected")
        virtual = {
            "virtual_s": totals["busy_seconds"],
            "snapshot_file_bytes": totals["persisted_bytes"],
            "slo_attainment": report["slo"]["attainment"],
            "interactive_p95_virtual_s": report["interactive_latency"]["p95"],
            "arrivals": totals["arrivals"],
            "suspensions": totals["suspensions"],
            "reclamations": totals["reclamations"],
        }
        return Round(
            [Op("simulation", op.seconds, not problems, "; ".join(problems))],
            virtual, spans=rec.spans[mark:], outputs={"report": digest},
        )

    def verify(self, warmup: Round, rounds: list[Round]) -> None:
        first = rounds[0].outputs["report"]
        for round_ in rounds[1:]:
            if round_.outputs["report"] != first:
                round_.ops[0].ok = False
                round_.ops[0].note = "report differs from the first measured simulation"
        if self.cfg["fidelity"] == "engine":
            # Two independent implementations must tell the same story: the
            # macro replay of this very shape yields a byte-identical report.
            self._calibrate()
            op, _, digest = self._simulate(
                "macro", self.arrivals, self.cfg["duration"], self.ctx.work / "fleet-twin"
            )
            self.info["macro_twin_wall_s"] = op.seconds
            if digest != first:
                for round_ in rounds:
                    round_.ops[0].ok, round_.ops[0].note = False, "macro twin report differs"

    def family_metrics(self, rounds: list[Round]) -> dict[str, float]:
        last = rounds[-1].virtual
        wall = statistics.median(r.wall for r in rounds)
        return {
            "sim_arrivals_per_s": last["arrivals"] / wall,
            "slo_attainment": last["slo_attainment"],
            "interactive_p95_virtual_s": last["interactive_p95_virtual_s"],
            "snapshot_file_bytes": last["snapshot_file_bytes"],
        }

    def layer_metrics(self, rounds: list[Round]) -> dict[str, float]:
        last = rounds[-1].virtual
        run_s = _span_seconds(rounds, "fleet.run")
        slices = _span_count(rounds, "fleet.run", "slices")
        events = _span_count(rounds, "fleet.run", "arrivals") + slices
        return {
            "fleet.run_s": run_s,
            "fleet.events_per_s": events / run_s if run_s else 0.0,
            "fleet.report_ms": 1e3 * _span_seconds(rounds, "fleet.report"),
            "fleet.slices": slices,
            "fleet.suspensions": last["suspensions"],
            "fleet.reclamations": last["reclamations"],
            "fleet.persisted_bytes": last["snapshot_file_bytes"],
        }


FAMILIES = {"tpch": TpchFamily, "suspend": SuspendFamily, "fleet": FleetFamily}


def make_family(cfg: dict, ctx: Context, catalog=None) -> Family:
    return FAMILIES[cfg["family"]](cfg, ctx, catalog)


# -- end-to-end statistics ---------------------------------------------------------


def nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """The workload-independent wall statistics of the measured rounds."""
    by_op: dict[str, list[float]] = {}
    for round_ in rounds:
        for op in round_.ops:
            by_op.setdefault(op.name, []).append(op.seconds)
    medians = [statistics.median(walls) for walls in by_op.values()]
    return {
        "round_wall_s": statistics.median(r.wall for r in rounds),
        "op_geomean_ms": 1e3 * math.exp(sum(math.log(m) for m in medians) / len(medians)),
        # The tail of the op mix, not of the noise: a percentile over all
        # (op, round) samples sits on the cliff between the slowest query's
        # samples and the next one's outliers and moves 10 % between runs.
        "op_p95_ms": 1e3 * statistics.median(
            nearest_rank([op.seconds for op in r.ops], 0.95) for r in rounds
        ),
    }


def engine_run_share(rounds: list[Round]) -> float:
    """Self time of engine ``run()`` spans over op wall, on the traced rounds."""
    traced = [r for r in rounds if r.spans]
    spans = [s for r in traced for s in r.spans]
    selfs = self_times(spans)
    ops = sum(r.wall for r in traced)
    runs = sum(selfs[s.span_id] for s in spans if s.name == "engine.run")
    return runs / ops if ops else 0.0
