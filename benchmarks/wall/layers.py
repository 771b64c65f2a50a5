"""Layer probes of the traced run: one call (or a few) into each layer that
the workloads do not time on their own, every call wrapped in a span.

They run on the workload's own catalog, after the measured rounds, so that a
traced run of any workload yields every per-layer metric.  None of them
feeds an end-to-end metric.
"""

from __future__ import annotations

import io
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cloud.events import sample_events
from repro.cloud.runner import QueryRunner
from repro.costmodel.optimizer_est import OptimizerSizeEstimator
from repro.costmodel.selector import AdaptiveStrategySelector
from repro.costmodel.termination import TerminationProfile
from repro.dist import Coordinator, partition_catalog, split_plan
from repro.engine import backend as backend_mod
from repro.engine.errors import QuerySuspended
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.harness.bench import median_overhead_ratio
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import QueryProfiler
from repro.obs.trace import Tracer
from repro.optimizer import optimize_plan
from repro.seeding import derive_seed
from repro.sql import plan_sql
from repro.storage import codec, rcol, serialize
from repro.storage.catalog import Catalog
from repro.suspend import PipelineLevelStrategy, SnapshotStore
from repro.tpch import SQL_TEXTS, build_query, generate_catalog

from workloads import CELLS, FIRST_FRACTION, Context, chunk_digest

__all__ = ["probe_layers"]

MB = 1e6
RCOL_COLUMNS = ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
PARALLEL_QUERIES = ("Q1", "Q9", "Q18")
DIST_QUERIES = ("Q3", "Q12")
CODEC_QUERIES = ("Q21", "Q9")
SUBPROCESS_REPEATS = 5
OVERHEAD_REPEATS = 5


def _optimized(catalog, query):
    return optimize_plan(catalog, build_query(query)).plan


def _run(catalog, plan, query, **options):
    return QueryExecutor(
        catalog, plan, query_name=query, lazy_filters=True, select_operators=True, **options
    ).run()


def _storage(ctx: Context, catalog) -> dict:
    rec = ctx.rec
    directory = ctx.work / "rcol"
    with rec.op("probe:storage"):
        with rec.span("storage.rcol_write") as write:
            sizes = catalog.persist_directory(directory)
        with rec.span("storage.rcol_read") as read:
            Catalog().ingest_directory(directory)
        with rec.span("storage.rcol_read_columns") as columns:
            rcol.read_columns(directory / "lineitem.rcol", RCOL_COLUMNS)
        lineitem = catalog.get("lineitem")
        arrays = {name: lineitem.array(name) for name in RCOL_COLUMNS}
        raw = sum(array.nbytes for array in arrays.values())
        with rec.span("storage.serialize", bytes=raw) as roundtrip:
            buffer = io.BytesIO()
            serialize.write_named_arrays(buffer, arrays)
            buffer.seek(0)
            serialize.read_named_arrays(buffer)
    total = sum(sizes.values())
    write.counts["bytes"] = read.counts["bytes"] = total
    return {
        "storage.rcol_write_mb_per_s": total / MB / write.seconds,
        "storage.rcol_read_mb_per_s": total / MB / read.seconds,
        "storage.rcol_read_columns_ms": 1e3 * columns.seconds,
        "storage.serialize_mb_per_s": 2 * raw / MB / roundtrip.seconds,
    }


def _codec(ctx: Context, catalog) -> dict:
    """Adaptive codec over the live states of Q21 and Q9 at a mid-run breaker."""
    rec = ctx.rec
    profile = HardwareProfile()
    strategy = PipelineLevelStrategy(profile)
    raw_bytes = encoded_bytes = 0
    encode_s = decode_s = 0.0
    with rec.op("probe:codec"):
        for query in CODEC_QUERIES:
            plan = _optimized(catalog, query)
            normal = _run(catalog, plan, query, profile=profile).stats.duration
            executor = QueryExecutor(
                catalog, plan, profile=profile, query_name=query, select_operators=True,
                controller=strategy.make_request_controller(0.5 * normal),
            )
            try:
                executor.run()
                continue
            except QuerySuspended as suspended:
                states = suspended.capture.live_states()
            sinks = {p.pipeline_id: p.sink for p in executor.pipelines}
            for pid, state in states.items():
                raw_bytes += len(state.serialize())
                with rec.span("storage.codec_encode") as encode:
                    with codec.encoding("adaptive"):
                        blob = state.serialize()
                with rec.span("storage.codec_decode") as decode:
                    sinks[pid].deserialize_global_state(blob)
                encoded_bytes += len(blob)
                encode_s += encode.seconds
                decode_s += decode.seconds
    return {
        "storage.codec_encode_mb_per_s": raw_bytes / MB / encode_s,
        "storage.codec_decode_mb_per_s": raw_bytes / MB / decode_s,
        "storage.codec_ratio": raw_bytes / encoded_bytes,
    }


def _sql(ctx: Context, catalog) -> dict:
    with ctx.rec.op("probe:sql"):
        with ctx.rec.span("sql.plan_sql") as span:
            for text in SQL_TEXTS.values():
                plan_sql(catalog, text)
    return {"sql.plan_ms": 1e3 * span.seconds}


def _engine_lanes(ctx: Context, catalog) -> dict:
    """The two non-default execution paths, each against the default one."""
    rec = ctx.rec
    out = {}
    plans = {query: _optimized(catalog, query) for query in PARALLEL_QUERIES}
    with rec.op("probe:engine-lanes"):
        with rec.span("engine.run", lane="inline") as inline:
            for query, plan in plans.items():
                _run(catalog, plan, query)
        if "parallel" in backend_mod.BACKEND_NAMES:
            workers = backend_mod.ParallelBackend(workers=os.cpu_count() or 1)
            with rec.span("engine.run", lane="parallel") as parallel:
                for query, plan in plans.items():
                    _run(catalog, plan, query, backend=workers)
            out["engine.parallel_ms"] = 1e3 * parallel.seconds
            out["engine.parallel_over_inline"] = parallel.seconds / inline.seconds
        small = generate_catalog(0.002, seed=derive_seed(ctx.seed, "dbgen"))
        plan = _optimized(small, "Q6")
        with rec.span("engine.run", lane="numpy") as numpy_lane:
            _run(small, plan, "Q6")
        with rec.span("engine.run", lane="scalar") as scalar_lane:
            _run(small, plan, "Q6", kernels="scalar")
    out["engine.scalar_over_numpy"] = scalar_lane.seconds / numpy_lane.seconds
    return out


@dataclass
class _TimedSelector(AdaptiveStrategySelector):
    """Delegates to Algorithm 1 and keeps the wall time it took."""

    decide_seconds: float = 0.0

    def decide(self, context):
        started = time.perf_counter()
        try:
            return super().decide(context)
        finally:
            self.decide_seconds += time.perf_counter() - started


def _cloud(ctx: Context, catalog) -> dict:
    """``QueryRunner`` over the suspend cells: the driver's own cost."""
    rec = ctx.rec
    profile = HardwareProfile()
    directory = ctx.work / "cloud"
    runner = QueryRunner(
        catalog, profile, snapshot_dir=directory / "snapshots", codec="adaptive",
        store=SnapshotStore(directory / "store"), select_operators=True,
    )
    estimator = OptimizerSizeEstimator(catalog)
    decide_s, decisions = 0.0, 0
    with rec.op("probe:cloud"):
        plans, normal = {}, {}
        for query in dict.fromkeys(query for _, query in CELLS):
            plans[query] = _optimized(catalog, query)
            normal[query] = runner.measure_normal(plans[query], query).stats.duration
        with rec.span("cloud.run_forced") as forced:
            for level, query in CELLS:
                outcome = runner.run_forced(
                    plans[query], query, level, normal[query], None,
                    sum(FIRST_FRACTION) / 2 * normal[query],
                )
                forced.counts[f"{level}:{query}"] = outcome.suspended
        with rec.span("cloud.run_adaptive") as adaptive:
            for query, plan in plans.items():
                termination = TerminationProfile.from_fractions(normal[query], 0.5, 0.75, 1.0)
                event = sample_events(
                    termination, 1, seed=derive_seed(ctx.seed, "termination")
                )[0]
                selector = _TimedSelector(
                    profile=profile,
                    termination=termination,
                    process_size_estimator=lambda f, p=plan: estimator.estimate_bytes(p, f),
                    estimated_total_time=normal[query],
                    codec="adaptive",
                )
                runner.run_adaptive(plan, query, selector, normal[query], event.at_time)
                decide_s += selector.decide_seconds
                decisions += len(selector.decisions)
        adaptive.counts["decisions"] = decisions
    return {
        "cloud.run_forced_ms": 1e3 * forced.seconds,
        "cloud.run_adaptive_ms": 1e3 * adaptive.seconds,
        "costmodel.decide_ms": 1e3 * decide_s,
        "costmodel.decisions": decisions,
    }


def _dist(ctx: Context, catalog) -> dict:
    rec = ctx.rec
    shuffled = 0
    with rec.op("probe:dist"):
        with rec.span("dist.partition_catalog") as partition:
            sharded = partition_catalog(catalog, 2)
        coordinator = Coordinator(
            sharded, HardwareProfile(), snapshot_dir=ctx.work / "dist", select_operators=True
        )
        plans = {query: _optimized(catalog, query) for query in DIST_QUERIES}
        with rec.span("dist.run") as run:
            for query, plan in plans.items():
                result = coordinator.run(split_plan(sharded, plan), query)
                shuffled += result.bytes_shuffled
                if chunk_digest(result.chunk) != chunk_digest(_run(catalog, plan, query).chunk):
                    raise AssertionError(f"sharded {query} differs from the unsharded run")
        run.counts["bytes_shuffled"] = shuffled
    return {
        "dist.partition_ms": 1e3 * partition.seconds,
        "dist.run_ms": 1e3 * run.seconds,
        "dist.bytes_shuffled": shuffled,
    }


def _obs(ctx: Context, catalog) -> dict:
    """Cost of the program's own opt-in instrumentation, interleaved with a control."""
    plan = _optimized(catalog, "Q9")

    def lane(options=dict):
        def run() -> float:
            started = time.perf_counter()
            _run(catalog, plan, "Q9", **options())
            return time.perf_counter() - started
        return run

    def traced() -> dict:
        registry = MetricsRegistry()
        return {"tracer": Tracer(metrics=registry), "metrics": registry}

    with ctx.rec.op("probe:obs"):
        with ctx.rec.span("obs.tracer_overhead"):
            tracer = median_overhead_ratio(lane(), lane(traced), OVERHEAD_REPEATS)
        with ctx.rec.span("obs.profiler_overhead"):
            profiler = median_overhead_ratio(
                lane(), lane(lambda: {"profiler": QueryProfiler()}), OVERHEAD_REPEATS
            )
    return {
        "obs.tracer_overhead_ratio": tracer["ratio"],
        "obs.profiler_overhead_ratio": profiler["ratio"],
    }


def _cli(ctx: Context, src: Path) -> dict:
    """Cold starts of the real command line, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(ctx.work))
    commands = {
        "cli.import_ms": [sys.executable, "-c", "import repro.__main__"],
        "cli.query_cold_ms": [
            sys.executable, "-m", "repro", "query", "--name", "Q6", "--scale", "0.002",
        ],
    }
    out = {}
    with ctx.rec.op("probe:cli"):
        for name, command in commands.items():
            walls = []
            for _ in range(SUBPROCESS_REPEATS):
                with ctx.rec.span(name.removesuffix("_ms")) as span:
                    # No timeout: with one, wait() polls in steps of up to
                    # 50 ms and every reading lands on a step.
                    subprocess.run(
                        command, env=env, cwd=ctx.work, check=True, stdout=subprocess.DEVNULL
                    )
                walls.append(span.seconds)
            out[name] = 1e3 * statistics.median(walls)
    return out


def probe_layers(ctx: Context, catalog, src: Path) -> dict:
    """Run every probe once; returns per-layer metric values by name."""
    out = {}
    for probe in (_storage, _codec, _sql, _engine_lanes, _cloud, _dist, _obs):
        out.update(probe(ctx, catalog))
    out.update(_cli(ctx, src))
    return out
