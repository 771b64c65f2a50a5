"""Engine micro-benchmarks: wall-clock throughput of the substrate.

These complement the paper-artifact benches with genuine timing
measurements of the engine primitives the experiments rest on.
"""

import numpy as np
import pytest

from repro.engine.clock import WallClock
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.obs.handle import Obs
from repro.suspend import PipelineLevelStrategy, ProcessLevelStrategy
from repro.engine.errors import QuerySuspended
from repro.tpch import build_query
from repro.tpch.dbgen import generate_catalog

SCALE = 0.02


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(SCALE)


def test_bench_dbgen(benchmark):
    catalog = benchmark.pedantic(generate_catalog, args=(SCALE,), rounds=3, iterations=1)
    assert catalog.get("lineitem").num_rows > 100_000


@pytest.mark.parametrize("query", ["Q1", "Q3", "Q6", "Q9", "Q21"])
def test_bench_query_execution(benchmark, catalog, query, obs_registry):
    plan = build_query(query)

    def run():
        return QueryExecutor(
            catalog, plan, clock=WallClock(), query_name=query, metrics=obs_registry
        ).run()

    result = benchmark(run)
    assert result.chunk.num_rows >= 0
    benchmark.extra_info["rows"] = int(result.chunk.num_rows)


def test_bench_pipeline_snapshot_round_trip(benchmark, catalog, tmp_path, obs_registry):
    """Persist + reload of a pipeline-level snapshot of Q9 at ~50%."""
    profile = HardwareProfile()
    plan = build_query("Q9")
    normal = QueryExecutor(catalog, plan, query_name="Q9").run()
    strategy = PipelineLevelStrategy(profile, obs=Obs(metrics=obs_registry))

    def suspend_persist_resume():
        controller = strategy.make_request_controller(normal.stats.duration * 0.5)
        executor = QueryExecutor(
            catalog, plan, profile=profile, controller=controller, query_name="Q9"
        )
        try:
            executor.run()
            raise AssertionError("expected suspension")
        except QuerySuspended as exc:
            persisted = strategy.persist(exc.capture, tmp_path)
            return strategy.prepare_resume(
                persisted.snapshot_path, executor.pipelines, executor.plan_fingerprint
            )

    outcome = benchmark(suspend_persist_resume)
    assert outcome.resume_state is not None


def test_bench_process_image_round_trip(benchmark, catalog, tmp_path, obs_registry):
    """CRIU-style dump + restore of Q3 mid-execution."""
    profile = HardwareProfile()
    plan = build_query("Q3")
    normal = QueryExecutor(catalog, plan, query_name="Q3").run()
    strategy = ProcessLevelStrategy(profile, obs=Obs(metrics=obs_registry))

    def dump_restore():
        controller = strategy.make_request_controller(normal.stats.duration * 0.5)
        executor = QueryExecutor(
            catalog, plan, profile=profile, controller=controller, query_name="Q3"
        )
        try:
            executor.run()
            raise AssertionError("expected suspension")
        except QuerySuspended as exc:
            persisted = strategy.persist(exc.capture, tmp_path)
            return strategy.prepare_resume(
                persisted.snapshot_path, executor.pipelines, executor.plan_fingerprint
            )

    outcome = benchmark(dump_restore)
    assert outcome.resume_state is not None


def test_bench_rcol_scan(benchmark, catalog, tmp_path):
    """Columnar file write + single-column read."""
    from repro.storage import rcol

    table = catalog.get("orders")
    path = tmp_path / "orders.rcol"
    rcol.write_table(table, path)

    def read_column():
        return rcol.read_columns(path, ["o_totalprice"])

    result = benchmark(read_column)
    assert len(result["o_totalprice"]) == table.num_rows
