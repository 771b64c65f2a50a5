"""Suspension machinery: controllers, snapshots, CRIU, strategies.

The crown-jewel invariant lives here too: for every TPC-H query, under
either persisting strategy, at any suspension point, the resumed result
equals the uninterrupted result.
"""

import numpy as np
import pytest

from repro.engine.clock import SimulatedClock
from repro.engine.controller import Action
from repro.engine.errors import EngineError, QuerySuspended, QueryTerminated
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.suspend import (
    CompositeController,
    CriuError,
    PipelineLevelStrategy,
    ProcessLevelStrategy,
    RedoStrategy,
    SimulatedCriu,
    Snapshot,
    SnapshotError,
    SuspensionRequestController,
    TerminationController,
)
from repro.tpch import QUERY_NAMES, build_query

from tests.conftest import assert_chunks_equal


def run_normal(catalog, query):
    return QueryExecutor(catalog, build_query(query), query_name=query).run()


def suspend(catalog, query, strategy, fraction, normal_duration, profile=None):
    """Run until the strategy suspends; returns (executor, capture, controller)."""
    profile = profile or HardwareProfile()
    controller = strategy.make_request_controller(normal_duration * fraction)
    executor = QueryExecutor(
        catalog,
        build_query(query),
        profile=profile,
        controller=controller,
        query_name=query,
    )
    try:
        executor.run()
        return executor, None, controller
    except QuerySuspended as exc:
        return executor, exc.capture, controller


class TestControllers:
    def test_request_controller_validates_mode(self):
        with pytest.raises(ValueError):
            SuspensionRequestController(1.0, mode="bogus")

    def test_termination_controller_raises(self, tpch_tiny):
        controller = TerminationController(0.0)
        with pytest.raises(QueryTerminated):
            QueryExecutor(tpch_tiny, build_query("Q6"), controller=controller).run()

    def test_no_termination_when_time_none(self, tpch_tiny):
        controller = TerminationController(None)
        QueryExecutor(tpch_tiny, build_query("Q6"), controller=controller).run()

    def test_composite_first_action_wins(self, tpch_tiny):
        normal = run_normal(tpch_tiny, "Q6")
        strategy = ProcessLevelStrategy(HardwareProfile())
        request = strategy.make_request_controller(normal.stats.duration * 0.3)
        composite = CompositeController([TerminationController(None), request])
        with pytest.raises(QuerySuspended):
            QueryExecutor(tpch_tiny, build_query("Q6"), controller=composite).run()

    def test_lag_recorded(self, tpch_tiny):
        normal = run_normal(tpch_tiny, "Q1")
        strategy = PipelineLevelStrategy(HardwareProfile())
        _, capture, controller = suspend(
            tpch_tiny, "Q1", strategy, 0.3, normal.stats.duration
        )
        assert capture is not None
        assert controller.lag is not None and controller.lag >= 0.0

    def test_pipeline_suspension_never_on_final_pipeline(self, tpch_tiny):
        """Requesting suspension at 99.9% either suspends earlier or finishes."""
        normal = run_normal(tpch_tiny, "Q6")
        strategy = PipelineLevelStrategy(HardwareProfile())
        executor, capture, _ = suspend(
            tpch_tiny, "Q6", strategy, 0.999, normal.stats.duration
        )
        if capture is not None:
            assert capture.completed_states


class TestSnapshots:
    def test_pipeline_snapshot_round_trip(self, tpch_tiny, tmp_path):
        normal = run_normal(tpch_tiny, "Q3")
        strategy = PipelineLevelStrategy(HardwareProfile())
        _, capture, _ = suspend(tpch_tiny, "Q3", strategy, 0.5, normal.stats.duration)
        snapshot = Snapshot.from_capture(capture)
        path = tmp_path / "snap"
        snapshot.write(path)
        restored = Snapshot.read(path, "pipeline")
        assert restored.meta.query_name == "Q3"
        assert restored.completed_pipelines == snapshot.completed_pipelines
        assert restored.intermediate_bytes == snapshot.intermediate_bytes

    def test_pipeline_snapshot_only_live_states(self, tpch_tiny):
        normal = run_normal(tpch_tiny, "Q3")
        strategy = PipelineLevelStrategy(HardwareProfile())
        _, capture, _ = suspend(tpch_tiny, "Q3", strategy, 0.9, normal.stats.duration)
        if capture is None:
            pytest.skip("query finished before suspension point")
        snapshot = Snapshot.from_capture(capture)
        assert set(snapshot.state_blobs) <= set(capture.completed_states)

    def test_process_image_round_trip(self, tpch_tiny, tmp_path):
        normal = run_normal(tpch_tiny, "Q3")
        strategy = ProcessLevelStrategy(HardwareProfile())
        _, capture, _ = suspend(tpch_tiny, "Q3", strategy, 0.5, normal.stats.duration)
        image = Snapshot.from_capture(capture, process_context_bytes=1024)
        path = tmp_path / "img"
        image.write(path)
        restored = Snapshot.read(path, "process")
        assert restored.raw_bytes == image.raw_bytes == capture.memory_bytes + 1024
        assert restored.next_morsel == image.next_morsel
        assert restored.rows_in_pipeline == image.rows_in_pipeline
        assert len(restored.local_state_blobs) == len(image.local_state_blobs)

    def test_wrong_kind_rejected(self, tpch_tiny, tmp_path):
        """A snapshot takes its kind from the capture; a strategy handed the
        other kind's capture refuses to persist it."""
        normal = run_normal(tpch_tiny, "Q3")
        pipeline = PipelineLevelStrategy(HardwareProfile())
        process = ProcessLevelStrategy(HardwareProfile())
        _, at_breaker, _ = suspend(tpch_tiny, "Q3", pipeline, 0.5, normal.stats.duration)
        _, mid_pipeline, _ = suspend(tpch_tiny, "Q3", process, 0.5, normal.stats.duration)
        assert Snapshot.from_capture(at_breaker).kind == "pipeline"
        assert Snapshot.from_capture(mid_pipeline).kind == "process"
        with pytest.raises(CriuError):
            process.persist(at_breaker, tmp_path)
        with pytest.raises(SnapshotError, match="expected a pipeline capture"):
            pipeline.persist(mid_pipeline, tmp_path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"garbage-bytes-here")
        with pytest.raises(SnapshotError):
            Snapshot.read(path, "pipeline")


class TestCriu:
    def test_resource_mismatch_rejected(self, tpch_tiny, tmp_path):
        profile = HardwareProfile(num_threads=4)
        normal = run_normal(tpch_tiny, "Q3")
        strategy = ProcessLevelStrategy(profile)
        executor, capture, _ = suspend(
            tpch_tiny, "Q3", strategy, 0.5, normal.stats.duration, profile=profile
        )
        criu = SimulatedCriu(profile)
        image = criu.dump(capture, tmp_path / "img")
        other = HardwareProfile(num_threads=2)
        with pytest.raises(CriuError, match="identical resource"):
            criu.restore(image, executor.pipelines, other, executor.plan_fingerprint)

    def test_plan_mismatch_rejected(self, tpch_tiny, tmp_path):
        profile = HardwareProfile()
        normal = run_normal(tpch_tiny, "Q3")
        strategy = ProcessLevelStrategy(profile)
        executor, capture, _ = suspend(
            tpch_tiny, "Q3", strategy, 0.5, normal.stats.duration
        )
        criu = SimulatedCriu(profile)
        image = criu.dump(capture, tmp_path / "img")
        with pytest.raises(CriuError, match="different query plan"):
            criu.restore(image, executor.pipelines, profile, "0" * 64)

    def test_missing_image(self):
        with pytest.raises(CriuError):
            SimulatedCriu.read_image("/nonexistent/image")

    def test_dump_rejects_pipeline_capture(self, tpch_tiny, tmp_path):
        normal = run_normal(tpch_tiny, "Q3")
        strategy = PipelineLevelStrategy(HardwareProfile())
        _, capture, _ = suspend(tpch_tiny, "Q3", strategy, 0.5, normal.stats.duration)
        with pytest.raises(CriuError):
            SimulatedCriu(HardwareProfile()).dump(capture, tmp_path / "img")


class TestRedoStrategy:
    def test_never_suspends(self):
        assert RedoStrategy(HardwareProfile()).make_request_controller(1.0) is None

    def test_persist_is_free(self, tpch_tiny, tmp_path):
        normal = run_normal(tpch_tiny, "Q6")
        strategy = ProcessLevelStrategy(HardwareProfile())
        _, capture, _ = suspend(tpch_tiny, "Q6", strategy, 0.5, normal.stats.duration)
        redo = RedoStrategy(HardwareProfile())
        outcome = redo.persist(capture, tmp_path)
        assert outcome.intermediate_bytes == 0
        assert outcome.persist_latency == 0.0
        assert outcome.snapshot_path is None

    def test_resume_is_fresh_run(self, tpch_tiny, tmp_path):
        redo = RedoStrategy(HardwareProfile())
        outcome = redo.prepare_resume("ignored", [], "fp")
        assert outcome.resume_state.completed_states == {}
        assert outcome.reload_latency == 0.0


@pytest.mark.parametrize("query", QUERY_NAMES)
@pytest.mark.parametrize("strategy_cls", [PipelineLevelStrategy, ProcessLevelStrategy])
def test_suspend_resume_equivalence(tpch_tiny, tmp_path, query, strategy_cls):
    """THE invariant: resume(suspend(q)) == q, for all queries and strategies."""
    profile = HardwareProfile()
    normal = run_normal(tpch_tiny, query)
    strategy = strategy_cls(profile)
    executor, capture, _ = suspend(
        tpch_tiny, query, strategy, 0.5, normal.stats.duration, profile=profile
    )
    if capture is None:
        pytest.skip("query finished before the suspension point")
    persisted = strategy.persist(capture, tmp_path)
    assert persisted.intermediate_bytes > 0
    resumed = strategy.prepare_resume(
        persisted.snapshot_path, executor.pipelines, executor.plan_fingerprint
    )
    final = QueryExecutor(
        tpch_tiny,
        build_query(query),
        profile=profile,
        clock=SimulatedClock(),
        query_name=query,
        resume=resumed.resume_state,
    ).run()
    assert_chunks_equal(normal.chunk, final.chunk)


@pytest.mark.parametrize("fraction", [0.1, 0.25, 0.4, 0.6, 0.75, 0.9])
def test_process_resume_equivalence_many_points(tpch_tiny, tmp_path, fraction):
    """Process-level suspension at many points of one join-heavy query."""
    profile = HardwareProfile()
    query = "Q9"
    normal = run_normal(tpch_tiny, query)
    strategy = ProcessLevelStrategy(profile)
    executor, capture, _ = suspend(
        tpch_tiny, query, strategy, fraction, normal.stats.duration, profile=profile
    )
    if capture is None:
        pytest.skip("query finished before the suspension point")
    persisted = strategy.persist(capture, tmp_path)
    resumed = strategy.prepare_resume(
        persisted.snapshot_path, executor.pipelines, executor.plan_fingerprint
    )
    final = QueryExecutor(
        tpch_tiny,
        build_query(query),
        profile=profile,
        query_name=query,
        resume=resumed.resume_state,
    ).run()
    assert_chunks_equal(normal.chunk, final.chunk)


def test_double_suspension_same_query(tpch_tiny, tmp_path):
    """Suspend, resume, then suspend the resumed execution again (§VI)."""
    profile = HardwareProfile()
    query = "Q5"
    normal = run_normal(tpch_tiny, query)
    strategy = PipelineLevelStrategy(profile)
    executor, capture, _ = suspend(
        tpch_tiny, query, strategy, 0.25, normal.stats.duration
    )
    if capture is None:
        pytest.skip("query finished before the first suspension")
    persisted = strategy.persist(capture, tmp_path)
    resumed = strategy.prepare_resume(
        persisted.snapshot_path, executor.pipelines, executor.plan_fingerprint
    )
    second_controller = strategy.make_request_controller(normal.stats.duration * 0.2)
    second = QueryExecutor(
        tpch_tiny,
        build_query(query),
        profile=profile,
        controller=second_controller,
        query_name=query,
        resume=resumed.resume_state,
    )
    try:
        final_chunk = second.run().chunk
    except QuerySuspended as exc:
        persisted2 = strategy.persist(exc.capture, tmp_path)
        resumed2 = strategy.prepare_resume(
            persisted2.snapshot_path, second.pipelines, second.plan_fingerprint
        )
        final_chunk = (
            QueryExecutor(
                tpch_tiny,
                build_query(query),
                profile=profile,
                query_name=query,
                resume=resumed2.resume_state,
            )
            .run()
            .chunk
        )
    assert_chunks_equal(normal.chunk, final_chunk)


def test_pipeline_resume_allows_different_worker_count(tpch_tiny, tmp_path):
    """Pipeline-level resumption may use different resources (§III-B)."""
    normal = run_normal(tpch_tiny, "Q3")
    strategy = PipelineLevelStrategy(HardwareProfile(num_threads=4))
    executor, capture, _ = suspend(
        tpch_tiny, "Q3", strategy, 0.5, normal.stats.duration,
        profile=HardwareProfile(num_threads=4),
    )
    if capture is None:
        pytest.skip("query finished before suspension")
    persisted = strategy.persist(capture, tmp_path)
    resumed = strategy.prepare_resume(
        persisted.snapshot_path, executor.pipelines, executor.plan_fingerprint
    )
    final = QueryExecutor(
        tpch_tiny,
        build_query("Q3"),
        profile=HardwareProfile(num_threads=2),  # different configuration
        query_name="Q3",
        resume=resumed.resume_state,
    ).run()
    assert_chunks_equal(normal.chunk, final.chunk)


def test_process_resume_requires_same_worker_count(tpch_tiny, tmp_path):
    normal = run_normal(tpch_tiny, "Q3")
    profile = HardwareProfile(num_threads=4)
    strategy = ProcessLevelStrategy(profile)
    executor, capture, _ = suspend(
        tpch_tiny, "Q3", strategy, 0.5, normal.stats.duration, profile=profile
    )
    persisted = strategy.persist(capture, tmp_path)
    with pytest.raises((CriuError, EngineError)):
        strategy.prepare_resume(
            persisted.snapshot_path,
            executor.pipelines,
            executor.plan_fingerprint,
            profile=HardwareProfile(num_threads=2),
        )


def test_suspension_action_flags(tpch_tiny):
    """Pipeline-level action is illegal at a morsel boundary."""
    from repro.engine.controller import ExecutionController

    class Bad(ExecutionController):
        def on_morsel_boundary(self, context):
            return Action.SUSPEND_PIPELINE

    with pytest.raises(EngineError, match="only legal at a pipeline breaker"):
        QueryExecutor(tpch_tiny, build_query("Q6"), controller=Bad()).run()
