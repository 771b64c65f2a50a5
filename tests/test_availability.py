"""Intermittent (zero-carbon) execution across availability windows."""

import pytest

from repro.cloud.availability import (
    AvailabilityTrace,
    AvailabilityWindow,
    IntermittentRunner,
)
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.obs.handle import Obs
from repro.obs.metrics import MetricsRegistry
from repro.suspend import PipelineLevelStrategy, ProcessLevelStrategy, RedoStrategy
from repro.tpch import build_query

from tests.conftest import assert_chunks_equal


@pytest.fixture()
def profile():
    return HardwareProfile()


def make_runner(catalog, strategy_cls, tmp_path, profile):
    # Fine morsels keep "anytime" suspension granular at the tiny test scale.
    return IntermittentRunner(
        catalog,
        strategy_cls(profile),
        profile=profile,
        snapshot_dir=tmp_path,
        morsel_size=1024,
    )


class TestTrace:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            AvailabilityWindow(5.0, 5.0)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError):
            AvailabilityTrace(
                [AvailabilityWindow(0.0, 10.0), AvailabilityWindow(5.0, 15.0)]
            )

    def test_periodic(self):
        trace = AvailabilityTrace.periodic(on_seconds=10.0, off_seconds=5.0, count=3)
        assert len(trace.windows) == 3
        assert trace.windows[1].start == 15.0
        assert trace.windows[2].end == 40.0


class TestIntermittentExecution:
    def _normal(self, catalog, query, profile):
        return QueryExecutor(catalog, build_query(query), profile=profile, query_name=query).run()

    def test_single_big_window_completes_directly(self, tpch_tiny, tmp_path, profile):
        normal = self._normal(tpch_tiny, "Q3", profile)
        runner = make_runner(tpch_tiny, PipelineLevelStrategy, tmp_path, profile)
        trace = AvailabilityTrace.periodic(normal.stats.duration * 10, 1.0, 1)
        outcome = runner.run(build_query("Q3"), "Q3", trace)
        assert outcome.completed
        assert outcome.suspensions == 0
        assert_chunks_equal(normal.chunk, outcome.result.chunk)

    @pytest.mark.parametrize(
        "strategy_cls,query,window_fraction",
        [
            # Pipeline-level needs each window to fit the longest pipeline;
            # Q17's plan is made of two near-equal halves.
            (PipelineLevelStrategy, "Q17", 0.6),
            # Process-level advances through arbitrarily small windows.
            (ProcessLevelStrategy, "Q3", 0.3),
        ],
    )
    def test_multi_window_execution_completes(
        self, tpch_tiny, tmp_path, profile, strategy_cls, query, window_fraction
    ):
        normal = self._normal(tpch_tiny, query, profile)
        runner = make_runner(tpch_tiny, strategy_cls, tmp_path, profile)
        trace = AvailabilityTrace.periodic(
            normal.stats.duration * window_fraction, 10.0, 12
        )
        outcome = runner.run(build_query(query), query, trace)
        assert outcome.completed, outcome
        assert outcome.suspensions >= 1
        assert_chunks_equal(normal.chunk, outcome.result.chunk)

    def test_pipeline_level_starves_on_dominating_pipeline(self, tpch_tiny, tmp_path, profile):
        """Windows shorter than the longest pipeline: pipeline-level cannot
        advance past it, while process-level completes — the scenario the
        process-level strategy exists for."""
        normal = self._normal(tpch_tiny, "Q3", profile)
        window = normal.stats.duration * 0.4  # < the lineitem pipeline
        trace = AvailabilityTrace.periodic(window, 10.0, 10)
        pipeline = make_runner(tpch_tiny, PipelineLevelStrategy, tmp_path, profile)
        stuck = pipeline.run(build_query("Q3"), "Q3", trace)
        assert not stuck.completed
        assert stuck.lost_segments > 0
        process = make_runner(tpch_tiny, ProcessLevelStrategy, tmp_path, profile)
        done = process.run(build_query("Q3"), "Q3", trace)
        assert done.completed
        assert_chunks_equal(normal.chunk, done.result.chunk)

    def test_redo_strategy_survives_only_with_big_windows(self, tpch_tiny, tmp_path, profile):
        normal = self._normal(tpch_tiny, "Q6", profile)
        runner = make_runner(tpch_tiny, RedoStrategy, tmp_path, profile)
        # Windows shorter than the query: redo never completes.
        short = AvailabilityTrace.periodic(normal.stats.duration * 0.5, 1.0, 4)
        outcome = runner.run(build_query("Q6"), "Q6", short)
        assert not outcome.completed
        assert outcome.lost_segments == 4
        # One window long enough: completes within it.
        long = AvailabilityTrace.periodic(normal.stats.duration * 2, 1.0, 1)
        outcome = runner.run(build_query("Q6"), "Q6", long)
        assert outcome.completed

    def test_busy_time_bounded_by_windows(self, tpch_tiny, tmp_path, profile):
        normal = self._normal(tpch_tiny, "Q3", profile)
        runner = make_runner(tpch_tiny, ProcessLevelStrategy, tmp_path, profile)
        trace = AvailabilityTrace.periodic(normal.stats.duration * 0.4, 5.0, 12)
        outcome = runner.run(build_query("Q3"), "Q3", trace)
        total_capacity = sum(w.duration for w in trace.windows)
        assert outcome.busy_seconds <= total_capacity + 1e-6

    def test_busy_time_includes_every_reload(self, tpch_tiny, tmp_path, profile):
        """Each window that resumes opens with its reload, inside the window."""
        metrics = MetricsRegistry()
        normal = self._normal(tpch_tiny, "Q17", profile)
        runner = IntermittentRunner(
            tpch_tiny, PipelineLevelStrategy(profile, obs=Obs(metrics=metrics)),
            profile=profile, snapshot_dir=tmp_path, morsel_size=1024,
        )
        trace = AvailabilityTrace.periodic(normal.stats.duration * 0.6, 10.0, 12)
        outcome = runner.run(build_query("Q17"), "Q17", trace)
        reloads = metrics.histogram("reload_latency_seconds")
        persists = metrics.histogram("persist_latency_seconds")
        assert outcome.completed and outcome.lost_segments == 0
        assert reloads.count == outcome.suspensions >= 1
        assert reloads.total > 0
        assert outcome.busy_seconds == pytest.approx(
            normal.stats.duration + persists.total + reloads.total, rel=1e-9
        )
        assert all(s.busy_seconds <= s.window.duration for s in outcome.segments)

    def test_segments_recorded(self, tpch_tiny, tmp_path, profile):
        normal = self._normal(tpch_tiny, "Q3", profile)
        runner = make_runner(tpch_tiny, ProcessLevelStrategy, tmp_path, profile)
        trace = AvailabilityTrace.periodic(normal.stats.duration * 0.4, 5.0, 12)
        outcome = runner.run(build_query("Q3"), "Q3", trace)
        assert outcome.completed
        assert len(outcome.segments) >= 2
        assert any(s.suspended and not s.lost_progress for s in outcome.segments[:-1])
        assert outcome.segments[-1].lost_progress is False

    def test_finish_wall_time_in_final_window(self, tpch_tiny, tmp_path, profile):
        normal = self._normal(tpch_tiny, "Q3", profile)
        runner = make_runner(tpch_tiny, ProcessLevelStrategy, tmp_path, profile)
        trace = AvailabilityTrace.periodic(normal.stats.duration * 0.4, 5.0, 12)
        outcome = runner.run(build_query("Q3"), "Q3", trace)
        assert outcome.completed
        final = outcome.segments[-1].window
        assert final.start <= outcome.finish_wall_time <= final.end + 1e-6
