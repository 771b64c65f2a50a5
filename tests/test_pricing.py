"""Price-aware execution: suspend through spot-price spikes (§I)."""

import pytest

from repro.cloud.environment import PriceTrace
from repro.cloud.pricing import PriceAwareRunner
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.obs.handle import Obs
from repro.obs.metrics import MetricsRegistry
from repro.tpch import build_query

from tests.conftest import assert_chunks_equal


def spiky_trace(segment_seconds=0.4):
    """Roughly half the segments spike to 300× the base price."""
    return PriceTrace(
        base_price=1.0,
        spike_multiplier=300.0,
        spike_probability=0.5,
        segment_seconds=segment_seconds,
        seed=21,
    )


@pytest.fixture()
def runner(tpch_tiny, tmp_path):
    """Process-level runner: fine-grained spike avoidance."""
    return PriceAwareRunner(
        tpch_tiny,
        spiky_trace(),
        budget_per_hour=10.0,
        profile=HardwareProfile(),
        snapshot_dir=tmp_path,
        morsel_size=1024,
        strategy="process",
    )


@pytest.fixture()
def pipeline_runner(tpch_tiny, tmp_path):
    """Pipeline-level runner: breaker-grained spike avoidance."""
    return PriceAwareRunner(
        tpch_tiny,
        spiky_trace(),
        budget_per_hour=10.0,
        profile=HardwareProfile(),
        snapshot_dir=tmp_path,
        strategy="pipeline",
    )


class TestBudgetedExecution:
    def test_completes_with_correct_result(self, tpch_tiny, runner):
        normal = QueryExecutor(tpch_tiny, build_query("Q3"), query_name="Q3").run()
        outcome = runner.run_budgeted(build_query("Q3"), "Q3")
        assert outcome.result is not None
        assert_chunks_equal(normal.chunk, outcome.result.chunk)

    def test_process_level_never_pays_spike_prices(self, runner):
        outcome = runner.run_budgeted(build_query("Q3"), "Q3")
        assert all(s.price_per_hour <= runner.budget for s in outcome.segments)

    def test_pipeline_level_bounded_spike_exposure(self, tpch_tiny, pipeline_runner):
        """Breaker granularity may cross into a spike mid-pipeline, but the
        exposure stays a small fraction of the work (and far below the
        run-through baseline) — the Fig. 9/10 granularity story in terms
        of dollars."""
        outcome = pipeline_runner.run_budgeted(build_query("Q3"), "Q3")
        baseline = pipeline_runner.run_through_spikes(build_query("Q3"), "Q3")
        spike_seconds = sum(
            s.end - s.start for s in outcome.segments
            if s.price_per_hour > pipeline_runner.budget
        )
        assert spike_seconds < outcome.busy_seconds * 0.4
        assert outcome.dollars < baseline.dollars

    def test_invalid_strategy_rejected(self, tpch_tiny, tmp_path):
        with pytest.raises(ValueError):
            PriceAwareRunner(
                tpch_tiny, spiky_trace(), budget_per_hour=1.0,
                snapshot_dir=tmp_path, strategy="bogus",
            )

    def test_cheaper_than_running_through(self, runner):
        budgeted = runner.run_budgeted(build_query("Q3"), "Q3")
        baseline = runner.run_through_spikes(build_query("Q3"), "Q3")
        assert budgeted.dollars < baseline.dollars

    def test_but_slower_in_wall_clock(self, runner):
        budgeted = runner.run_budgeted(build_query("Q3"), "Q3")
        baseline = runner.run_through_spikes(build_query("Q3"), "Q3")
        # The latency/cost trade-off the paper motivates: deferring work
        # to cheap segments cannot finish earlier than paying through.
        assert budgeted.finish_wall_time >= baseline.finish_wall_time - 1e-9

    def test_suspensions_recorded(self, runner):
        outcome = runner.run_budgeted(build_query("Q3"), "Q3")
        # The trace spikes every other segment; Q3 is longer than one
        # segment, so at least one suspension is expected.
        assert outcome.suspensions >= 1

    def test_starts_in_affordable_segment(self, tpch_tiny, tmp_path):
        trace = PriceTrace(
            base_price=1.0, spike_multiplier=300.0, spike_probability=0.5,
            segment_seconds=2.0, seed=21,
        )
        runner = PriceAwareRunner(
            tpch_tiny, trace, budget_per_hour=10.0, snapshot_dir=tmp_path
        )
        # Find a spiking wall time and start exactly there.
        spike_start = 0.0
        while trace.is_affordable(spike_start, 10.0):
            spike_start += trace.segment_seconds
        outcome = runner.run_budgeted(build_query("Q6"), "Q6", start=spike_start)
        assert outcome.segments[0].start > spike_start
        assert outcome.segments[0].price_per_hour <= 10.0

    def test_accounting_covers_busy_time(self, runner):
        outcome = runner.run_budgeted(build_query("Q6"), "Q6")
        covered = sum(s.end - s.start for s in outcome.segments)
        assert covered == pytest.approx(outcome.busy_seconds, rel=1e-6)

    def test_busy_time_and_dollars_include_every_reload(self, tpch_tiny, pipeline_runner):
        """Resuming is not free: each slice pays its reload (paper Eq. 3)."""
        metrics = MetricsRegistry()
        pipeline_runner.strategy.obs = Obs(metrics=metrics)
        normal = QueryExecutor(tpch_tiny, build_query("Q3"), profile=HardwareProfile()).run()
        outcome = pipeline_runner.run_budgeted(build_query("Q3"), "Q3")
        reloads = metrics.histogram("reload_latency_seconds")
        persists = metrics.histogram("persist_latency_seconds")
        assert reloads.count == outcome.suspensions >= 1
        assert reloads.total > 0
        assert outcome.busy_seconds == pytest.approx(
            normal.stats.duration + persists.total + reloads.total, rel=1e-9
        )
        billed = sum(s.end - s.start for s in outcome.segments)
        assert billed == pytest.approx(outcome.busy_seconds, rel=1e-6)

    def test_unaffordable_everywhere_raises(self, tpch_tiny, tmp_path):
        trace = PriceTrace(
            base_price=100.0, spike_multiplier=1.0, spike_probability=0.0,
            segment_seconds=2.0,
        )
        runner = PriceAwareRunner(
            tpch_tiny, trace, budget_per_hour=1.0, snapshot_dir=tmp_path
        )
        with pytest.raises(RuntimeError, match="no affordable"):
            runner.run_budgeted(build_query("Q6"), "Q6")

    def test_baseline_pays_spikes(self, runner):
        baseline = runner.run_through_spikes(build_query("Q3"), "Q3")
        assert any(s.price_per_hour > runner.budget for s in baseline.segments)
