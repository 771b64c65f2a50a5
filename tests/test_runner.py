"""QueryRunner semantics: forced strategies and adaptive mode."""

import pytest

from repro.cloud.environment import EphemeralEnvironment, PriceTrace
from repro.cloud.events import sample_events
from repro.cloud.runner import QueryRunner, make_strategy
from repro.costmodel.selector import AdaptiveStrategySelector
from repro.costmodel.termination import TerminationProfile
from repro.engine.profile import HardwareProfile
from repro.tpch import build_query

from tests.conftest import assert_chunks_equal


@pytest.fixture()
def runner(tpch_tiny, tmp_path):
    return QueryRunner(tpch_tiny, HardwareProfile(), snapshot_dir=tmp_path)


@pytest.fixture()
def q3_normal(runner):
    return runner.measure_normal(build_query("Q3"), "Q3")


class TestForced:
    def test_no_threat_no_overhead(self, runner, q3_normal):
        normal_time = q3_normal.stats.duration
        outcome = runner.run_forced(
            build_query("Q3"), "Q3", "redo", normal_time, None, normal_time * 0.5
        )
        assert not outcome.terminated and not outcome.suspended
        assert outcome.overhead == pytest.approx(0.0, abs=1e-6)

    def test_redo_pays_termination_time(self, runner, q3_normal):
        normal_time = q3_normal.stats.duration
        tau = normal_time * 0.4
        outcome = runner.run_forced(
            build_query("Q3"), "Q3", "redo", normal_time, tau, 0.0
        )
        assert outcome.terminated
        # Total busy = wasted time until tau + a full re-run.
        assert outcome.busy_time == pytest.approx(tau + normal_time, rel=0.02)
        assert_chunks_equal(q3_normal.chunk, outcome.result.chunk)

    def test_pipeline_success_overhead_is_persist_reload(self, runner, q3_normal):
        normal_time = q3_normal.stats.duration
        outcome = runner.run_forced(
            build_query("Q3"), "Q3", "pipeline", normal_time, normal_time * 10, normal_time * 0.05
        )
        assert outcome.suspended and not outcome.suspension_failed
        assert outcome.overhead == pytest.approx(
            outcome.persist_latency + outcome.reload_latency, rel=0.05, abs=0.01
        )
        assert_chunks_equal(q3_normal.chunk, outcome.result.chunk)

    def test_process_success(self, runner, q3_normal):
        normal_time = q3_normal.stats.duration
        outcome = runner.run_forced(
            build_query("Q3"), "Q3", "process", normal_time, normal_time * 10, normal_time * 0.5
        )
        assert outcome.suspended and not outcome.suspension_failed
        assert outcome.intermediate_bytes > 0
        assert_chunks_equal(q3_normal.chunk, outcome.result.chunk)

    def test_failed_suspension_falls_back_to_redo(self, runner, q3_normal):
        """Kill arrives during persistence → progress lost, full re-run."""
        normal_time = q3_normal.stats.duration
        outcome = runner.run_forced(
            build_query("Q3"),
            "Q3",
            "process",
            normal_time,
            normal_time * 0.5 + 1e-9,  # lands immediately after the suspension point
            normal_time * 0.5,
        )
        if outcome.suspended:
            assert outcome.suspension_failed
            assert outcome.terminated
        assert_chunks_equal(q3_normal.chunk, outcome.result.chunk)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(KeyError):
            make_strategy("bogus", HardwareProfile())


class TestAdaptive:
    def _selector(self, normal_time, window, probability=1.0):
        return AdaptiveStrategySelector(
            profile=HardwareProfile(),
            termination=TerminationProfile.from_fractions(
                normal_time, window[0], window[1], probability
            ),
            process_size_estimator=lambda f: 1e5 * f,
            estimated_total_time=normal_time,
        )

    def test_adaptive_completes_correctly(self, runner, q3_normal):
        normal_time = q3_normal.stats.duration
        selector = self._selector(normal_time, (0.25, 0.5))
        outcome = runner.run_adaptive(
            build_query("Q3"), "Q3", selector, normal_time, normal_time * 0.45
        )
        assert outcome.result is not None
        assert_chunks_equal(q3_normal.chunk, outcome.result.chunk)

    def test_adaptive_records_decision(self, runner, q3_normal):
        normal_time = q3_normal.stats.duration
        selector = self._selector(normal_time, (0.25, 0.5))
        outcome = runner.run_adaptive(
            build_query("Q3"), "Q3", selector, normal_time, normal_time * 0.45
        )
        assert outcome.decision is not None
        assert outcome.strategy in ("redo", "pipeline", "process")

    def test_memory_pressure_disables_process_level(self, tpch_tiny, tmp_path, q3_normal):
        """Algorithm 1 lines 21–24: images exceeding available memory make
        the process-level strategy infinitely expensive, so the selector
        must choose another strategy."""
        from repro.engine.profile import HardwareProfile

        tight = HardwareProfile(memory_bytes=1024)  # nothing fits
        runner = QueryRunner(tpch_tiny, tight, snapshot_dir=tmp_path)
        normal_time = q3_normal.stats.duration
        selector = AdaptiveStrategySelector(
            profile=tight,
            termination=TerminationProfile.from_fractions(normal_time, 0.25, 0.5, 1.0),
            process_size_estimator=lambda f: 1e9,  # far above the budget
            estimated_total_time=normal_time,
        )
        outcome = runner.run_adaptive(
            build_query("Q3"), "Q3", selector, normal_time, normal_time * 0.45
        )
        assert outcome.strategy != "process"
        for decision in selector.decisions:
            assert decision.costs["process"].cost == float("inf")

    def test_no_threat_after_window_passes(self, runner, q3_normal):
        """With P<1 and no termination the query must finish."""
        normal_time = q3_normal.stats.duration
        selector = self._selector(normal_time, (0.25, 0.5), probability=0.3)
        outcome = runner.run_adaptive(
            build_query("Q3"), "Q3", selector, normal_time, None
        )
        assert not outcome.terminated
        assert outcome.result is not None


class TestEnvironment:
    def test_price_trace_deterministic(self):
        trace = PriceTrace(seed=5)
        assert trace.price_at(42.0) == trace.price_at(42.0)

    def test_price_spikes_exist(self):
        trace = PriceTrace(spike_probability=0.5, seed=1)
        prices = {trace.price_at(t * 60.0) for t in range(50)}
        assert len(prices) == 2  # base and spike

    def test_affordability(self):
        trace = PriceTrace(base_price=1.0, spike_probability=0.0)
        assert trace.is_affordable(0.0, budget_per_hour=2.0)
        assert not trace.is_affordable(0.0, budget_per_hour=0.5)

    def test_environment_sampling_deterministic(self):
        env = EphemeralEnvironment("spot", seed=3)
        window = TerminationProfile(0.0, 100.0, 0.5)
        assert env.sample_termination(window, 7) == env.sample_termination(window, 7)

    def test_sample_events_count_and_range(self):
        window = TerminationProfile(10.0, 20.0, 1.0)
        events = sample_events(window, 10, seed=1)
        assert len(events) == 10
        assert all(10.0 <= e.at_time <= 20.0 for e in events)

    def test_sample_events_probability_zero(self):
        window = TerminationProfile(10.0, 20.0, 0.0)
        events = sample_events(window, 5)
        assert all(not e.occurs for e in events)
