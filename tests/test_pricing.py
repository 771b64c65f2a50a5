"""Price-aware execution: suspend through spot-price spikes (§I).

A budget turns a price trace into the windows a worker may run in
(:meth:`PriceTrace.affordable`); a one-worker fleet runs the query over
them, and the pay-through baseline is the same fleet with no trace.  Both
are billed by the fleet's own :func:`dollars_for_slices`.
"""

import signal

import pytest

from repro.cloud.environment import PriceTrace
from repro.fleet import FleetCluster, QueryArrival, fleet_report, make_policy
from repro.fleet.slo import dollars_for_slices
from repro.obs.handle import Obs
from repro.obs.metrics import MetricsRegistry

BUDGET = 10.0
HORIZON = 60.0
QUERY = "Q9"  # 3.0 virtual seconds at SF-0.002


def spiky_trace(segment_seconds=1.5, seed=3):
    """Roughly half the segments spike to 300× the base price."""
    return PriceTrace(
        base_price=1.0,
        spike_multiplier=300.0,
        spike_probability=0.5,
        segment_seconds=segment_seconds,
        seed=seed,
    )


def run(catalog, tmp_path, prices, budgeted, query=QUERY, at=0.0, fidelity="engine", obs=None):
    """``(cluster, result, dollars)`` of one query on a one-worker fleet."""
    cluster = FleetCluster(
        catalog,
        make_policy("suspend-aware"),
        workers=1,
        snapshot_dir=tmp_path / f"{budgeted}-{fidelity}",
        fidelity=fidelity,
        obs=obs,
    )
    arrivals = [QueryArrival(query, "spot", "analytic", query, at, False, 1.0, 1.0)]
    if budgeted:
        result = cluster.run(
            arrivals, HORIZON, availability=[prices.affordable(BUDGET, HORIZON)]
        )
    else:
        result = cluster.run(arrivals, 0.0)
    assert result.result_mismatches == 0
    return cluster, result, dollars_for_slices(result.workers[0].run_slices, prices)


def segments_of(prices, start, end):
    """Indices of the price segments ``[start, end)`` touches."""
    step = prices.segment_seconds
    first = int(start // step)
    return range(first, max(first + 1, int(-(-end // step))))


class TestPriceTrace:
    def test_price_at_is_the_segment_price(self):
        prices = spiky_trace()
        for index in range(40):
            middle = (index + 0.5) * prices.segment_seconds
            assert prices.price_at(middle) == prices.segment_price(index)

    def test_affordable_windows_are_maximal_cheap_runs(self):
        prices = spiky_trace()
        trace = prices.affordable(BUDGET, HORIZON)
        step = prices.segment_seconds
        cheap = {
            index
            for window in trace.windows
            for index in range(round(window.start / step), round(window.end / step))
        }
        expected = {
            index
            for index in range(int(HORIZON / step))
            if prices.segment_price(index) <= BUDGET
        }
        assert cheap == expected
        for before, after in zip(trace.windows, trace.windows[1:]):
            assert after.start > before.end  # maximal: a spike separates them


class TestBudgetedExecution:
    def test_completes_with_correct_result(self, tpch_tiny, tmp_path):
        _, result, _ = run(tpch_tiny, tmp_path, spiky_trace(), budgeted=True)
        assert result.completions[0].finished_at < HORIZON

    def test_pipeline_level_bounded_spike_exposure(self, tpch_tiny, tmp_path):
        """The budget is strict before the horizon: a slice that cannot
        reach a breaker before a spike loses its progress instead of
        running through it, so no busy second is billed above budget."""
        prices = spiky_trace()
        _, result, _ = run(tpch_tiny, tmp_path, prices, budgeted=True)
        for start, end, _ in result.workers[0].run_slices:
            assert end <= HORIZON
            for index in segments_of(prices, start, end):
                assert prices.segment_price(index) <= BUDGET

    def test_cheaper_than_running_through(self, tpch_tiny, tmp_path):
        prices = spiky_trace()
        _, _, budgeted = run(tpch_tiny, tmp_path, prices, budgeted=True)
        _, _, baseline = run(tpch_tiny, tmp_path, prices, budgeted=False)
        assert budgeted < baseline

    def test_but_slower_in_wall_clock(self, tpch_tiny, tmp_path):
        prices = spiky_trace()
        _, budgeted, _ = run(tpch_tiny, tmp_path, prices, budgeted=True)
        _, baseline, _ = run(tpch_tiny, tmp_path, prices, budgeted=False)
        # The latency/cost trade-off the paper motivates: deferring work
        # to cheap segments cannot finish earlier than paying through.
        assert budgeted.completions[0].finished_at >= baseline.completions[0].finished_at

    def test_suspensions_recorded(self, tpch_tiny, tmp_path):
        _, result, _ = run(tpch_tiny, tmp_path, spiky_trace(), budgeted=True)
        # The first spike lands inside Q9: it suspends at a breaker before.
        assert result.completions[0].suspensions >= 1

    def test_starts_in_affordable_segment(self, tpch_tiny, tmp_path):
        prices = spiky_trace()
        # Arrive exactly at the start of the first spiking segment.
        index = 0
        while prices.segment_price(index) <= BUDGET:
            index += 1
        spike_start = index * prices.segment_seconds
        _, result, _ = run(tpch_tiny, tmp_path, prices, budgeted=True, at=spike_start)
        first_start = result.workers[0].run_slices[0][0]
        window = next(
            w for w in prices.affordable(BUDGET, HORIZON).windows if w.start > spike_start
        )
        assert first_start == window.start
        assert prices.price_at(first_start) <= BUDGET

    def test_accounting_covers_busy_time(self, tpch_tiny, tmp_path):
        prices = spiky_trace()
        _, result, dollars = run(tpch_tiny, tmp_path, prices, budgeted=True)
        # Every busy second is billed, all of them at the base price.
        assert dollars == pytest.approx(
            result.workers[0].busy_seconds / 3600.0 * prices.base_price, rel=1e-9
        )

    def test_busy_time_and_dollars_include_every_reload(self, tpch_tiny, tmp_path):
        """Resuming is not free: each slice pays its reload (paper Eq. 3)."""
        metrics = MetricsRegistry()
        prices = spiky_trace()
        cluster, result, dollars = run(
            tpch_tiny, tmp_path, prices, budgeted=True, obs=Obs(metrics=metrics)
        )
        done = result.completions[0]
        reloads = metrics.histogram("reload_latency_seconds")
        persists = metrics.histogram("persist_latency_seconds")
        assert done.lost_segments == 0
        assert reloads.count == done.suspensions >= 1
        assert reloads.total > 0
        busy = cluster.measure(QUERY)[0] + persists.total + reloads.total
        assert result.workers[0].busy_seconds == pytest.approx(busy, rel=1e-9)
        assert dollars == pytest.approx(busy / 3600.0 * prices.base_price, rel=1e-9)

    def test_unaffordable_everywhere_raises(self):
        prices = PriceTrace(
            base_price=100.0, spike_multiplier=1.0, spike_probability=0.0,
            segment_seconds=2.0,
        )
        with pytest.raises(ValueError, match="no segment"):
            prices.affordable(1.0, HORIZON)

    def test_baseline_pays_spikes(self, tpch_tiny, tmp_path):
        prices = spiky_trace()
        _, result, _ = run(tpch_tiny, tmp_path, prices, budgeted=False)
        ((start, end, _),) = result.workers[0].run_slices
        assert any(
            prices.segment_price(index) > BUDGET for index in segments_of(prices, start, end)
        )

    def test_macro_replays_the_engine_over_an_affordable_trace(self, tpch_tiny, tmp_path):
        prices = spiky_trace(segment_seconds=1.0)  # lost windows and suspensions
        reports = {
            fidelity: fleet_report(
                run(tpch_tiny, tmp_path, prices, budgeted=True, query="Q3",
                    fidelity=fidelity)[1],
                prices,
            )
            for fidelity in ("engine", "macro")
        }
        assert reports["engine"] == reports["macro"]
        assert reports["engine"]["totals"]["lost_segments"] > 0


class TestDollarsForSlices:
    def test_walk_never_stalls_on_a_segment_boundary(self):
        """``(k * step) // step`` floors back to ``k - 1`` for this step at
        k = 5, 7, 10, …: a walk that re-derived the segment from the
        boundary time stalled there forever."""
        prices = PriceTrace(
            base_price=1.0, spike_multiplier=300.0, spike_probability=0.5,
            segment_seconds=9.80127 / 5, seed=9,
        )
        step = prices.segment_seconds
        assert (5 * step) // step == 4

        def stalled(signum, frame):
            raise TimeoutError("dollars_for_slices stalled on a segment boundary")

        previous = signal.signal(signal.SIGALRM, stalled)
        signal.alarm(10)
        try:
            dollars = dollars_for_slices([(0.0, 12.0, "q")], prices)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        expected = sum(
            (min(12.0, (k + 1) * step) - k * step) / 3600.0 * prices.segment_price(k)
            for k in range(7)
        )
        assert dollars == pytest.approx(expected, rel=1e-12)
