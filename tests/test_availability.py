"""Intermittent (zero-carbon) execution: a one-worker fleet over a trace."""

import pytest

from repro.cloud.availability import AvailabilityTrace, AvailabilityWindow
from repro.fleet import FleetCluster, QueryArrival, fleet_report, make_policy
from repro.obs.handle import Obs
from repro.obs.metrics import MetricsRegistry


def arrival(query, at=0.0):
    return QueryArrival(query, "green", "analytic", query, at, False, 1.0, 1.0)


def run_trace(
    catalog, tmp_path, query, trace, policy="suspend-aware", fidelity="engine", obs=None
):
    """Run *query* alone on one worker over *trace*."""
    cluster = FleetCluster(
        catalog,
        make_policy(policy),
        workers=1,
        snapshot_dir=tmp_path / f"{policy}-{fidelity}",
        fidelity=fidelity,
        obs=obs,
    )
    result = cluster.run([arrival(query)], trace.windows[-1].end, availability=[trace])
    assert result.result_mismatches == 0
    return cluster, result


def normal_time(cluster, query):
    return cluster.measure(query)[0]


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
    """SF-0.002 plans run 1.2–3 virtual seconds, so windows are absolute
    lengths: the fleet skips any window under ``MIN_SLICE_SECONDS``."""

    def test_single_big_window_completes_directly(self, tpch_tiny, tmp_path):
        trace = AvailabilityTrace.periodic(30.0, 1.0, 1)
        cluster, result = run_trace(tpch_tiny, tmp_path, "Q3", trace)
        done = result.completions[0]
        assert done.suspensions == 0 and done.lost_segments == 0
        assert done.finished_at == normal_time(cluster, "Q3")

    def test_multi_window_execution_completes(self, tpch_tiny, tmp_path):
        # Q17 is two near-equal halves of ~1.25 s: one per 1.5 s window.
        trace = AvailabilityTrace.periodic(1.5, 10.0, 12)
        _, result = run_trace(tpch_tiny, tmp_path, "Q17", trace)
        done = result.completions[0]
        assert done.suspensions >= 1
        assert done.finished_at <= trace.windows[-1].end

    def test_pipeline_level_starves_on_dominating_pipeline(self, tpch_tiny, tmp_path):
        """Windows shorter than Q3's 1.4 s lineitem pipeline: the mean pace
        of the short pipelines before it never forecasts the outage, so
        every window is lost and the query finishes only once the forecast
        ends."""
        trace = AvailabilityTrace.periodic(1.2, 10.0, 6)
        cluster, result = run_trace(tpch_tiny, tmp_path, "Q3", trace)
        done = result.completions[0]
        assert done.lost_segments == len(trace.windows)
        assert done.finished_at == pytest.approx(
            trace.windows[-1].end + normal_time(cluster, "Q3"), rel=1e-12
        )

    def test_redo_strategy_survives_only_with_big_windows(self, tpch_tiny, tmp_path):
        """FIFO has no deadline controller: a window shorter than the query
        loses its progress and the next one starts over (redo)."""
        short = AvailabilityTrace.periodic(1.5, 1.0, 4)  # Q9 runs 3.0 s
        cluster, result = run_trace(tpch_tiny, tmp_path, "Q9", short, policy="fifo")
        done = result.completions[0]
        assert done.suspensions == 0
        assert done.lost_segments == 4
        assert done.finished_at == pytest.approx(
            short.windows[-1].end + normal_time(cluster, "Q9"), rel=1e-12
        )
        long = AvailabilityTrace.periodic(6.0, 1.0, 1)
        _, result = run_trace(tpch_tiny, tmp_path / "long", "Q9", long, policy="fifo")
        assert result.completions[0].lost_segments == 0

    def test_busy_time_bounded_by_windows(self, tpch_tiny, tmp_path):
        trace = AvailabilityTrace.periodic(1.5, 10.0, 12)
        _, result = run_trace(tpch_tiny, tmp_path, "Q17", trace)
        worker = result.workers[0]
        for start, end, _ in worker.run_slices:
            assert any(w.start <= start and end <= w.end for w in trace.windows)
        assert worker.busy_seconds <= sum(w.duration for w in trace.windows)

    def test_busy_time_includes_every_reload(self, tpch_tiny, tmp_path):
        """Each window that resumes opens with its reload, inside the window."""
        metrics = MetricsRegistry()
        trace = AvailabilityTrace.periodic(1.5, 10.0, 12)
        cluster, result = run_trace(
            tpch_tiny, tmp_path, "Q17", trace, obs=Obs(metrics=metrics)
        )
        done = result.completions[0]
        reloads = metrics.histogram("reload_latency_seconds")
        persists = metrics.histogram("persist_latency_seconds")
        assert done.lost_segments == 0
        assert reloads.count == done.suspensions >= 1
        assert reloads.total > 0
        assert result.workers[0].busy_seconds == pytest.approx(
            normal_time(cluster, "Q17") + persists.total + reloads.total, rel=1e-9
        )

    def test_segments_recorded(self, tpch_tiny, tmp_path):
        trace = AvailabilityTrace.periodic(1.5, 10.0, 12)
        _, result = run_trace(tpch_tiny, tmp_path, "Q17", trace)
        done = result.completions[0]
        phases = [segment["phase"] for segment in done.segments]
        assert phases.count("run") >= 2
        assert "suspended" in phases
        assert phases[-1] == "run"
        assert all(s["worker"] == 0 for s in done.segments if s["phase"] == "run")

    def test_finish_wall_time_in_final_window(self, tpch_tiny, tmp_path):
        trace = AvailabilityTrace.periodic(1.5, 10.0, 12)
        _, result = run_trace(tpch_tiny, tmp_path, "Q17", trace)
        finished = result.completions[0].finished_at
        assert any(w.start <= finished <= w.end for w in trace.windows)

    @pytest.mark.parametrize("policy", ["fifo", "suspend-aware"])
    def test_macro_replays_the_engine_over_a_trace(self, tpch_tiny, tmp_path, policy):
        trace = AvailabilityTrace.periodic(1.3, 2.0, 8)
        reports = {
            fidelity: fleet_report(
                run_trace(tpch_tiny, tmp_path, "Q9", trace, policy, fidelity)[1]
            )
            for fidelity in ("engine", "macro")
        }
        assert reports["engine"] == reports["macro"]
