"""repro.fleet: workload generation, admission, cluster, SLO reporting."""

import json

import pytest

from repro.fleet import (
    AdmissionController,
    FleetCluster,
    FleetRejected,
    generate_workload,
    make_policy,
    make_tenants,
    fleet_report,
    report_to_json,
)
from repro.fleet.cluster import MIN_SLICE_SECONDS, _availability_windows
from repro.fleet.slo import dollars_for_slices, latency_stats, percentile
from repro.fleet.workload import TENANT_CLASSES, QueryArrival
from repro.cloud.availability import AvailabilityTrace, AvailabilityWindow
from repro.cloud.environment import PriceTrace
from repro.cloud.segments import SEGMENT_PHASES
from repro.obs.audit import DecisionJournal
from repro.obs.handle import Obs
from repro.obs.export import trace_to_chrome, validate_chrome_trace
from repro.obs.trace import Tracer


def small_workload(tenants=3, duration=600.0, seed=42):
    roster = make_tenants(tenants, seed)
    return roster, generate_workload(roster, duration, seed)


def run_fleet(
    catalog,
    tmp_path,
    policy="suspend-aware",
    tenants=3,
    duration=600.0,
    seed=42,
    workers=2,
    queue_depth=8,
    mean_on=180.0,
    mean_off=30.0,
    journal=None,
    memory_budget=None,
    fidelity="engine",
    availability=None,
):
    _, arrivals = small_workload(tenants, duration, seed)
    cluster = FleetCluster(
        catalog,
        make_policy(policy),
        workers=workers,
        seed=seed,
        admission=AdmissionController(
            max_queue_depth=queue_depth,
            memory_budget_bytes=memory_budget,
            obs=Obs(journal=journal),
        ),
        snapshot_dir=tmp_path / f"snap-{policy}-{seed}",
        mean_on_seconds=mean_on,
        mean_off_seconds=mean_off,
        obs=Obs(journal=journal),
        fidelity=fidelity,
    )
    return cluster.run(arrivals, duration, availability=availability)


class TestWorkload:
    def test_roster_cycles_classes(self):
        roster = make_tenants(6, 42)
        assert [t.klass for t in roster] == [
            "interactive", "analytic", "batch",
            "interactive", "analytic", "batch",
        ]

    def test_same_seed_same_workload(self):
        _, a = small_workload(seed=7)
        _, b = small_workload(seed=7)
        assert [q.to_json() for q in a] == [q.to_json() for q in b]

    def test_different_seed_different_workload(self):
        _, a = small_workload(seed=7)
        _, b = small_workload(seed=8)
        assert [q.to_json() for q in a] != [q.to_json() for q in b]

    def test_arrivals_sorted_and_within_horizon(self):
        _, arrivals = small_workload(duration=300.0)
        times = [a.arrival_time for a in arrivals]
        assert times == sorted(times)
        assert all(0.0 <= t < 300.0 for t in times)

    def test_names_unique_and_path_safe(self):
        _, arrivals = small_workload()
        names = [a.name for a in arrivals]
        assert len(set(names)) == len(names)
        assert all("/" not in name for name in names)

    def test_queries_come_from_class_mix(self):
        roster, arrivals = small_workload()
        mixes = {t.name: set(t.queries) for t in roster}
        for arrival in arrivals:
            assert arrival.query in mixes[arrival.tenant]

    def test_interactive_flag_follows_class(self):
        _, arrivals = small_workload()
        for arrival in arrivals:
            assert arrival.interactive == (arrival.tenant_class == "interactive")

    def test_tenant_count_validation(self):
        with pytest.raises(ValueError):
            make_tenants(0, 42)

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            generate_workload(make_tenants(1, 42), 0.0, 42)

    def test_class_catalog_uses_known_queries(self):
        from repro.tpch import QUERY_NAMES

        for spec in TENANT_CLASSES.values():
            assert set(spec["queries"]) <= set(QUERY_NAMES)
            assert len(spec["weights"]) == len(spec["queries"])


class TestAdmission:
    def arrival(self, name="t0-interactive:000:Q6", query="Q6", at=1.0):
        from repro.fleet.workload import QueryArrival

        return QueryArrival(
            name=name, tenant="t0-interactive", tenant_class="interactive",
            query=query, arrival_time=at, interactive=True,
            slo_factor=3.0, weight=4.0,
        )

    def test_admits_under_depth(self):
        controller = AdmissionController(max_queue_depth=2)
        assert controller.admit(self.arrival(), queue_depth=1) is None
        assert controller.rejections == []

    def test_sheds_at_depth(self):
        controller = AdmissionController(max_queue_depth=2)
        rejected = controller.admit(self.arrival(), queue_depth=2)
        assert isinstance(rejected, FleetRejected)
        assert rejected.reason == "queue_full"

    def test_memory_cap_sheds(self):
        controller = AdmissionController(
            max_queue_depth=8, memory_budget_bytes=100,
            peak_memory={"Q6": 1000},
        )
        rejected = controller.admit(self.arrival(), queue_depth=0)
        assert rejected.reason == "memory"

    def test_journal_records_verdicts(self):
        journal = DecisionJournal()
        controller = AdmissionController(max_queue_depth=1, obs=Obs(journal=journal))
        controller.admit(self.arrival(), queue_depth=0)
        controller.admit(self.arrival(name="x:001:Q6"), queue_depth=1)
        kinds = [(r.payload["admitted"]) for r in journal.by_kind("admission")]
        assert kinds == [True, False]

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=0)

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            make_policy("round-robin")


class TestCluster:
    def test_all_admitted_queries_complete(self, tpch_tiny, tmp_path):
        result = run_fleet(tpch_tiny, tmp_path)
        assert len(result.completions) + len(result.rejections) == 54
        assert result.rejections == []

    def test_no_overlapping_run_segments_per_worker(self, tpch_tiny, tmp_path):
        for policy in ("fifo", "suspend-aware", "fair-share"):
            result = run_fleet(tpch_tiny, tmp_path, policy=policy, seed=7)
            for worker in result.workers:
                slices = sorted(worker.run_slices)
                for (s1, e1, q1), (s2, e2, q2) in zip(slices, slices[1:]):
                    assert e1 <= s2 + 1e-9, (
                        f"{policy}: worker {worker.worker} overlaps "
                        f"{q1}[{s1},{e1}] with {q2}[{s2},{e2}]"
                    )

    def test_segments_tile_arrival_to_finish(self, tpch_tiny, tmp_path):
        result = run_fleet(tpch_tiny, tmp_path)
        for completion in result.completions:
            segments = completion.segments
            assert segments[0]["start"] == pytest.approx(completion.arrival_time)
            assert segments[-1]["end"] == pytest.approx(completion.finished_at)
            for before, after in zip(segments, segments[1:]):
                assert before["end"] == pytest.approx(after["start"])

    def test_suspend_aware_beats_fifo_on_interactive_p95(self, tpch_tiny, tmp_path):
        fifo = run_fleet(tpch_tiny, tmp_path, policy="fifo")
        adaptive = run_fleet(tpch_tiny, tmp_path, policy="suspend-aware")

        def p95(result):
            return percentile(
                [c.latency for c in result.completions if c.interactive], 0.95
            )

        assert p95(adaptive) < p95(fifo)

    def test_fifo_never_suspends(self, tpch_tiny, tmp_path):
        result = run_fleet(tpch_tiny, tmp_path, policy="fifo")
        assert all(c.suspensions == 0 for c in result.completions)

    def test_suspend_aware_records_snapshot_bytes(self, tpch_tiny, tmp_path):
        result = run_fleet(tpch_tiny, tmp_path, policy="suspend-aware")
        suspended = [c for c in result.completions if c.suspensions]
        assert suspended
        assert all(c.persisted_bytes > 0 for c in suspended)

    def test_same_seed_byte_identical_report_and_journal(self, tpch_tiny, tmp_path):
        blobs = []
        for run in range(2):
            journal = DecisionJournal()
            result = run_fleet(
                tpch_tiny, tmp_path / f"r{run}", seed=7, journal=journal
            )
            blobs.append(
                (report_to_json(fleet_report(result)), journal.to_jsonl())
            )
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]

    def test_deterministic_admission_rejections(self, tpch_tiny, tmp_path):
        runs = [
            run_fleet(
                tpch_tiny, tmp_path / f"q{run}", policy="fifo",
                workers=1, queue_depth=2, seed=7,
            )
            for run in range(2)
        ]
        assert [r.to_json() for r in runs[0].rejections]
        assert (
            [r.to_json() for r in runs[0].rejections]
            == [r.to_json() for r in runs[1].rejections]
        )

    def test_memory_budget_sheds_heavy_queries(self, tpch_tiny, tmp_path):
        result = run_fleet(tpch_tiny, tmp_path, memory_budget=50_000, seed=7)
        reasons = {r.reason for r in result.rejections}
        assert "memory" in reasons

    def test_reclamations_preserve_progress_with_snapshots(self, tpch_tiny, tmp_path):
        journal = DecisionJournal()
        result = run_fleet(
            tpch_tiny, tmp_path, tenants=4, duration=900.0, seed=7,
            mean_on=60.0, mean_off=20.0, journal=journal,
        )
        assert sum(w.reclamations for w in result.workers) > 0
        assert journal.by_kind("reclamation")
        # Everything still completes: beyond the trace the workers stay up.
        assert len(result.completions) + len(result.rejections) == len(
            generate_workload(make_tenants(4, 7), 900.0, 7)
        )

    def test_worker_count_validation(self, tpch_tiny):
        with pytest.raises(ValueError):
            FleetCluster(tpch_tiny, make_policy("fifo"), workers=0)


class TestAvailabilityInput:
    """``run(..., availability=)``: one trace per worker, or the seeded ones."""

    @pytest.mark.parametrize("fidelity", ["engine", "macro"])
    def test_seeded_traces_given_explicitly_change_no_byte(
        self, tpch_tiny, tmp_path, fidelity
    ):
        artifacts = []
        for label, availability in (
            ("default", None),
            (
                "given",
                [_availability_windows(7, wid, 600.0, 60.0, 20.0) for wid in range(2)],
            ),
        ):
            journal = DecisionJournal()
            result = run_fleet(
                tpch_tiny, tmp_path / label, seed=7, mean_on=60.0, mean_off=20.0,
                journal=journal, fidelity=fidelity, availability=availability,
            )
            assert sum(w.reclamations for w in result.workers) > 0
            artifacts.append((report_to_json(fleet_report(result)), journal.to_jsonl()))
        assert artifacts[0] == artifacts[1]

    def test_one_trace_per_worker(self, tpch_tiny, tmp_path):
        trace = AvailabilityTrace.periodic(10.0, 1.0, 3)
        with pytest.raises(ValueError, match="one availability trace per worker"):
            run_fleet(tpch_tiny, tmp_path, workers=2, availability=[trace])

    @pytest.mark.parametrize("fidelity", ["engine", "macro"])
    def test_windows_narrower_than_a_slice_are_skipped(self, tpch_tiny, tmp_path, fidelity):
        narrow = MIN_SLICE_SECONDS / 2
        trace = AvailabilityTrace(
            [AvailabilityWindow(k * 1.0, k * 1.0 + narrow) for k in range(5)]
            + [AvailabilityWindow(10.0, 40.0)]
        )
        cluster = FleetCluster(
            tpch_tiny, make_policy("suspend-aware"), workers=1,
            snapshot_dir=tmp_path, fidelity=fidelity,
        )
        arrival = QueryArrival("q", "t", "analytic", "Q6", 0.0, False, 1.0, 1.0)
        result = cluster.run([arrival], 40.0, availability=[trace])
        done = result.completions[0]
        assert done.lost_segments == 0
        assert result.workers[0].run_slices == [(10.0, done.finished_at, "q")]


class TestSlo:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.95) == 4.0
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 1.5)

    def test_latency_stats_empty(self):
        assert latency_stats([])["count"] == 0

    def test_dollars_split_at_segment_boundaries(self):
        prices = PriceTrace(
            base_price=1.0, spike_multiplier=10.0, spike_probability=0.0,
            segment_seconds=60.0,
        )
        # 90 busy seconds at $1/h.
        dollars = dollars_for_slices([(30.0, 120.0, "q")], prices)
        assert dollars == pytest.approx(90.0 / 3600.0)

    def test_rejections_count_as_slo_misses(self, tpch_tiny, tmp_path):
        result = run_fleet(
            tpch_tiny, tmp_path, policy="fifo", workers=1, queue_depth=2, seed=7
        )
        report = fleet_report(result)
        assert report["totals"]["rejected"] > 0
        assert (
            report["slo"]["attained"] + report["slo"]["missed"]
            == report["totals"]["arrivals"]
        )
        assert report["slo"]["missed"] >= report["totals"]["rejected"]


class TestReport:
    def test_report_round_trips_as_json(self, tpch_tiny, tmp_path):
        report = fleet_report(run_fleet(tpch_tiny, tmp_path))
        parsed = json.loads(report_to_json(report))
        assert parsed["format"] == "riveter-fleet/1"
        assert parsed["totals"]["completed"] == len(report["completions"])

    def test_report_has_class_breakdown(self, tpch_tiny, tmp_path):
        report = fleet_report(run_fleet(tpch_tiny, tmp_path))
        assert set(report["classes"]) == {"interactive", "analytic", "batch"}

    def test_result_exports_to_chrome_trace(self, tpch_tiny, tmp_path):
        tracer = Tracer()
        _, arrivals = small_workload()
        result = FleetCluster(
            tpch_tiny, make_policy("suspend-aware"), snapshot_dir=tmp_path,
            obs=Obs(tracer=tracer),
        ).run(arrivals, 600.0)
        payload = trace_to_chrome(tracer)
        validate_chrome_trace(payload)
        lanes = {
            e["args"]["name"]: e["tid"] for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # Each query's lane carries its phase segments, in order.
        for completion in result.completions:
            tid = lanes[f"query:{completion.name}"]
            assert [
                e["name"] for e in payload["traceEvents"]
                if e["tid"] == tid and e["ph"] == "X" and e["name"] in SEGMENT_PHASES
            ] == [s["phase"] for s in completion.segments]

    def test_format_fleet_report_text(self, tpch_tiny, tmp_path):
        from repro.fleet import format_fleet_report

        text = format_fleet_report(fleet_report(run_fleet(tpch_tiny, tmp_path)))
        assert "SLO attainment" in text
        assert "interactive" in text
