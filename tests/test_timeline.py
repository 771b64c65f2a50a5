"""repro.obs.timeline: lifecycle span trees, rollups, SLO burn, dashboard."""

import json

import pytest

from repro.fleet import (
    AdmissionController,
    FleetCluster,
    SLOMonitor,
    fleet_report,
    format_fleet_report,
    generate_workload,
    make_policy,
    make_tenants,
    record_fleet_timeline,
    worker_utilization,
)
from repro.obs.audit import DecisionJournal
from repro.obs.dashboard import render_report, sparkline
from repro.obs.export import counter_track_events, trace_to_chrome, validate_chrome_trace
from repro.obs.handle import Obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import (
    TIMELINE_FORMAT,
    QueryLifecycle,
    Timeline,
    TimelineRecorder,
    derive_span_id,
    derive_trace_id,
    validate_span_tree,
)
from repro.obs.trace import Tracer


class TestDeriveIds:
    def test_trace_id_deterministic_and_distinct(self):
        assert derive_trace_id("Q1") == derive_trace_id("Q1")
        assert derive_trace_id("Q1") != derive_trace_id("Q2")
        assert len(derive_trace_id("Q1")) == 16

    def test_span_id_depends_on_trace_and_index(self):
        trace = derive_trace_id("Q1")
        assert derive_span_id(trace, 0) == derive_span_id(trace, 0)
        assert derive_span_id(trace, 0) != derive_span_id(trace, 1)
        assert derive_span_id(trace, 0) != derive_span_id(derive_trace_id("Q2"), 0)
        assert len(derive_span_id(trace, 0)) == 12


class TestQueryLifecycle:
    def test_root_spans_arrival_to_finish(self):
        recorder = TimelineRecorder()
        lifecycle = QueryLifecycle("q", 5.0, Obs(recorder=recorder), tenant="t0")
        lifecycle.finish(9.0, outcome="done")
        (root,) = recorder.spans
        assert root["span_id"] == lifecycle.root_id
        assert root["parent_id"] is None
        assert root["ts"] == 5.0
        assert root["dur"] == 4.0
        assert root["args"] == {"tenant": "t0", "outcome": "done"}

    def test_instants_default_to_current_slice_then_root(self):
        recorder = TimelineRecorder()
        lifecycle = QueryLifecycle("q", 0.0, Obs(recorder=recorder))
        outside = lifecycle.instant("admission", 0.0)
        slice_id = lifecycle.begin_slice()
        inside = lifecycle.instant("decision", 1.0)
        by_id = {}
        lifecycle.flush_segments([{"phase": "run", "start": 0.0, "end": 2.0}])
        lifecycle.finish(2.0)
        by_id = {s["span_id"]: s for s in recorder.spans}
        assert by_id[outside]["parent_id"] == lifecycle.root_id
        assert by_id[inside]["parent_id"] == slice_id
        # The run segment consumed the pre-allocated slice id.
        assert by_id[slice_id]["name"] == "run"

    def test_flush_segments_tiles_and_parents_to_root(self):
        recorder = TimelineRecorder()
        lifecycle = QueryLifecycle("q", 0.0, Obs(recorder=recorder))
        segments = [
            {"phase": "queued", "start": 0.0, "end": 1.0},
            {"phase": "run", "start": 1.0, "end": 3.0, "worker": 1},
            {"phase": "suspended", "start": 3.0, "end": 4.0},
            {"phase": "run", "start": 4.0, "end": 6.0, "worker": 0},
        ]
        lifecycle.begin_slice()
        lifecycle.flush_segments(segments[:2])
        lifecycle.begin_slice()
        lifecycle.finish(6.0, segments=segments)
        leaves = [s for s in recorder.spans if s["parent_id"] == lifecycle.root_id]
        assert [s["name"] for s in leaves] == ["queued", "run", "suspended", "run"]
        assert leaves[1]["args"] == {"worker": 1}
        # Leaves tile [arrival, finished] with no gaps.
        for before, after in zip(leaves, leaves[1:]):
            assert before["ts"] + before["dur"] == pytest.approx(after["ts"])
        validate_span_tree(recorder.spans)

    def test_trace_label_disambiguates_repeated_runs(self):
        first = QueryLifecycle("q", 0.0, trace_label="q@0")
        second = QueryLifecycle("q", 0.0, trace_label="q@1")
        assert first.trace_id != second.trace_id

    def test_mirrors_into_tracer(self):
        tracer = Tracer()
        lifecycle = QueryLifecycle("q", 0.0, Obs(tracer=tracer))
        lifecycle.span("run", 0.0, 1.0)
        lifecycle.finish(1.0)
        assert len(tracer) == 2
        assert all(e.trace_id == lifecycle.trace_id for e in tracer.events)


class TestTimelineRecorder:
    def test_window_aggregation(self):
        recorder = TimelineRecorder(window_seconds=10.0)
        recorder.sample("depth", 1.0, 3.0)
        recorder.sample("depth", 9.0, 1.0)
        recorder.sample("depth", 11.0, 7.0)
        samples = recorder.samples
        assert [s["window"] for s in samples] == [0, 1]
        first = samples[0]
        assert first["count"] == 2
        assert first["sum"] == 4.0
        assert first["min"] == 1.0
        assert first["max"] == 3.0
        assert first["last"] == 1.0
        assert first["ts"] == 0.0

    def test_sample_registry_filters_histograms(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", worker="w0").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("latency_seconds").observe(1.0)
        recorder = TimelineRecorder()
        recorder.sample_registry(5.0, registry)
        assert any(name.startswith("hits_total") for name in recorder.series_names)
        assert "depth" in recorder.series_names
        assert not any("latency" in name for name in recorder.series_names)

    def test_sample_registry_name_filter_uses_base_name(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", worker="w0").inc()
        registry.gauge("depth").set(1)
        recorder = TimelineRecorder()
        recorder.sample_registry(0.0, registry, names=("hits_total",))
        assert recorder.series_names == ["hits_total{worker=w0}"]

    def test_jsonl_round_trip(self):
        recorder = TimelineRecorder(window_seconds=5.0)
        recorder.set_meta(policy="fifo", seed=3)
        recorder.sample("depth", 2.0, 1.0)
        lifecycle = QueryLifecycle("q", 0.0, Obs(recorder=recorder))
        lifecycle.finish(1.0)
        recorder.add_completion({"name": "q", "latency": 1.0})
        recorder.add_alert({"ts": 1.0, "tenant_class": "batch"})
        text = recorder.to_jsonl(dropped_events=4)
        timeline = Timeline.from_jsonl(text)
        assert timeline.header["format"] == TIMELINE_FORMAT
        assert timeline.header["policy"] == "fifo"
        assert timeline.header["dropped_events"] == 4
        assert timeline.header["counts"] == {
            "samples": 1, "spans": 1, "completions": 1, "alerts": 1,
        }
        assert timeline.series("depth")[0]["last"] == 1.0
        assert timeline.roots()[0]["name"] == "lifecycle:q"
        assert timeline.completions[0]["name"] == "q"
        assert timeline.alerts[0]["tenant_class"] == "batch"

    def test_from_jsonl_rejects_foreign_formats(self):
        with pytest.raises(ValueError):
            Timeline.from_jsonl(json.dumps({"format": "riveter-trace/1"}))
        with pytest.raises(ValueError):
            Timeline.from_jsonl("")

    def test_window_seconds_validation(self):
        with pytest.raises(ValueError):
            TimelineRecorder(window_seconds=0.0)


class TestValidateSpanTree:
    def _tree(self):
        trace = derive_trace_id("q")
        root = {
            "trace_id": trace, "span_id": "root", "parent_id": None,
            "name": "lifecycle:q", "ph": "X", "ts": 0.0, "dur": 10.0,
        }
        child = {
            "trace_id": trace, "span_id": "child", "parent_id": "root",
            "name": "run", "ph": "X", "ts": 1.0, "dur": 4.0,
        }
        return [root, child]

    def test_accepts_well_formed_tree(self):
        summary = validate_span_tree(self._tree())
        assert summary == {"spans": 2, "roots": 1}

    def test_rejects_dead_parent(self):
        spans = self._tree()
        spans[1]["parent_id"] = "ghost"
        with pytest.raises(ValueError, match="no live parent"):
            validate_span_tree(spans)

    def test_rejects_child_escaping_parent(self):
        spans = self._tree()
        spans[1]["dur"] = 100.0
        with pytest.raises(ValueError, match="escapes parent"):
            validate_span_tree(spans)

    def test_rejects_duplicate_ids(self):
        spans = self._tree()
        spans[1]["span_id"] = "root"
        with pytest.raises(ValueError, match="duplicate"):
            validate_span_tree(spans)

    def test_rejects_cross_trace_parents(self):
        spans = self._tree()
        spans[1]["trace_id"] = derive_trace_id("other")
        with pytest.raises(ValueError, match="crosses trace"):
            validate_span_tree(spans)


class TestSLOMonitor:
    def test_burn_rate_math(self):
        monitor = SLOMonitor(target_attainment=0.95, window_seconds=100.0)
        assert monitor.observe("batch", 0.0, True) == 0.0
        # 1 miss of 2 observations: 0.5 / 0.05 = 10x budget.
        assert monitor.observe("batch", 1.0, False) == pytest.approx(10.0)
        assert monitor.burn_rate("batch") == pytest.approx(10.0)
        assert monitor.burn_rate("unseen") == 0.0

    def test_window_eviction(self):
        monitor = SLOMonitor(window_seconds=10.0)
        monitor.observe("batch", 0.0, False)
        assert monitor.observe("batch", 100.0, True) == 0.0

    def test_edge_triggered_alerting(self):
        monitor = SLOMonitor(target_attainment=0.95, window_seconds=1e9,
                             burn_threshold=2.0)
        monitor.observe("batch", 0.0, False)
        monitor.observe("batch", 1.0, False)
        assert len(monitor.alerts) == 1  # second crossing does not re-fire
        # Re-arm: drown the misses until burn drops below threshold...
        for i in range(18):
            monitor.observe("batch", 2.0 + i, True)
        assert monitor.burn_rate("batch") < 2.0
        # ...then a fresh crossing fires again.
        monitor.observe("batch", 50.0, False)
        monitor.observe("batch", 51.0, False)
        assert len(monitor.alerts) == 2

    def test_alerts_reach_every_sink(self):
        recorder = TimelineRecorder()
        journal = DecisionJournal()
        metrics = MetricsRegistry()
        tracer = Tracer()
        monitor = SLOMonitor(
            obs=Obs(tracer=tracer, journal=journal, metrics=metrics, recorder=recorder)
        )
        monitor.observe("batch", 5.0, False, query="q1")
        assert recorder.alerts and recorder.alerts[0]["tenant_class"] == "batch"
        assert "slo_burn_rate:batch" in recorder.series_names
        assert journal.by_kind("alert")[0].payload["tenant_class"] == "batch"
        assert metrics.counter("slo_alerts_total", tenant_class="batch").value == 1
        assert any(e.name == "slo_burn:batch" for e in tracer.events)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SLOMonitor(target_attainment=1.0)
        with pytest.raises(ValueError):
            SLOMonitor(window_seconds=0.0)
        with pytest.raises(ValueError):
            SLOMonitor(burn_threshold=0.0)


class TestSparkline:
    def test_scales_to_max(self):
        assert sparkline([0.0, 1.0]) == "▁█"
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "▁▁"

    def test_ceiling_clamps(self):
        assert sparkline([10.0], ceiling=1.0) == "█"
        assert sparkline([0.5], ceiling=1.0) == "▄"


def run_fleet_with_timeline(catalog, tmp_path, seed=7, tenants=3, duration=600.0,
                            mean_on=180.0, mean_off=30.0, policy="suspend-aware"):
    arrivals = generate_workload(make_tenants(tenants, seed), duration, seed)
    tracer = Tracer()
    metrics = MetricsRegistry()
    journal = DecisionJournal()
    recorder = TimelineRecorder()
    obs = Obs(tracer=tracer, journal=journal, metrics=metrics, recorder=recorder)
    cluster = FleetCluster(
        catalog,
        make_policy(policy),
        workers=2,
        seed=seed,
        admission=AdmissionController(
            max_queue_depth=8, obs=Obs(tracer=tracer, journal=journal)
        ),
        snapshot_dir=tmp_path / f"snap-{seed}",
        mean_on_seconds=mean_on,
        mean_off_seconds=mean_off,
        obs=obs,
        slo=SLOMonitor(obs=obs),
    )
    result = cluster.run(arrivals, duration)
    record_fleet_timeline(recorder, result)
    return result, recorder, tracer, cluster.slo


class TestFleetTimeline:
    def test_same_seed_byte_identical_artifact(self, tpch_tiny, tmp_path):
        blobs = []
        for run in range(2):
            _, recorder, tracer, _ = run_fleet_with_timeline(
                tpch_tiny, tmp_path / f"r{run}"
            )
            blobs.append(recorder.to_jsonl(dropped_events=tracer.dropped))
        assert blobs[0] == blobs[1]

    def test_every_query_is_one_rooted_tree_tiling_its_segments(
        self, tpch_tiny, tmp_path
    ):
        result, recorder, _, _ = run_fleet_with_timeline(tpch_tiny, tmp_path)
        validate_span_tree(recorder.spans)
        timeline = Timeline.from_jsonl(recorder.to_jsonl())
        roots = {root["trace_id"]: root for root in timeline.roots()}
        assert len(roots) == len(result.completions)
        for completion in result.completions:
            root = roots[derive_trace_id(completion.name)]
            assert root["ts"] == pytest.approx(completion.arrival_time)
            assert root["ts"] + root["dur"] == pytest.approx(completion.finished_at)
            leaves = sorted(
                (s for s in timeline.children(root["span_id"]) if s["ph"] == "X"),
                key=lambda s: s["ts"],
            )
            # The leaves are exactly the completion's phase segments.
            assert [
                (s["name"], pytest.approx(s["ts"]), pytest.approx(s["ts"] + s["dur"]))
                for s in leaves
            ] == [
                (seg["phase"], pytest.approx(seg["start"]), pytest.approx(seg["end"]))
                for seg in completion.segments
            ]

    def test_reclamation_run_stays_well_formed(self, tpch_tiny, tmp_path):
        result, recorder, _, _ = run_fleet_with_timeline(
            tpch_tiny, tmp_path, tenants=4, duration=900.0,
            mean_on=60.0, mean_off=20.0,
        )
        assert sum(w.reclamations for w in result.workers) > 0
        validate_span_tree(recorder.spans)
        assert any(s["name"] == "reclamation" for s in recorder.spans)

    def test_chrome_trace_gains_counter_tracks(self, tpch_tiny, tmp_path):
        _, recorder, tracer, _ = run_fleet_with_timeline(tpch_tiny, tmp_path)
        document = trace_to_chrome(tracer, timeline=recorder)
        counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert {e["name"] for e in counters} >= {"fleet_queue_depth", "spot_price"}
        summary = validate_chrome_trace(document)
        assert summary["events"] == len(document["traceEvents"])
        assert counter_track_events(recorder)  # standalone export, same events

    def test_fleet_state_series_are_sampled(self, tpch_tiny, tmp_path):
        _, recorder, _, _ = run_fleet_with_timeline(tpch_tiny, tmp_path)
        names = set(recorder.series_names)
        assert {
            "fleet_queue_depth", "fleet_in_flight", "fleet_suspended",
            "fleet_reserved_bytes", "spot_price",
        } <= names

    def test_report_carries_worker_utilization(self, tpch_tiny, tmp_path):
        result, _, _, _ = run_fleet_with_timeline(tpch_tiny, tmp_path)
        report = fleet_report(result)
        for worker in report["workers"]:
            util = worker["utilization"]
            total = (
                util["busy_fraction"]
                + util["suspended_fraction"]
                + util["idle_fraction"]
            )
            assert total == pytest.approx(1.0)
            assert util["busy_seconds"] == pytest.approx(worker["busy_seconds"])
        text = format_fleet_report(report)
        assert "busy%" in text and "idle%" in text

    def test_utilization_attributes_suspended_time(self, tpch_tiny, tmp_path):
        result, _, _, _ = run_fleet_with_timeline(tpch_tiny, tmp_path)
        util = worker_utilization(result)
        suspended = sum(
            seg["end"] - seg["start"]
            for c in result.completions
            for seg in c.segments
            if seg["phase"] == "suspended"
        )
        if suspended:
            assert sum(u["suspended_seconds"] for u in util.values()) > 0

    def test_dashboard_renders_fleet_sections(self, tpch_tiny, tmp_path):
        _, recorder, tracer, _ = run_fleet_with_timeline(tpch_tiny, tmp_path)
        timeline = Timeline.from_jsonl(recorder.to_jsonl(tracer.dropped))
        text = render_report(timeline)
        assert "per-class windowed latency" in text
        assert "per-tenant summary" in text
        assert "slowest lifecycles" in text
        assert "queue depth" in text


class TestReportCLI:
    def test_fleet_timeline_roundtrip_through_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        artifact = tmp_path / "t.jsonl"
        argv = [
            "fleet", "--tenants", "3", "--workers", "2", "--duration", "240",
            "--seed", "11", "--scale", "0.002",
            "--timeline-out", str(artifact), "--json",
        ]
        assert main(argv) == 0
        first = artifact.read_bytes()
        capsys.readouterr()
        assert main(argv) == 0
        assert artifact.read_bytes() == first
        capsys.readouterr()

        assert main(["report", "--validate", str(artifact)]) == 0
        output = capsys.readouterr().out
        assert "timeline report" in output
        assert "windowed p95" in output

    def test_report_rejects_missing_file(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2

    def test_query_timeline_out(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.obs.timeline import read_timeline

        artifact = tmp_path / "q.jsonl"
        code = main([
            "query", "--name", "Q6", "--scale", "0.002",
            "--suspend-at", "0.5", "--timeline-out", str(artifact),
        ])
        assert code == 0
        timeline = read_timeline(artifact)
        validate_span_tree(timeline.spans)
        names = {s["name"] for s in timeline.spans}
        assert "lifecycle:Q6" in names
        assert any(n.startswith("persist:") for n in names)
        assert any(n.startswith("reload:") for n in names)
        assert timeline.completions[0]["suspended"] is True
