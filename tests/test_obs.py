"""The repro.obs subsystem: tracer, metrics, exporters, instrumentation."""

from __future__ import annotations

import json

import pytest

from repro.engine.controller import Action
from repro.engine.errors import QuerySuspended
from repro.engine.executor import QueryExecutor
from repro.engine.clock import SimulatedClock
from repro.obs.export import (
    text_summary,
    trace_to_chrome,
    trace_to_jsonl,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.handle import Obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACE_CATEGORIES, TraceEvent, Tracer
from repro.suspend.controller import (
    CallbackController,
    CompositeController,
    SuspensionRequestController,
)
from repro.suspend.pipeline_level import PipelineLevelStrategy
from repro.suspend.process_level import ProcessLevelStrategy
from repro.tpch import build_query


class TestTracer:
    def test_instant_and_span(self):
        tracer = Tracer()
        tracer.instant("query", "start:Q1", 0.0, rows=5)
        tracer.span("pipeline", "P0", 0.0, 1.5, track="engine", morsels=3)
        assert len(tracer) == 2
        instant, span = tracer.events
        assert instant.phase == "i" and instant.args == {"rows": 5}
        assert span.phase == "X" and span.dur == 1.5

    def test_rejects_unknown_category(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.instant("nonsense", "x", 0.0)

    def test_bounded_buffer_drops_oldest(self):
        tracer = Tracer(max_events=3)
        for index in range(5):
            tracer.instant("morsel", f"m{index}", float(index))
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [e.name for e in tracer.events] == ["m2", "m3", "m4"]

    def test_by_category_and_clear(self):
        tracer = Tracer()
        tracer.instant("query", "q", 0.0)
        tracer.instant("suspend", "s", 1.0)
        assert [e.name for e in tracer.by_category("suspend")] == ["s"]
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_event_json_shape(self):
        event = TraceEvent(ts=1.0, category="persist", name="p", phase="X", dur=0.5)
        payload = event.to_json()
        assert payload == {
            "ts": 1.0, "cat": "persist", "name": "p",
            "ph": "X", "dur": 0.5, "track": "engine", "args": {},
        }

    def test_categories_cover_lifecycle(self):
        for required in ("query", "pipeline", "morsel", "suspend", "persist",
                         "resume", "termination", "decision", "breaker", "cloud"):
            assert required in TRACE_CATEGORIES


class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("runs_total", strategy="redo")
        counter.inc()
        counter.inc(2.0)
        assert counter.value == 3.0
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_labels_key_separately(self):
        registry = MetricsRegistry()
        registry.counter("x", a="1").inc()
        registry.counter("x", a="2").inc(5)
        snapshot = registry.snapshot()["metrics"]
        assert snapshot["x{a=1}"]["value"] == 1.0
        assert snapshot["x{a=2}"]["value"] == 5.0

    def test_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("memory_bytes").set(123.0)
        assert registry.gauge("memory_bytes").value == 123.0

    def test_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lag", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        payload = hist.to_json()
        assert payload["count"] == 3
        assert payload["sum"] == 55.5
        assert payload["buckets"] == [1.0, 10.0]
        assert payload["counts"] == [1, 1, 1]  # ≤1.0, ≤10.0, +Inf overflow
        assert payload["min"] == 0.5 and payload["max"] == 50.0

    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_histogram_quantile_interpolates_within_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lag", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 2.0, 4.0, 8.0, 50.0):
            hist.observe(value)
        assert hist.quantile(0.0) == 0.5
        assert hist.quantile(1.0) == 50.0
        # p50 falls in the (1, 10] bucket; interpolation stays inside it.
        assert 1.0 <= hist.quantile(0.5) <= 10.0
        assert hist.quantile(0.95) <= 50.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_histogram_quantile_empty_and_overflow(self):
        registry = MetricsRegistry()
        hist = registry.histogram("x", buckets=(1.0,))
        assert hist.quantile(0.5) == 0.0
        hist.observe(99.0)  # lands in the +Inf overflow bucket
        assert hist.quantile(0.99) == 99.0


class TestPrometheusExport:
    def test_counter_and_gauge_exposition(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", strategy="redo").inc(3)
        registry.counter("runs_total", strategy="process").inc()
        registry.gauge("memory_bytes").set(123.5)
        text = registry.to_prometheus()
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{strategy="process"} 1' in text
        assert 'runs_total{strategy="redo"} 3' in text
        assert "# TYPE memory_bytes gauge" in text
        assert "memory_bytes 123.5" in text

    def test_histogram_exposition_is_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lag_seconds", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        text = registry.to_prometheus()
        assert "# TYPE lag_seconds histogram" in text
        assert 'lag_seconds_bucket{le="1"} 1' in text
        assert 'lag_seconds_bucket{le="10"} 2' in text
        assert 'lag_seconds_bucket{le="+Inf"} 3' in text
        assert "lag_seconds_sum 55.5" in text
        assert "lag_seconds_count 3" in text

    def test_type_line_emitted_once_per_metric_family(self):
        registry = MetricsRegistry()
        registry.counter("x", a="1").inc()
        registry.counter("x", a="2").inc()
        text = registry.to_prometheus()
        assert text.count("# TYPE x counter") == 1


def _run_with_suspension(catalog, strategy, query="Q3", fraction=0.5, tracer=None):
    plan = build_query(query)
    normal = QueryExecutor(catalog, plan, query_name=query).run()
    controller = strategy.make_request_controller(normal.stats.duration * fraction)
    executor = QueryExecutor(
        catalog, plan, controller=controller, query_name=query,
        tracer=tracer, metrics=strategy.obs.metrics,
    )
    with pytest.raises(QuerySuspended) as excinfo:
        executor.run()
    return executor, excinfo.value, normal


class TestInstrumentation:
    def test_plain_run_emits_query_and_pipeline_spans(self, tpch_tiny):
        tracer, metrics = Tracer(), MetricsRegistry()
        result = QueryExecutor(
            tpch_tiny, build_query("Q6"), query_name="Q6", tracer=tracer, metrics=metrics
        ).run()
        categories = {e.category for e in tracer.events}
        assert {"query", "pipeline", "morsel", "breaker"} <= categories
        query_spans = [e for e in tracer.by_category("query") if e.phase == "X"]
        assert len(query_spans) == 1
        assert query_spans[0].args["rows"] == result.chunk.num_rows
        snapshot = metrics.snapshot()["metrics"]
        assert snapshot["queries_total"]["value"] == 1.0
        assert snapshot["result_rows_total"]["value"] == float(result.chunk.num_rows)

    def test_tracing_is_off_by_default(self, tpch_tiny):
        executor = QueryExecutor(tpch_tiny, build_query("Q6"), query_name="Q6")
        assert executor.obs is Obs.NONE
        executor.run()  # no tracer to fill; just must not crash

    def test_persist_reload_pair_matches_snapshot_bytes(self, tpch_tiny, tmp_path, profile):
        tracer, metrics = Tracer(), MetricsRegistry()
        strategy = PipelineLevelStrategy(profile, obs=Obs(tracer=tracer, metrics=metrics))
        executor, suspended, _ = _run_with_suspension(tpch_tiny, strategy, tracer=tracer)
        outcome = strategy.persist(suspended.capture, tmp_path)
        strategy.prepare_resume(
            outcome.snapshot_path, executor.pipelines, executor.plan_fingerprint
        )
        persists = [e for e in tracer.by_category("persist") if e.phase == "X"]
        reloads = [e for e in tracer.by_category("resume") if e.phase == "X"]
        assert len(persists) == 1 and len(reloads) == 1
        assert persists[0].args["bytes"] == outcome.intermediate_bytes
        assert reloads[0].args["bytes"] == outcome.intermediate_bytes
        snapshot = metrics.snapshot()["metrics"]
        assert snapshot["bytes_persisted_total{strategy=pipeline}"]["value"] == float(
            outcome.intermediate_bytes
        )
        assert snapshot["bytes_reloaded_total{strategy=pipeline}"]["value"] == float(
            outcome.intermediate_bytes
        )

    def test_process_level_emits_criu_events(self, tpch_tiny, tmp_path, profile):
        tracer, metrics = Tracer(), MetricsRegistry()
        strategy = ProcessLevelStrategy(profile, obs=Obs(tracer=tracer, metrics=metrics))
        executor, suspended, _ = _run_with_suspension(tpch_tiny, strategy, tracer=tracer)
        outcome = strategy.persist(suspended.capture, tmp_path)
        strategy.prepare_resume(
            outcome.snapshot_path, executor.pipelines, executor.plan_fingerprint
        )
        names = [e.name for e in tracer.events]
        assert "criu:dump" in names and "criu:restore" in names
        persists = [e for e in tracer.by_category("persist") if e.phase == "X"]
        assert persists and persists[0].args["bytes"] == outcome.intermediate_bytes

    def test_suspend_resume_completes_with_matching_rows(self, tpch_tiny, tmp_path, profile):
        tracer = Tracer()
        strategy = PipelineLevelStrategy(profile, obs=Obs(tracer=tracer, metrics=MetricsRegistry()))
        executor, suspended, normal = _run_with_suspension(tpch_tiny, strategy, tracer=tracer)
        outcome = strategy.persist(suspended.capture, tmp_path)
        resumed = strategy.prepare_resume(
            outcome.snapshot_path, executor.pipelines, executor.plan_fingerprint
        )
        final = QueryExecutor(
            tpch_tiny, build_query("Q3"), query_name="Q3",
            clock=SimulatedClock(
                outcome.suspended_at + outcome.persist_latency + resumed.reload_latency
            ),
            resume=resumed.resume_state, tracer=tracer,
        ).run()
        assert final.chunk.num_rows == normal.chunk.num_rows
        resume_instants = [e for e in tracer.by_category("resume") if e.phase == "i"]
        assert any(e.name == "resume:Q3" for e in resume_instants)


class TestControllers:
    def test_callback_controller_forwards_query_start(self):
        seen = []
        controller = CallbackController(on_start=seen.append)
        controller.on_query_start("executor-sentinel")
        assert seen == ["executor-sentinel"]

    def test_composite_forwards_query_start_to_all(self):
        seen = []
        composite = CompositeController(
            [CallbackController(on_start=seen.append), CallbackController(on_start=seen.append)]
        )
        composite.on_query_start("x")
        assert seen == ["x", "x"]

    def test_callback_controller_defaults_continue(self):
        controller = CallbackController()
        controller.on_query_start(None)
        assert controller.on_morsel_boundary(None) is Action.CONTINUE
        assert controller.on_pipeline_breaker(None) is Action.CONTINUE

    def test_request_controller_records_request_and_suspend(self, tpch_tiny, profile):
        tracer, metrics = Tracer(), MetricsRegistry()
        strategy = PipelineLevelStrategy(profile, obs=Obs(tracer=tracer, metrics=metrics))
        _run_with_suspension(tpch_tiny, strategy, tracer=tracer)
        suspend_events = tracer.by_category("suspend")
        names = [e.name for e in suspend_events]
        assert "request:pipeline" in names
        assert "suspend:pipeline" in names
        lag = metrics.snapshot()["metrics"]["suspension_lag_seconds"]
        assert lag["count"] == 1
        suspend = next(e for e in suspend_events if e.name == "suspend:pipeline")
        assert suspend.args["lag"] == pytest.approx(
            suspend.ts - suspend.args["requested_at"]
        )


class TestExport:
    def _traced_q6(self, catalog):
        tracer = Tracer()
        QueryExecutor(catalog, build_query("Q6"), query_name="Q6", tracer=tracer).run()
        return tracer

    def test_jsonl_is_deterministic(self, tpch_tiny):
        first = trace_to_jsonl(self._traced_q6(tpch_tiny))
        second = trace_to_jsonl(self._traced_q6(tpch_tiny))
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")

    def test_jsonl_round_trips(self, tpch_tiny, tmp_path):
        tracer = self._traced_q6(tpch_tiny)
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(tracer, path)
        lines = path.read_text().splitlines()
        # First line is the riveter-trace/1 header; the rest are events.
        assert len(lines) == count + 1 == len(tracer) + 1
        header = json.loads(lines[0])
        assert header["format"] == "riveter-trace/1"
        assert header["events"] == count
        assert header["dropped"] == tracer.dropped == 0
        for line in lines[1:]:
            payload = json.loads(line)
            assert payload["cat"] in TRACE_CATEGORIES

    def test_chrome_trace_validates(self, tpch_tiny, tmp_path):
        tracer = self._traced_q6(tpch_tiny)
        summary = validate_chrome_trace(trace_to_chrome(tracer))
        assert summary["categories"]["query"] >= 1
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, path)
        assert validate_chrome_trace_file(path)["events"] > 0

    def test_chrome_trace_tracks_become_threads(self, tpch_tiny):
        tracer = self._traced_q6(tpch_tiny)
        payload = trace_to_chrome(tracer)
        thread_names = [
            e["args"]["name"] for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "engine" in thread_names

    def test_validate_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z", "name": "x"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [
                    {"ph": "i", "name": "x", "pid": 1, "tid": 1, "cat": "bogus",
                     "ts": 0.0, "s": "t"}
                ]}
            )

    def test_text_summary_mentions_counts(self, tpch_tiny):
        tracer = self._traced_q6(tpch_tiny)
        metrics = MetricsRegistry()
        metrics.counter("queries_total").inc()
        summary = text_summary(tracer, metrics)
        assert "trace event(s)" in summary
        assert "queries_total" in summary

    def test_text_summary_reports_histogram_quantiles(self, tpch_tiny):
        tracer = self._traced_q6(tpch_tiny)
        metrics = MetricsRegistry()
        hist = metrics.histogram("lag_seconds", buckets=(1.0, 10.0))
        for value in (0.5, 5.0):
            hist.observe(value)
        summary = text_summary(tracer, metrics)
        assert "p50=" in summary and "p95=" in summary
