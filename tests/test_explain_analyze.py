"""EXPLAIN ANALYZE: actual row counts against the NumPy reference oracles."""

from __future__ import annotations

import pytest

from repro.engine.errors import QuerySuspended
from repro.engine.executor import QueryExecutor
from repro.engine.explain import explain_analyze
from repro.harness.report import format_operator_breakdown
from repro.obs.handle import Obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.suspend.pipeline_level import PipelineLevelStrategy
from repro.tpch import build_query
from repro.tpch.reference import reference_q1, reference_q3, reference_q6


def _run(catalog, query, tracer=None):
    plan = build_query(query)
    result = QueryExecutor(catalog, plan, query_name=query, tracer=tracer).run()
    return plan, result


def _result_rows(stats) -> int:
    return stats.pipelines[-1].operators[-1].rows


class TestActualRowsMatchReferences:
    def test_q1_rows(self, tpch_tiny):
        plan, result = _run(tpch_tiny, "Q1")
        expected = len(reference_q1(tpch_tiny)["l_returnflag"])
        assert result.chunk.num_rows == expected
        assert _result_rows(result.stats) == expected
        text = explain_analyze(tpch_tiny, plan, result.stats)
        assert f"{expected} result rows" in text

    def test_q3_rows(self, tpch_tiny):
        plan, result = _run(tpch_tiny, "Q3")
        expected = len(reference_q3(tpch_tiny)["l_orderkey"])
        assert result.chunk.num_rows == expected
        assert _result_rows(result.stats) == expected
        text = explain_analyze(tpch_tiny, plan, result.stats)
        assert f"{expected} result rows" in text

    def test_q6_rows(self, tpch_tiny):
        plan, result = _run(tpch_tiny, "Q6")
        reference_q6(tpch_tiny)  # scalar result: exactly one output row
        assert result.chunk.num_rows == 1
        assert _result_rows(result.stats) == 1
        text = explain_analyze(tpch_tiny, plan, result.stats)
        assert "1 result rows" in text

    def test_q1_scan_rows_equal_table_rows(self, tpch_tiny):
        _, result = _run(tpch_tiny, "Q1")
        scan = result.stats.pipelines[0].operators[0]
        assert scan.kind == "scan"
        assert scan.rows == tpch_tiny.get("lineitem").num_rows


class TestRendering:
    def test_annotations_present(self, tpch_tiny):
        plan, result = _run(tpch_tiny, "Q3")
        text = explain_analyze(tpch_tiny, plan, result.stats)
        assert "actual:" in text
        assert "vsec" in text
        assert "state=" in text
        assert "operator" in text and "rows" in text
        # every executed pipeline is annotated
        assert text.count("actual:") == len(result.stats.pipelines)

    def test_virtual_seconds_sum_to_duration(self, tpch_tiny):
        plan, result = _run(tpch_tiny, "Q1")
        for pipeline in result.stats.pipelines:
            op_seconds = sum(op.seconds for op in pipeline.operators)
            assert op_seconds == pytest.approx(pipeline.duration, rel=0.05)

    def test_unexecuted_pipelines_are_marked(self, tpch_tiny, profile):
        tracer = Tracer()
        plan = build_query("Q3")
        normal = QueryExecutor(tpch_tiny, plan, query_name="Q3").run()
        strategy = PipelineLevelStrategy(profile, obs=Obs(tracer=tracer, metrics=MetricsRegistry()))
        controller = strategy.make_request_controller(normal.stats.duration * 0.5)
        executor = QueryExecutor(
            tpch_tiny, plan, controller=controller, query_name="Q3", tracer=tracer
        )
        with pytest.raises(QuerySuspended) as excinfo:
            executor.run()
        text = explain_analyze(tpch_tiny, plan, excinfo.value.capture.stats, tracer)
        assert "(not executed)" in text
        assert "Suspension timeline:" in text
        assert "request:pipeline" in text

    def test_timeline_absent_without_tracer(self, tpch_tiny):
        plan, result = _run(tpch_tiny, "Q6")
        text = explain_analyze(tpch_tiny, plan, result.stats)
        assert "Suspension timeline:" not in text

    def test_operator_breakdown_table(self, tpch_tiny):
        _, result = _run(tpch_tiny, "Q3")
        table = format_operator_breakdown(result.stats)
        assert "pipeline" in table and "operator" in table
        assert "P0" in table
        assert "scan(lineitem)" in table
