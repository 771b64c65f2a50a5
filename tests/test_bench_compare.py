"""The bench regression gate (``benchmarks/bench_compare.py``)."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", Path(__file__).parents[1] / "benchmarks" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def payload(**leaves):
    return {"name": "suspend_resume", "scale": 0.002, "metrics": {"resume": {"Q3": leaves}}}


def failures(base, head):
    return bench_compare.compare(payload(**base), payload(**head), 0.10)[1]


class TestGate:
    def test_identical_runs_pass(self):
        assert failures({"reload_latency": 0.5}, {"reload_latency": 0.5}) == []

    def test_regression_past_the_bound_fails(self):
        assert failures({"reload_latency": 0.5}, {"reload_latency": 0.6})
        assert failures({"reload_latency": 0.5}, {"reload_latency": 0.52}) == []

    def test_improvement_passes(self):
        assert failures({"reload_latency": 0.5}, {"reload_latency": 0.1}) == []

    @pytest.mark.parametrize("leaf", ["reload_latency", "persist_latency", "file_bytes"])
    def test_vanished_cost_fails(self, leaf):
        """A cost that drops to exactly zero is dropped accounting."""
        (failure,) = failures({leaf: 0.5}, {leaf: 0.0})
        assert "vanished" in failure

    def test_zero_stays_zero_and_failure_counts_may_vanish(self):
        assert failures({"reload_latency": 0.0}, {"reload_latency": 0.0}) == []
        assert failures({"slo_misses": 3}, {"slo_misses": 0}) == []

    def test_ungated_leaf_never_fails(self):
        assert failures({"wall_seconds": 1.0}, {"wall_seconds": 0.0}) == []
