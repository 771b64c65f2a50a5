"""Ablations of DESIGN.md's design choices.

1. **Live-state pruning** — persisting only live global states (our
   pipeline-level snapshots) vs persisting every completed state: the
   pruning is what keeps pipeline-level snapshots small after probes
   consume their builds.
2. **Morsel size** — the process-level suspension granularity: finer
   morsels give earlier suspension points at (bounded) overhead.
"""

import pytest

from repro.engine.errors import QuerySuspended
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.harness.report import format_bytes, format_table
from repro.suspend import PipelineLevelStrategy
from repro.tpch import build_query
from repro.tpch.dbgen import generate_catalog

SCALE = 0.02


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(SCALE)


def _suspend(catalog, query, fraction, profile=None):
    profile = profile or HardwareProfile()
    plan = build_query(query)
    normal = QueryExecutor(catalog, plan, profile=profile, query_name=query).run()
    strategy = PipelineLevelStrategy(profile)
    controller = strategy.make_request_controller(normal.stats.duration * fraction)
    executor = QueryExecutor(
        catalog, plan, profile=profile, controller=controller, query_name=query
    )
    try:
        executor.run()
        return None
    except QuerySuspended as exc:
        return exc.capture


def test_ablation_live_state_pruning(benchmark, catalog):
    """Live-only snapshots vs persist-everything snapshots (Q3 late)."""

    def measure():
        capture = _suspend(catalog, "Q3", 0.85)
        assert capture is not None
        live = sum(len(s.serialize()) for s in capture.live_states().values())
        everything = sum(len(s.serialize()) for s in capture.completed_states.values())
        return live, everything

    live, everything = benchmark.pedantic(measure, rounds=1, iterations=1)
    print("\nAblation — snapshot contents at a late Q3 breaker")
    print(
        format_table(
            ["policy", "bytes"],
            [["live states only (Riveter)", format_bytes(live)],
             ["all completed states", format_bytes(everything)]],
        )
    )
    assert live < everything, "pruning must strictly reduce the snapshot"


def test_ablation_morsel_size_suspension_granularity(benchmark, catalog):
    """Finer morsels → denser process-level suspension points."""
    profile = HardwareProfile()
    plan = build_query("Q1")

    def lag_for(morsel_size):
        normal = QueryExecutor(
            catalog, plan, profile=profile, morsel_size=morsel_size, query_name="Q1"
        ).run()
        from repro.suspend import SuspensionRequestController

        controller = SuspensionRequestController(normal.stats.duration * 0.5, mode="process")
        executor = QueryExecutor(
            catalog, plan, profile=profile, morsel_size=morsel_size,
            controller=controller, query_name="Q1",
        )
        try:
            executor.run()
            return None
        except QuerySuspended:
            return controller.lag

    def sweep():
        return {size: lag_for(size) for size in (2048, 16384, 65536)}

    lags = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nAblation — process-level suspension lag vs morsel size (Q1 @50%)")
    print(format_table(["morsel size", "lag (s)"], [[k, f"{v:.4f}"] for k, v in lags.items()]))
    assert lags[2048] <= lags[65536] + 1e-9
