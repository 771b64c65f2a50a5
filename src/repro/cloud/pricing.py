"""Price-aware execution: suspend when cloud prices spike (paper §I).

The paper's opening motivation: spot prices "can surge to 200 to 400
times the normal rate during peak demand", so a cost-conscious tenant
should suspend during spikes and resume when capacity is cheap again —
trading latency for dollars, the inverse of a latency-oriented SLA.

:class:`PriceAwareRunner` executes a query against a
:class:`~repro.cloud.environment.PriceTrace`: whenever the price at the
current simulated time exceeds the budget, the query is suspended
(pipeline-level) and execution sleeps until the next affordable segment.
The outcome reports both wall-clock completion and dollars spent, next to
a run-through-the-spike baseline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.cloud.environment import PriceTrace
from repro.engine.clock import SimulatedClock
from repro.engine.config import ExecutionConfig
from repro.engine.controller import Action, BoundaryContext, ExecutionController
from repro.engine.executor import QueryExecutor, QueryResult
from repro.engine.plan import PlanNode
from repro.engine.profile import HardwareProfile
from repro.storage.catalog import Catalog
from repro.suspend.session import QuerySession, make_strategy

__all__ = ["PriceSegment", "PriceAwareOutcome", "PriceAwareRunner"]


@dataclass(frozen=True)
class PriceSegment:
    """One executed stretch: ``[start, end)`` at a fixed price."""

    start: float
    end: float
    price_per_hour: float

    @property
    def cost(self) -> float:
        return (self.end - self.start) / 3600.0 * self.price_per_hour


class _SpikeController(ExecutionController):
    """Suspends at a breaker when the road to the next breaker crosses a
    price spike (prices are forecastable, so the check looks ahead by the
    mean pipeline time).

    ``origin`` maps the executor's clock onto the trace's wall timeline.
    """

    def __init__(
        self, prices: PriceTrace, budget_per_hour: float, origin: float, mode: str = "pipeline"
    ):
        self.prices = prices
        self.budget = budget_per_hour
        self.origin = origin
        self.mode = mode
        self.suspended_at: float | None = None

    def _spike_within(self, wall_start: float, horizon: float) -> bool:
        step = self.prices.segment_seconds
        end = wall_start + max(horizon, step)
        index = int(wall_start / step)
        while index * step < end:
            if not self.prices.is_affordable(index * step, self.budget):
                return True
            index += 1
        return False

    def on_morsel_boundary(self, context: BoundaryContext) -> Action:
        if self.mode != "process":
            return Action.CONTINUE
        wall = self.origin + context.clock_now
        # Lookahead: one morsel at the current pace.
        pace = context.clock_now / max(1, context.morsel_index)
        if self._spike_within(wall, pace):
            self.suspended_at = context.clock_now
            return Action.SUSPEND_PROCESS
        return Action.CONTINUE

    def on_pipeline_breaker(self, context: BoundaryContext) -> Action:
        if self.mode != "pipeline":
            return Action.CONTINUE
        if context.pipeline_pos == context.total_pipelines - 1:
            return Action.CONTINUE
        wall = self.origin + context.clock_now
        lookahead = context.stats.mean_pipeline_time
        if self._spike_within(wall, lookahead):
            self.suspended_at = context.clock_now
            return Action.SUSPEND_PIPELINE
        return Action.CONTINUE


@dataclass
class PriceAwareOutcome:
    """Completion time and spend of one price-aware execution."""

    query_name: str
    finish_wall_time: float
    busy_seconds: float
    dollars: float
    suspensions: int
    segments: list[PriceSegment] = field(default_factory=list)
    result: QueryResult | None = None


class PriceAwareRunner:
    """Runs queries under a price trace with a per-hour budget."""

    def __init__(
        self,
        catalog: Catalog,
        prices: PriceTrace,
        budget_per_hour: float,
        profile: HardwareProfile | None = None,
        snapshot_dir: str | os.PathLike = ".riveter-prices",
        strategy: str = "pipeline",
        config: ExecutionConfig | None = None,
        **options,
    ):
        if strategy not in ("pipeline", "process"):
            raise ValueError(f"strategy must be 'pipeline' or 'process', got {strategy!r}")
        self.catalog = catalog
        self.prices = prices
        self.budget = budget_per_hour
        self.profile = profile if profile is not None else HardwareProfile()
        self.snapshot_dir = Path(snapshot_dir)
        self.config = ExecutionConfig.of(config, **options)
        self.mode = strategy
        self.strategy = make_strategy(strategy, self.profile, config=self.config)

    def _next_affordable(self, wall: float) -> float:
        """First time at/after *wall* whose segment fits the budget."""
        step = self.prices.segment_seconds
        index = int(wall / step)
        for offset in range(100_000):
            probe = max(wall, (index + offset) * step)
            if self.prices.is_affordable(probe, self.budget):
                return probe
        raise RuntimeError("no affordable price segment found in the trace horizon")

    def _resume_after_spike(self, wall: float) -> float:
        """Resume time past the spike that triggered a suspension.

        The controller suspends when a spike is forecast nearby, possibly
        while the current segment is still cheap; resuming immediately
        would suspend again without progress.  Skip to the first
        affordable segment *after* the next unaffordable one.
        """
        step = self.prices.segment_seconds
        index = int(wall / step)
        for offset in range(1_000):
            probe = max(wall, (index + offset) * step)
            if not self.prices.is_affordable(probe, self.budget):
                return self._next_affordable(probe)
        # No spike ahead after all (e.g. a spike expired between the
        # forecast and the resume): resume right away.
        return self._next_affordable(wall)

    def run_budgeted(self, plan: PlanNode, query_name: str, start: float = 0.0) -> PriceAwareOutcome:
        """Execute *plan*, suspending through price spikes."""
        outcome = PriceAwareOutcome(
            query_name=query_name, finish_wall_time=start, busy_seconds=0.0,
            dollars=0.0, suspensions=0,
        )
        session = QuerySession(
            self.catalog,
            plan,
            query_name,
            self.snapshot_dir,
            self.profile,
            strategy=self.strategy,
            config=self.config,
        )
        wall = self._next_affordable(start)
        while True:
            # The slice clock starts past the reload, so resuming is paid
            # for in busy seconds and dollars like any other work.
            piece = session.run_slice(
                _SpikeController(self.prices, self.budget, wall, self.mode),
                SimulatedClock(session.reload()),
            )
            if piece.kind == "complete":
                self._account(outcome, wall, piece.end)
                outcome.finish_wall_time = wall + piece.end
                outcome.busy_seconds += piece.end
                outcome.result = piece.result
                return outcome
            # No deadline races a price spike: every persisted slice commits.
            persisted = session.persist(piece)
            session.commit(piece)
            segment_end = piece.end + persisted.persist_latency
            self._account(outcome, wall, segment_end)
            outcome.busy_seconds += segment_end
            outcome.suspensions += 1
            wall = self._resume_after_spike(wall + segment_end)

    def run_through_spikes(self, plan: PlanNode, query_name: str, start: float = 0.0) -> PriceAwareOutcome:
        """Baseline: ignore prices and pay whatever the trace charges."""
        clock = SimulatedClock()
        result = QueryExecutor(
            self.catalog, plan, profile=self.profile, clock=clock,
            query_name=query_name, config=self.config,
        ).run()
        outcome = PriceAwareOutcome(
            query_name=query_name,
            finish_wall_time=start + clock.now(),
            busy_seconds=clock.now(),
            dollars=0.0,
            suspensions=0,
            result=result,
        )
        self._account(outcome, start, clock.now())
        return outcome

    def _account(self, outcome: PriceAwareOutcome, wall_start: float, busy: float) -> None:
        """Charge ``[wall_start, wall_start + busy)`` segment by segment."""
        step = self.prices.segment_seconds
        cursor = wall_start
        end = wall_start + busy
        index = int(cursor / step)
        while cursor < end - 1e-12:
            index += 1
            boundary = min(end, index * step)
            if boundary <= cursor:
                continue
            segment = PriceSegment(cursor, boundary, self.prices.price_at(cursor))
            outcome.segments.append(segment)
            outcome.dollars += segment.cost
            cursor = boundary
