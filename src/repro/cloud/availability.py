"""Intermittent-availability execution (zero-carbon clouds, §I/§II-B).

Zero-carbon data centers run on renewable supply: capacity comes and goes
in forecastable windows.  A query longer than one window *must* be
suspended and resumed repeatedly — the paper's multiple-suspensions
extension (§VI) in its natural habitat.

:class:`AvailabilityTrace` models the forecast (a list of power-on
windows); :class:`IntermittentRunner` executes a query across them,
suspending with a chosen strategy ahead of each outage and resuming in
the next window.  If a suspension cannot complete before the outage
(e.g. no pipeline breaker arrives in time), the segment's progress is
lost and the next window restarts from the last persisted snapshot (or
from scratch).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.clock import SimulatedClock
from repro.engine.config import ExecutionConfig
from repro.engine.controller import Action, BoundaryContext, ExecutionController
from repro.engine.executor import QueryResult
from repro.engine.plan import PlanNode
from repro.engine.profile import HardwareProfile
from repro.storage.catalog import Catalog
from repro.suspend.controller import CompositeController, TerminationController
from repro.suspend.session import QuerySession
from repro.suspend.strategy import SuspensionStrategy

__all__ = [
    "AvailabilityWindow",
    "AvailabilityTrace",
    "DEADLINE_SAFETY",
    "DeadlineController",
    "IntermittentOutcome",
    "IntermittentRunner",
]

#: Multiplier on the persist estimate when timing a suspension ahead of a
#: deadline.  The fleet's macro fidelity calibrates its deadline margins
#: with the same factor, which keeps it byte-identical to engine fidelity.
DEADLINE_SAFETY = 1.3


class DeadlineController(ExecutionController):
    """Suspends as late as safely possible before a forecast outage.

    * ``mode="process"`` — suspend at the first morsel boundary from which
      persisting the current memory footprint would still finish before
      the deadline (times :data:`DEADLINE_SAFETY`);
    * ``mode="pipeline"`` — at each breaker, suspend if the *next* breaker
      (extrapolated from the mean pipeline time so far) would land past
      the deadline minus the persist estimate for the live states.
    """

    def __init__(self, deadline: float, profile: HardwareProfile, mode: str):
        if mode not in ("process", "pipeline"):
            raise ValueError(f"mode must be 'process' or 'pipeline', got {mode!r}")
        self.deadline = deadline
        self.profile = profile
        self.mode = mode
        self.suspended_at: float | None = None

    def _persist_margin(self, nbytes: int) -> float:
        image = nbytes + self.profile.process_context_bytes
        return self.profile.persist_latency(image) * DEADLINE_SAFETY

    def on_morsel_boundary(self, context: BoundaryContext) -> Action:
        if self.mode != "process":
            return Action.CONTINUE
        margin = self._persist_margin(context.memory_bytes)
        # Estimate where the next boundary lands from the pace so far.
        step = context.clock_now / max(1, context.morsel_index)
        if context.clock_now + step + margin >= self.deadline:
            self.suspended_at = context.clock_now
            return Action.SUSPEND_PROCESS
        return Action.CONTINUE

    def on_pipeline_breaker(self, context: BoundaryContext) -> Action:
        if self.mode != "pipeline":
            return Action.CONTINUE
        if context.pipeline_pos == context.total_pipelines - 1:
            return Action.CONTINUE
        margin = self.profile.persist_latency(context.pipeline_state_bytes) * DEADLINE_SAFETY
        mean = context.stats.mean_pipeline_time
        if context.clock_now + mean + margin >= self.deadline:
            self.suspended_at = context.clock_now
            return Action.SUSPEND_PIPELINE
        return Action.CONTINUE


@dataclass(frozen=True)
class AvailabilityWindow:
    """One contiguous power-on interval on the wall-clock timeline."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"window end {self.end} must exceed start {self.start}")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class AvailabilityTrace:
    """A forecast of power-on windows, ordered and non-overlapping."""

    windows: list[AvailabilityWindow]

    def __post_init__(self) -> None:
        for before, after in zip(self.windows, self.windows[1:]):
            if after.start < before.end:
                raise ValueError("availability windows must be ordered and disjoint")

    @classmethod
    def periodic(cls, on_seconds: float, off_seconds: float, count: int) -> "AvailabilityTrace":
        """``count`` windows of ``on_seconds`` separated by ``off_seconds``."""
        windows = []
        start = 0.0
        for _ in range(count):
            windows.append(AvailabilityWindow(start, start + on_seconds))
            start += on_seconds + off_seconds
        return cls(windows)


@dataclass
class SegmentRecord:
    """What happened within one availability window."""

    window: AvailabilityWindow
    busy_seconds: float
    suspended: bool
    lost_progress: bool
    persisted_bytes: int = 0


@dataclass
class IntermittentOutcome:
    """Result of executing one query across an availability trace."""

    query_name: str
    completed: bool
    finish_wall_time: float | None
    busy_seconds: float
    suspensions: int
    lost_segments: int
    segments: list[SegmentRecord] = field(default_factory=list)
    result: QueryResult | None = None


class IntermittentRunner:
    """Runs queries over intermittent capacity with repeated suspensions."""

    def __init__(
        self,
        catalog: Catalog,
        strategy: SuspensionStrategy,
        profile: HardwareProfile | None = None,
        snapshot_dir: str | os.PathLike = ".riveter-intermittent",
        config: ExecutionConfig | None = None,
        **options,
    ):
        self.catalog = catalog
        self.strategy = strategy
        self.profile = profile if profile is not None else HardwareProfile()
        self.snapshot_dir = Path(snapshot_dir)
        self.config = ExecutionConfig.of(config, **options)

    def run(self, plan: PlanNode, query_name: str, trace: AvailabilityTrace) -> IntermittentOutcome:
        """Execute *plan* across *trace*; returns the multi-window outcome."""
        outcome = IntermittentOutcome(
            query_name=query_name,
            completed=False,
            finish_wall_time=None,
            busy_seconds=0.0,
            suspensions=0,
            lost_segments=0,
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
        for window in trace.windows:
            controllers: list[ExecutionController] = [TerminationController(window.duration)]
            if self.strategy.name in ("process", "pipeline"):
                controllers.append(
                    DeadlineController(window.duration, self.profile, self.strategy.name)
                )
            # The window opens with the reload: the slice clock starts past
            # it, so the reload counts as busy time and eats into the
            # window's deadline like any other work.
            piece = session.run_slice(
                CompositeController(controllers), SimulatedClock(session.reload())
            )
            if piece.kind == "complete":
                outcome.busy_seconds += piece.end
                outcome.completed = True
                outcome.finish_wall_time = window.start + piece.end
                outcome.result = piece.result
                outcome.segments.append(
                    SegmentRecord(window, piece.end, suspended=False, lost_progress=False)
                )
                return outcome
            finish = None
            if piece.kind == "suspend":
                persisted = session.persist(piece)
                finish = persisted.suspended_at + persisted.persist_latency
            if finish is None or finish > window.duration:
                # The outage hit before any suspension point was reached, or
                # before the snapshot reached storage: the window's progress
                # is lost and the next one falls back to the previous
                # snapshot (or scratch).
                outcome.lost_segments += 1
                outcome.busy_seconds += window.duration
                outcome.segments.append(
                    SegmentRecord(
                        window, window.duration, suspended=finish is not None, lost_progress=True
                    )
                )
                continue
            session.commit(piece)
            outcome.suspensions += 1
            outcome.busy_seconds += finish
            outcome.segments.append(
                SegmentRecord(
                    window,
                    finish,
                    suspended=True,
                    lost_progress=False,
                    persisted_bytes=persisted.intermediate_bytes,
                )
            )
        return outcome
