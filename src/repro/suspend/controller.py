"""Controllers that trigger suspensions and simulate terminations."""

from __future__ import annotations

from typing import Callable

from repro.engine.controller import Action, BoundaryContext, ExecutionController
from repro.engine.errors import QueryTerminated
from repro.obs.handle import Obs

__all__ = [
    "SuspensionRequestController",
    "TerminationController",
    "CompositeController",
    "CallbackController",
]


class SuspensionRequestController(ExecutionController):
    """Suspends once the clock passes *request_time*.

    ``mode`` selects the granularity: ``"process"`` suspends at the first
    morsel boundary at/after the request, ``"pipeline"`` at the first
    pipeline breaker.  The request and the actual suspension are recorded
    as ``suspend``-category trace events (when a tracer is attached) in
    addition to the ``suspended_at``/``lag`` attributes the harness uses
    for the time-lag experiment (Fig. 9).  The controller writes no audit
    record: the driver journals ``suspend`` itself, with measured actuals.
    """

    def __init__(self, request_time: float, mode: str, obs: Obs | None = None):
        if mode not in ("process", "pipeline"):
            raise ValueError(f"mode must be 'process' or 'pipeline', got {mode!r}")
        self.request_time = request_time
        self.mode = mode
        self.obs = Obs.of(obs)
        self.suspended_at: float | None = None
        self._request_recorded = False

    def on_query_start(self, executor) -> None:
        if self._request_recorded:
            return
        self._request_recorded = True
        self.obs.instant(
            "suspend", f"request:{self.mode}", self.request_time, track="suspend", mode=self.mode
        )

    def _note_suspension(self, now: float) -> None:
        self.suspended_at = now
        self.obs.instant(
            "suspend",
            f"suspend:{self.mode}",
            now,
            track="suspend",
            mode=self.mode,
            requested_at=self.request_time,
            lag=self.lag,
        )
        self.obs.observe("suspension_lag_seconds", self.lag or 0.0)

    def on_morsel_boundary(self, context: BoundaryContext) -> Action:
        if self.mode == "process" and context.clock_now >= self.request_time:
            self._note_suspension(context.clock_now)
            return Action.SUSPEND_PROCESS
        return Action.CONTINUE

    def on_pipeline_breaker(self, context: BoundaryContext) -> Action:
        if context.clock_now < self.request_time:
            return Action.CONTINUE
        if context.pipeline_pos == context.total_pipelines - 1:
            # The final (result) pipeline just finished: nothing to suspend.
            return Action.CONTINUE
        self._note_suspension(context.clock_now)
        if self.mode == "pipeline":
            return Action.SUSPEND_PIPELINE
        return Action.SUSPEND_PROCESS

    @property
    def lag(self) -> float | None:
        """Delay between the request and the actual suspension, if any."""
        if self.suspended_at is None:
            return None
        return max(0.0, self.suspended_at - self.request_time)


class TerminationController(ExecutionController):
    """Kills the query when the clock reaches *termination_time*.

    Models the asynchronous revocation of a spot instance: with a
    simulated clock the kill lands on the first boundary at/after the
    termination point, losing all in-memory progress.
    """

    def __init__(self, termination_time: float | None):
        self.termination_time = termination_time

    def _check(self, context: BoundaryContext) -> None:
        if self.termination_time is not None and context.clock_now >= self.termination_time:
            raise QueryTerminated(self.termination_time)

    def on_morsel_boundary(self, context: BoundaryContext) -> Action:
        self._check(context)
        return Action.CONTINUE

    def on_pipeline_breaker(self, context: BoundaryContext) -> Action:
        self._check(context)
        return Action.CONTINUE


class CompositeController(ExecutionController):
    """Chains controllers; the first non-CONTINUE action wins.

    Termination controllers raise, so placing them first reproduces the
    race between an incoming kill and a pending suspension.
    """

    def __init__(self, controllers: list[ExecutionController]):
        self.controllers = list(controllers)

    def on_query_start(self, executor) -> None:
        for controller in self.controllers:
            controller.on_query_start(executor)

    def on_morsel_boundary(self, context: BoundaryContext) -> Action:
        for controller in self.controllers:
            action = controller.on_morsel_boundary(context)
            if action is not Action.CONTINUE:
                return action
        return Action.CONTINUE

    def on_pipeline_breaker(self, context: BoundaryContext) -> Action:
        for controller in self.controllers:
            action = controller.on_pipeline_breaker(context)
            if action is not Action.CONTINUE:
                return action
        return Action.CONTINUE


class CallbackController(ExecutionController):
    """Adapts plain callables into a controller (used by the selector).

    All three executor hooks are forwarded, so a callback-based observer
    sees the same lifecycle as a subclassed controller — including query
    start, which :class:`CompositeController` forwards uniformly.
    """

    def __init__(
        self,
        on_morsel: Callable[[BoundaryContext], Action] | None = None,
        on_breaker: Callable[[BoundaryContext], Action] | None = None,
        on_start: Callable[[object], None] | None = None,
    ):
        self._on_morsel = on_morsel
        self._on_breaker = on_breaker
        self._on_start = on_start

    def on_query_start(self, executor) -> None:
        if self._on_start is not None:
            self._on_start(executor)

    def on_morsel_boundary(self, context: BoundaryContext) -> Action:
        if self._on_morsel is None:
            return Action.CONTINUE
        return self._on_morsel(context)

    def on_pipeline_breaker(self, context: BoundaryContext) -> Action:
        if self._on_breaker is None:
            return Action.CONTINUE
        return self._on_breaker(context)
