"""Suspension-aware workload scheduler (motivational Case 1, §II-B).

Heterogeneous workloads mix long-running analytics with short interactive
queries.  Treating queries as indivisible units forces short queries to
wait behind long ones; Riveter's suspension converts a long-running query
into a series of short-running ones, letting the scheduler interleave.

:class:`SuspensionScheduler` runs a single-worker timeline (matching the
paper's one-query-at-a-time resource model): when a short query arrives
while a long query runs, the long query is suspended at its next breaker,
the short queries drain, and the long query resumes from its snapshot.
Both a suspension-aware and a run-to-completion (FIFO) policy are
implemented so the benefit can be quantified.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.cloud.segments import SegmentTimeline, segments_for
from repro.engine.clock import SimulatedClock
from repro.engine.config import ExecutionConfig
from repro.engine.plan import PlanNode
from repro.engine.profile import HardwareProfile
from repro.obs.handle import Obs
from repro.storage.catalog import Catalog
from repro.suspend.session import QuerySession, make_strategy

__all__ = ["QueryRequest", "QueryCompletion", "ScheduleReport", "SuspensionScheduler"]


@dataclass
class QueryRequest:
    """A query submitted to the scheduler at a point in simulated time."""

    name: str
    plan: PlanNode
    arrival_time: float
    interactive: bool = False  # short query that should preempt long ones


@dataclass
class QueryCompletion:
    """Per-query outcome on the scheduler's timeline."""

    name: str
    arrival_time: float
    finished_at: float
    suspensions: int = 0
    #: Phase timeline: ``{"phase": "queued"|"run"|"suspended", "start", "end"}``
    #: dicts in chronological order — the source for per-query Chrome-trace
    #: tracks (:func:`repro.obs.export.schedule_to_chrome`).  Built through
    #: :class:`repro.cloud.segments.SegmentTimeline`, so the segments tile
    #: ``[arrival_time, finished_at]`` with no unattributed gaps.
    segments: list[dict] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.finished_at - self.arrival_time


@dataclass
class ScheduleReport:
    """Results of scheduling one workload."""

    completions: list[QueryCompletion] = field(default_factory=list)

    def completion(self, name: str) -> QueryCompletion:
        for item in self.completions:
            if item.name == name:
                return item
        raise KeyError(f"no completion recorded for {name!r}")

    def mean_latency(self, interactive_only: bool = False, names: set[str] | None = None) -> float:
        chosen = [
            c
            for c in self.completions
            if (names is None or c.name in names)
        ]
        if not chosen:
            return 0.0
        return sum(c.latency for c in chosen) / len(chosen)


class SuspensionScheduler:
    """Single-worker scheduler over a simulated timeline."""

    def __init__(
        self,
        catalog: Catalog,
        profile: HardwareProfile | None = None,
        snapshot_dir: str | os.PathLike = ".riveter-scheduler",
        *,
        obs: Obs | None = None,
        config: ExecutionConfig | None = None,
        **options,
    ):
        self.catalog = catalog
        self.profile = profile if profile is not None else HardwareProfile()
        self.snapshot_dir = Path(snapshot_dir)
        self.config = ExecutionConfig.of(config, **options)
        self.obs = Obs.of(obs)
        self.strategy = make_strategy("pipeline", self.profile, obs=self.obs, config=self.config)

    # -- policies -------------------------------------------------------------
    def run_fifo(self, requests: list[QueryRequest]) -> ScheduleReport:
        """Run-to-completion in arrival order (the non-adaptive baseline)."""
        report = ScheduleReport()
        now = 0.0
        for request in sorted(requests, key=lambda r: r.arrival_time):
            now = self._run_to_completion(
                request, max(now, request.arrival_time), report, policy="fifo"
            )
        return report

    def run_preemptive(self, requests: list[QueryRequest]) -> ScheduleReport:
        """Suspend the running long query whenever interactive work waits."""
        report = ScheduleReport()
        pending = sorted(requests, key=lambda r: r.arrival_time)
        now = 0.0
        while pending:
            request = pending.pop(0)
            now = max(now, request.arrival_time)
            if request.interactive:
                now = self._run_to_completion(request, now, report)
                continue
            now = self._run_long_with_preemption(request, now, pending, report)
        return report

    # -- internals -------------------------------------------------------------
    def _session(self, request: QueryRequest) -> QuerySession:
        return QuerySession(
            self.catalog,
            request.plan,
            request.name,
            self.snapshot_dir,
            self.profile,
            strategy=self.strategy,
            obs=self.obs,
            config=self.config,
        )

    def _run_to_completion(
        self,
        request: QueryRequest,
        start: float,
        report: ScheduleReport,
        policy: str = "preemptive",
    ) -> float:
        end = self._session(request).run_slice(clock=SimulatedClock(start)).end
        completion = QueryCompletion(
            request.name,
            request.arrival_time,
            end,
            segments=segments_for(request.arrival_time, start, end),
        )
        report.completions.append(completion)
        self._record_completion(completion, policy=policy)
        return end

    def _run_long_with_preemption(
        self,
        request: QueryRequest,
        start: float,
        pending: list[QueryRequest],
        report: ScheduleReport,
    ) -> float:
        now = start
        session = self._session(request)
        suspensions = 0
        # The timeline attributes every gap between runs automatically:
        # queued before the first run (including time spent draining
        # interactive queries that arrived while another query was
        # suspending — historically unattributed), suspended afterwards.
        timeline = SegmentTimeline(request.arrival_time)
        while True:
            # Interactive queries already waiting (or arriving while the
            # worker is busy with earlier ones) run before the long query
            # (re)occupies the worker.
            now = self._drain_interactive(pending, now, report)
            next_arrival = min(
                (r.arrival_time for r in pending if r.interactive), default=None
            )
            run_start = now
            if next_arrival is not None and next_arrival > now:
                controller = self.strategy.make_request_controller(next_arrival)
            else:
                controller = None
            piece = session.run_slice(controller, SimulatedClock(now))
            if piece.kind == "complete":
                timeline.run(run_start, piece.end)
                completion = QueryCompletion(
                    request.name,
                    request.arrival_time,
                    piece.end,
                    suspensions,
                    segments=timeline.segments,
                )
                report.completions.append(completion)
                self._record_completion(completion, policy="preemptive")
                return piece.end
            # No deadline races a preemption: every persisted slice commits.
            persisted = session.persist(piece)
            session.commit(piece)
            suspensions += 1
            now = piece.end + persisted.persist_latency
            # Persisting is still busy time on the worker; the suspended
            # gap starts once the snapshot is on stable storage.
            timeline.run(run_start, now)
            now = self._drain_interactive(pending, now, report)
            now += session.reload()

    def _drain_interactive(
        self, pending: list[QueryRequest], now: float, report: ScheduleReport
    ) -> float:
        """Run every interactive query that has arrived by *now*, in order."""
        while True:
            ready = [r for r in pending if r.interactive and r.arrival_time <= now]
            if not ready:
                return now
            short = ready[0]
            pending.remove(short)
            now = self._run_to_completion(short, max(now, short.arrival_time), report)

    def _record_completion(self, completion: QueryCompletion, policy: str) -> None:
        obs = self.obs
        for segment in completion.segments:
            obs.audit(
                "placement",
                completion.name,
                segment["start"],
                policy=policy,
                phase=segment["phase"],
                start=segment["start"],
                end=segment["end"],
                suspensions=completion.suspensions,
            )
        obs.span(
            "cloud",
            f"schedule:{completion.name}",
            completion.arrival_time,
            completion.finished_at,
            track="scheduler",
            policy=policy,
            suspensions=completion.suspensions,
            latency=completion.latency,
        )
        # One span per phase on the query's own track, stitched into a
        # causal tree: a lifecycle root over [arrival, finished] with the
        # queued/run/suspended segments as its leaves, so Perfetto shows a
        # per-query lane and `repro report` a span breakdown.
        lifecycle = obs.open_lifecycle(
            completion.name,
            completion.arrival_time,
            category="cloud",
            policy=policy,
            suspensions=completion.suspensions,
        )
        if lifecycle is not None:
            lifecycle.finish(
                completion.finished_at,
                segments=completion.segments,
                latency=completion.latency,
            )
        if obs.recording:
            obs.recorder.add_completion(
                {
                    "name": completion.name,
                    "arrival_time": completion.arrival_time,
                    "finished_at": completion.finished_at,
                    "latency": completion.latency,
                    "suspensions": completion.suspensions,
                    "policy": policy,
                }
            )
        obs.count("scheduler_completions_total", policy=policy)
        obs.observe("scheduler_latency_seconds", completion.latency, policy=policy)
