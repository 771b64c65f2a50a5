"""Structured execution tracing on the virtual timeline.

A :class:`Tracer` records :class:`TraceEvent` entries into a bounded
in-memory buffer.  Timestamps and durations are **virtual seconds** from
the engine's simulated clock (callers pass them explicitly); no wall
time ever enters an event, which is what makes exported traces
byte-for-byte deterministic across runs.

Event taxonomy (the ``category`` field):

==============  ==========================================================
category        emitted by
==============  ==========================================================
``query``       executor — one span per completed query, instants at
                start and at suspension capture points
``pipeline``    executor — one span per completed pipeline
``morsel``      executor — one span per batch of processed morsels
``breaker``     executor — combine+finalize at each pipeline breaker
``suspend``     suspension controllers — request and actual-suspension
                instants (the gap between them is the paper's time lag)
``persist``     strategies / simulated CRIU — snapshot or image writes
``resume``      strategies and executor — reload spans and resume points
``termination`` cloud runner — simulated spot-instance kills
``decision``    adaptive selector — one instant per Algorithm 1 run,
                carrying the per-strategy cost estimates
``cloud``       runner/scheduler — per-run and per-completion roll-ups
``timeline``    :mod:`repro.obs.timeline` — windowed counter samples and
                SLO burn-rate alerts
==============  ==========================================================

Two phases exist, mirroring the Chrome trace format: ``"X"`` (complete
span with a duration) and ``"i"`` (instant).

Causal links
------------

Events may carry three optional identity fields — ``trace_id`` (one per
query lifecycle), ``span_id`` (this event), and ``parent_id`` (the
enclosing span) — stitched by
:class:`repro.obs.timeline.QueryLifecycle` into one rooted span tree per
query; only a lifecycle stamps them (``Tracer.span`` / ``instant`` record
plain events, :meth:`repro.obs.handle.Obs.span` picks the route).  Events
without ids are plain timeline events, which keeps single-query traces
exactly as they were before the lifecycle layer existed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["TRACE_CATEGORIES", "TraceEvent", "Tracer"]

#: Every category instrumented code may emit; the exporter validator
#: rejects events outside this set.
TRACE_CATEGORIES = frozenset(
    {
        "query",
        "pipeline",
        "morsel",
        "breaker",
        "suspend",
        "persist",
        "resume",
        "termination",
        "decision",
        "cloud",
        # Fleet-simulator spans: worker-lane run segments, admission
        # verdicts, reclamations.
        "fleet",
        # Sharded execution (repro.dist): per-shard fragment lanes and
        # gather transfers, rendered in shard{k}/coordinator tracks.
        "exchange",
        # Time-series rollups: windowed counter samples and SLO burn-rate
        # alerts (repro.obs.timeline).
        "timeline",
        # Wall-clock worker lanes from the opt-in profiler
        # (repro.obs.profile): the one category whose timestamps are real
        # seconds, rendered in per-worker processes next to the virtual
        # lanes.  Never emitted into --trace-out artifacts.
        "profile",
    }
)

DEFAULT_MAX_EVENTS = 100_000


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event on the virtual timeline.

    ``ts`` and ``dur`` are virtual seconds; ``phase`` is ``"X"`` for a
    complete span and ``"i"`` for an instant; ``track`` names the logical
    lane the event is drawn on (``engine``, ``suspend``, ``selector``,
    ``cloud``, ...).
    """

    ts: float
    category: str
    name: str
    phase: str = "i"
    dur: float = 0.0
    track: str = "engine"
    args: dict = field(default_factory=dict)
    #: Causal identity (optional): the lifecycle this event belongs to,
    #: its own span id, and the id of the enclosing span.  ``None`` on
    #: plain events keeps legacy exports unchanged.
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None

    def to_json(self) -> dict:
        """Stable dict form used by both exporters."""
        payload = {
            "ts": self.ts,
            "cat": self.category,
            "name": self.name,
            "ph": self.phase,
            "dur": self.dur,
            "track": self.track,
            "args": self.args,
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
            payload["span_id"] = self.span_id
            payload["parent_id"] = self.parent_id
        return payload


class Tracer:
    """Bounded in-memory event buffer.

    When the buffer is full the *oldest* events are dropped (the tail of
    a run is usually the interesting part — that is where suspensions
    and terminations happen) and ``dropped`` counts the loss so exports
    can disclose it.  When a :class:`~repro.obs.metrics.MetricsRegistry`
    is attached, every drop also increments the
    ``trace_dropped_events_total`` counter so a truncated trace is never
    silently trusted.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS, metrics=None):
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.max_events = max_events
        self._events: deque[TraceEvent] = deque(maxlen=max_events)
        self.dropped = 0
        #: optional registry mirroring ``dropped`` as a counter
        self.metrics = metrics

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return f"Tracer(events={len(self._events)}, dropped={self.dropped})"

    # -- recording -----------------------------------------------------------
    def record(self, event: TraceEvent) -> None:
        if event.category not in TRACE_CATEGORIES:
            raise ValueError(f"unknown trace category {event.category!r}")
        if len(self._events) == self.max_events:
            self.dropped += 1
            if self.metrics is not None:
                self.metrics.counter("trace_dropped_events_total").inc()
        self._events.append(event)

    def instant(
        self,
        category: str,
        name: str,
        ts: float,
        track: str = "engine",
        **args,
    ) -> None:
        """Record a zero-duration event at virtual time *ts*."""
        self.record(TraceEvent(ts=ts, category=category, name=name, track=track, args=args))

    def span(
        self,
        category: str,
        name: str,
        start: float,
        end: float,
        track: str = "engine",
        **args,
    ) -> None:
        """Record a complete span ``[start, end]`` in virtual seconds."""
        self.record(
            TraceEvent(
                ts=start,
                category=category,
                name=name,
                phase="X",
                dur=max(0.0, end - start),
                track=track,
                args=args,
            )
        )

    # -- inspection ----------------------------------------------------------
    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    def by_category(self, category: str) -> list[TraceEvent]:
        return [event for event in self._events if event.category == category]

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
