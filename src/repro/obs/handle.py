"""The observability handle: the five sinks, declared once.

Every instrumented driver, session, strategy, controller and selector
takes ``obs=None``, resolves it through :meth:`Obs.of` and forwards only
the object.  The handle owns the two decisions call sites used to make by
hand: *routing* (:meth:`Obs.span` / :meth:`Obs.instant` land in the bound
query lifecycle's span tree, else on the flat tracer track) and *absence*
(every emitter is a no-op without its sink).  The contract is in
DESIGN.md, "Observability".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:
    from repro.obs.audit import AuditRecord, DecisionJournal
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import QueryProfiler
    from repro.obs.timeline import QueryLifecycle, TimelineRecorder
    from repro.obs.trace import Tracer

__all__ = ["Obs"]


@dataclass(frozen=True)
class Obs:
    """Where a component reports: five sinks plus the per-query lifecycle."""

    #: virtual-clock event buffer (Chrome trace / JSONL exports)
    tracer: Tracer | None = None
    #: counters, gauges and histograms (Prometheus exposition)
    metrics: MetricsRegistry | None = None
    #: decision audit journal (``repro why``, ``--journal-out``)
    journal: DecisionJournal | None = None
    #: windowed samples, lifecycle spans, completions, alerts
    #: (``riveter-timeline/1``)
    recorder: TimelineRecorder | None = None
    #: opt-in wall-clock profiler (strictly observational)
    profiler: QueryProfiler | None = None
    #: the query whose span tree :meth:`span` / :meth:`instant` join
    #: (see :meth:`bound`); ``None`` routes them to the flat tracer track
    lifecycle: QueryLifecycle | None = None
    #: Hoisted ``sink is not None`` tests, for hot paths where building an
    #: event's arguments is itself the cost: the disabled path stays one
    #: attribute test instead of a call with keyword packing.
    tracing: bool = field(init=False, repr=False, compare=False)
    recording: bool = field(init=False, repr=False, compare=False)
    profiling: bool = field(init=False, repr=False, compare=False)

    #: The shared disabled handle: what ``obs=None`` resolves to, so an
    #: unobserved component allocates nothing.
    NONE: ClassVar["Obs"]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracing", self.tracer is not None)
        object.__setattr__(self, "recording", self.recorder is not None)
        object.__setattr__(self, "profiling", self.profiler is not None)

    @classmethod
    def of(cls, obs: "Obs | None" = None, **sinks) -> "Obs":
        """*obs* with *sinks* applied; a ``None`` value means "not given".

        Returns *obs* itself (``Obs.NONE`` for ``None``) when nothing
        overrides it; an unknown sink name is a ``TypeError``, like any
        unexpected keyword.
        """
        unknown = sinks.keys() - _SINKS
        if unknown:
            raise TypeError(f"unknown observability sink(s): {', '.join(sorted(unknown))}")
        base = obs if obs is not None else cls.NONE
        overrides = {name: sink for name, sink in sinks.items() if sink is not None}
        return replace(base, **overrides) if overrides else base

    # -- per-query routing -----------------------------------------------------
    def bound(self, lifecycle: QueryLifecycle | None) -> "Obs":
        """This handle for one query: spans join *lifecycle*'s tree.

        ``bound(None)`` is the flat handle again.
        """
        return self if lifecycle is self.lifecycle else replace(self, lifecycle=lifecycle)

    def open_lifecycle(
        self,
        query_name: str,
        arrival_time: float,
        /,
        category: str = "fleet",
        trace_label: str | None = None,
        **root,
    ) -> QueryLifecycle | None:
        """A span tree for *query_name* reporting here (*root* become its
        root span's arguments), or ``None`` when neither a tracer nor a
        recorder would receive it."""
        if self.tracer is None and self.recorder is None:
            return None
        from repro.obs.timeline import QueryLifecycle  # imports this module

        return QueryLifecycle(
            query_name, arrival_time, self, category=category, trace_label=trace_label, **root
        )

    # -- emission --------------------------------------------------------------
    def span(
        self, category: str, name: str, start: float, end: float, track: str = "engine", **args
    ) -> None:
        """A complete span: in the bound lifecycle's tree (on its track),
        else on the flat tracer *track*."""
        if self.lifecycle is not None:
            self.lifecycle.span(name, start, end, category=category, **args)
        elif self.tracer is not None:
            self.tracer.span(category, name, start, end, track=track, **args)

    def instant(self, category: str, name: str, ts: float, track: str = "engine", **args) -> None:
        """A zero-duration event, routed like :meth:`span`."""
        if self.lifecycle is not None:
            self.lifecycle.instant(name, ts, category=category, **args)
        elif self.tracer is not None:
            self.tracer.instant(category, name, ts, track=track, **args)

    def count(self, name: str, n: float = 1, **labels: str) -> None:
        """Add *n* to the counter *name*."""
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc(n)

    def observe(
        self, name: str, value: float, buckets: tuple[float, ...] | None = None, **labels: str
    ) -> None:
        """Fold *value* into the histogram *name*."""
        if self.metrics is not None:
            self.metrics.histogram(name, buckets=buckets, **labels).observe(value)

    def audit(self, kind: str, query: str, ts: float, **payload) -> AuditRecord | None:
        """Append a journal record; returns it (``None`` without a journal)."""
        if self.journal is not None:
            return self.journal.append(kind, query, ts, **payload)
        return None


_SINKS = frozenset(name for name, spec in Obs.__dataclass_fields__.items() if spec.init)
Obs.NONE = Obs()
