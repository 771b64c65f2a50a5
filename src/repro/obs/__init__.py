"""Observability: virtual-clock tracing, metrics, and trace export.

Riveter's claims are timeline arguments — suspension lag, persist and
reload latencies, adaptive decisions racing a termination window.  This
package makes those timelines *inspectable*:

* :mod:`repro.obs.trace` — a structured tracer whose spans and instant
  events are stamped by the engine's :class:`~repro.engine.clock.Clock`,
  so every recorded event lives on the same virtual timeline as the
  paper's figures;
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  histograms (rows per operator, bytes persisted/reloaded, suspension
  lag, estimator error);
* :mod:`repro.obs.export` — JSONL and Chrome-trace/Perfetto JSON
  exporters (including windowed counter tracks), a human-readable
  summary, and a schema validator used by CI;
* :mod:`repro.obs.timeline` — causal lifecycle span trees
  (:class:`~repro.obs.timeline.QueryLifecycle`) and windowed time-series
  rollups (:class:`~repro.obs.timeline.TimelineRecorder`) exported as
  the canonical ``riveter-timeline/1`` artifact read by
  ``python -m repro report``;
* :mod:`repro.obs.dashboard` — the text dashboard renderer behind
  ``python -m repro report`` (windowed quantiles, burn-rate sparklines,
  slowest-lifecycle causal breakdowns);
* :mod:`repro.obs.audit` — the decision audit journal: an append-only,
  replayable record of every suspend/resume deliberation (cost-model
  inputs, per-strategy estimates, chosen action, measured actuals) that
  powers ``python -m repro why`` and the estimator-accuracy report;
* :mod:`repro.obs.profile` — the opt-in wall-clock profiler: per-worker
  operator/kernel wall timers inside the parallel backend's forked
  workers (queue-wait / compute / ship phases), merged coordinator-side
  into a ``riveter-profile/1`` envelope with worker-utilization
  fractions, morsel-latency histograms, and collapsed-stack exports —
  without perturbing any virtual-clock artifact.

* :mod:`repro.obs.handle` — :class:`~repro.obs.handle.Obs`, the one value
  in which the sinks above travel.

Observation is strictly opt-in.  Every instrumented driver, session,
strategy, controller and selector takes ``obs=None`` (the shared disabled
``Obs.NONE``) and forwards only the handle, which routes events (bound
lifecycle tree, else flat tracer track) and is a no-op without the sink;
hot paths test one hoisted flag (``obs.tracing`` / ``recording`` /
``profiling``) before building an event's arguments.  A *leaf* consuming
exactly one sink (``optimize_plan(journal=)``, the exporters) takes that
sink; ``QueryExecutor`` alone also folds ``tracer=`` / ``metrics=`` /
``profiler=`` into the handle.  Contract: DESIGN.md, "Observability".
"""

from repro.obs.audit import (
    AUDIT_KINDS,
    AuditRecord,
    DecisionJournal,
    ReplayMismatch,
    ReplayResult,
    replay_decision,
    replay_journal,
    resolve_adaptive_action,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import TRACE_CATEGORIES, TraceEvent, Tracer
from repro.obs.export import (
    counter_track_events,
    profile_lane_events,
    text_summary,
    trace_to_chrome,
    trace_to_jsonl,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.dashboard import render_profile, render_report, sparkline
# Imported after metrics/trace: profile depends on repro.obs.metrics and
# (transitively) the engine's kernel registry.
from repro.obs.profile import (
    PROFILE_FORMAT,
    KernelRecorder,
    MorselProfile,
    ProfilingKernels,
    QueryProfiler,
    WorkerProfile,
    validate_profile,
    write_collapsed_stacks,
    write_profile,
)
from repro.obs.handle import Obs
from repro.obs.timeline import (
    TIMELINE_FORMAT,
    QueryLifecycle,
    Timeline,
    TimelineRecorder,
    derive_span_id,
    derive_trace_id,
    read_timeline,
    validate_span_tree,
)

__all__ = [
    "Obs",
    "TraceEvent",
    "Tracer",
    "TRACE_CATEGORIES",
    "AUDIT_KINDS",
    "AuditRecord",
    "DecisionJournal",
    "ReplayMismatch",
    "ReplayResult",
    "replay_decision",
    "replay_journal",
    "resolve_adaptive_action",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "trace_to_jsonl",
    "trace_to_chrome",
    "write_jsonl",
    "write_chrome_trace",
    "text_summary",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "counter_track_events",
    "TIMELINE_FORMAT",
    "QueryLifecycle",
    "Timeline",
    "TimelineRecorder",
    "derive_trace_id",
    "derive_span_id",
    "read_timeline",
    "validate_span_tree",
    "render_report",
    "render_profile",
    "sparkline",
    "PROFILE_FORMAT",
    "KernelRecorder",
    "MorselProfile",
    "ProfilingKernels",
    "QueryProfiler",
    "WorkerProfile",
    "validate_profile",
    "write_collapsed_stacks",
    "write_profile",
    "profile_lane_events",
]
