"""Causal lifecycle spans and time-series rollups (``riveter-timeline/1``).

PR 1's tracer records *flat* events; this module adds the two structures
regression analysis actually needs (the ScanTwin premise: per-tenant
telemetry timelines):

* :class:`QueryLifecycle` — stitches one rooted span tree per query.
  Every span carries a deterministic ``trace_id`` (one per query),
  ``span_id``, and ``parent_id``; the root spans ``[arrival, finished]``
  and its leaf children are the query's queued/run/suspended phase
  segments (from :class:`repro.cloud.segments.SegmentTimeline`), so the
  leaves tile the root exactly.  Persist/reload spans and admission /
  decision / reclamation instants attach under the run slice that
  contains them, giving each query a causal chain from arrival to finish.
* :class:`TimelineRecorder` — samples fleet state and registry metrics
  into fixed virtual-time windows (queue depth, in-flight workers,
  suspended count, reserved memory, spot price, burn rates) and collects
  lifecycle spans, completions, and SLO alerts into one canonical
  ``riveter-timeline/1`` JSONL artifact.

Both are pure functions of the virtual clock: ids are content-derived
(sha1 of the query name and an allocation counter), samples carry only
virtual timestamps, and the JSONL serialization uses sorted keys — so
same-seed runs produce byte-identical artifacts, the same contract the
fleet report and decision journal already honour.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.obs.export import canonical_json
from repro.obs.handle import Obs
from repro.obs.trace import TraceEvent

__all__ = [
    "TIMELINE_FORMAT",
    "derive_trace_id",
    "derive_span_id",
    "QueryLifecycle",
    "TimelineRecorder",
    "Timeline",
    "read_timeline",
    "validate_span_tree",
]

TIMELINE_FORMAT = "riveter-timeline/1"

#: Slack allowed when checking that a child span nests within its parent
#: (floating-point noise from virtual-clock arithmetic).
_NEST_EPSILON = 1e-6


def derive_trace_id(name: str) -> str:
    """Deterministic 16-hex trace id for one query lifecycle."""
    return hashlib.sha1(f"riveter-trace:{name}".encode("utf-8")).hexdigest()[:16]


def derive_span_id(trace_id: str, index: int) -> str:
    """Deterministic 12-hex span id: *index*-th allocation in *trace_id*."""
    return hashlib.sha1(f"{trace_id}#{index}".encode("utf-8")).hexdigest()[:12]


class QueryLifecycle:
    """Builds one causal span tree for one query.

    Events are mirrored into the handle's tracer (so Perfetto shows the
    tree on the query's lane) and its :class:`TimelineRecorder` (so the
    tree lands in the timeline artifact); drivers open one through
    :meth:`Obs.open_lifecycle <repro.obs.handle.Obs.open_lifecycle>`.
    The root span is emitted at :meth:`finish`, which is when
    its duration is known; children may therefore appear *before* their
    parent in recording order — consumers resolve parents by id, not by
    position.
    """

    def __init__(
        self,
        query_name: str,
        arrival_time: float,
        obs: Obs | None = None,
        category: str = "fleet",
        trace_label: str | None = None,
        **root_args,
    ):
        self.query = query_name
        self.arrival_time = arrival_time
        self.obs = Obs.of(obs)
        self.category = category
        self.track = f"query:{query_name}"
        # trace_label disambiguates repeated runs of the same query in
        # one artifact (e.g. a strategy sweep); ids stay deterministic.
        self.trace_id = derive_trace_id(trace_label if trace_label is not None else query_name)
        self._counter = 0
        self.root_id = self._new_id()
        self.root_args = dict(root_args)
        #: Pre-allocated id of the next run-slice span (see
        #: :meth:`begin_slice`), consumed by :meth:`flush_segments`.
        self.current_slice_id: str | None = None
        self.finished_at: float | None = None
        self._flushed_segments = 0

    def __repr__(self) -> str:
        return f"QueryLifecycle(query={self.query!r}, trace_id={self.trace_id})"

    # -- identity ------------------------------------------------------------
    def _new_id(self) -> str:
        span_id = derive_span_id(self.trace_id, self._counter)
        self._counter += 1
        return span_id

    # -- emission ------------------------------------------------------------
    def _emit(self, event: TraceEvent) -> None:
        if self.obs.tracing:
            self.obs.tracer.record(event)
        if self.obs.recording:
            self.obs.recorder.add_span(event)

    def instant(
        self,
        name: str,
        ts: float,
        parent_id: str | None = None,
        category: str | None = None,
        **args,
    ) -> str:
        """Record an instant in the tree; returns its span id.

        Defaults to hanging off the current run slice when one is open,
        else off the root.
        """
        span_id = self._new_id()
        self._emit(
            TraceEvent(
                ts=ts,
                category=category if category is not None else self.category,
                name=name,
                track=self.track,
                args=args,
                trace_id=self.trace_id,
                span_id=span_id,
                parent_id=parent_id if parent_id is not None else self._default_parent(),
            )
        )
        return span_id

    def span(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: str | None = None,
        category: str | None = None,
        span_id: str | None = None,
        **args,
    ) -> str:
        """Record a complete span in the tree; returns its span id."""
        if span_id is None:
            span_id = self._new_id()
        self._emit(
            TraceEvent(
                ts=start,
                category=category if category is not None else self.category,
                name=name,
                phase="X",
                dur=max(0.0, end - start),
                track=self.track,
                args=args,
                trace_id=self.trace_id,
                span_id=span_id,
                parent_id=parent_id if parent_id is not None else self._default_parent(),
            )
        )
        return span_id

    def _default_parent(self) -> str:
        return self.current_slice_id if self.current_slice_id is not None else self.root_id

    # -- lifecycle steps -----------------------------------------------------
    def begin_slice(self, **args) -> str:
        """Pre-allocate the span id of the next run slice.

        Persist/reload spans and decision instants recorded while the
        slice executes parent to this id; the span itself is emitted by
        :meth:`flush_segments` once the slice's end is known.
        """
        self.current_slice_id = self._new_id()
        return self.current_slice_id

    def flush_segments(self, segments: list[dict]) -> None:
        """Emit spans for phase *segments* appended since the last flush.

        Run segments consume the id pre-allocated by :meth:`begin_slice`
        (when one is pending), so events recorded mid-slice point at a
        parent that materializes here.  All segment spans are children of
        the root and — because :class:`SegmentTimeline` keeps segments
        contiguous — they tile ``[arrival, finished]`` exactly.
        """
        for segment in segments[self._flushed_segments:]:
            phase = segment["phase"]
            span_id = None
            if phase == "run" and self.current_slice_id is not None:
                span_id = self.current_slice_id
                self.current_slice_id = None
            args = {k: v for k, v in segment.items() if k not in ("phase", "start", "end")}
            self.span(
                phase,
                segment["start"],
                segment["end"],
                parent_id=self.root_id,
                span_id=span_id,
                **args,
            )
        self._flushed_segments = len(segments)

    def finish(self, finished_at: float, segments: list[dict] | None = None, **args) -> str:
        """Close the tree: flush remaining segments, emit the root span."""
        if segments is not None:
            self.flush_segments(segments)
        self.current_slice_id = None
        self.finished_at = finished_at
        root_args = dict(self.root_args)
        root_args.update(args)
        self._emit(
            TraceEvent(
                ts=self.arrival_time,
                category=self.category,
                name=f"lifecycle:{self.query}",
                phase="X",
                dur=max(0.0, finished_at - self.arrival_time),
                track=self.track,
                args=root_args,
                trace_id=self.trace_id,
                span_id=self.root_id,
                parent_id=None,
            )
        )
        return self.root_id


def _span_record(event: TraceEvent) -> dict:
    """Canonical artifact record for a lifecycle trace event."""
    return {
        "type": "span",
        "trace_id": event.trace_id,
        "span_id": event.span_id,
        "parent_id": event.parent_id,
        "cat": event.category,
        "name": event.name,
        "ph": event.phase,
        "ts": event.ts,
        "dur": event.dur,
        "track": event.track,
        "args": event.args,
    }


class TimelineRecorder:
    """Windowed counter samples plus lifecycle spans, in one artifact.

    :meth:`sample` folds point observations into fixed virtual-time
    windows of ``window_seconds`` (per window: count/sum/min/max and the
    last value in call order — deterministic because callers run on the
    virtual clock).  Spans, completions, and alerts are appended in call
    order.  :meth:`to_jsonl` serializes everything as canonical JSON
    lines under a ``riveter-timeline/1`` header that also discloses the
    tracer's dropped-event count.
    """

    def __init__(self, window_seconds: float = 10.0):
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        self.window_seconds = float(window_seconds)
        self._windows: dict[str, dict[int, dict]] = {}
        self.spans: list[dict] = []
        self.completions: list[dict] = []
        self.alerts: list[dict] = []
        self.meta: dict = {}

    def __repr__(self) -> str:
        return (
            f"TimelineRecorder(series={len(self._windows)}, "
            f"spans={len(self.spans)}, completions={len(self.completions)}, "
            f"alerts={len(self.alerts)})"
        )

    # -- sampling ------------------------------------------------------------
    def window_of(self, ts: float) -> int:
        return int(ts // self.window_seconds)

    def sample(self, series: str, ts: float, value: float) -> None:
        """Fold one observation of *series* at virtual time *ts*."""
        value = float(value)
        window = self.window_of(ts)
        buckets = self._windows.setdefault(series, {})
        agg = buckets.get(window)
        if agg is None:
            buckets[window] = {
                "count": 1,
                "sum": value,
                "min": value,
                "max": value,
                "last": value,
            }
            return
        agg["count"] += 1
        agg["sum"] += value
        agg["min"] = min(agg["min"], value)
        agg["max"] = max(agg["max"], value)
        agg["last"] = value

    def sample_registry(self, ts: float, registry, names: tuple[str, ...] | None = None) -> None:
        """Sample every counter/gauge in *registry* (optionally filtered).

        Histograms are skipped — their quantiles are already windowed by
        the completion records.  *names* filters on the metric's base
        name (before the label set).
        """
        for key, metric in registry.items():
            entry = metric.to_json()
            if entry["type"] not in ("counter", "gauge"):
                continue
            base = key.split("{", 1)[0]
            if names is not None and base not in names:
                continue
            self.sample(key, ts, entry["value"])

    # -- structured records ----------------------------------------------------
    def add_span(self, event: TraceEvent) -> None:
        self.spans.append(_span_record(event))

    def add_completion(self, payload: dict) -> None:
        self.completions.append(dict(payload, type="completion"))

    def add_alert(self, payload: dict) -> None:
        self.alerts.append(dict(payload, type="alert"))

    def set_meta(self, **meta) -> None:
        """Header metadata (policy, seed, duration, ...); merged."""
        self.meta.update(meta)

    # -- inspection ------------------------------------------------------------
    @property
    def series_names(self) -> list[str]:
        return sorted(self._windows)

    @property
    def samples(self) -> list[dict]:
        """All window aggregates, ordered by ``(series, window)``."""
        out: list[dict] = []
        for series in sorted(self._windows):
            buckets = self._windows[series]
            for window in sorted(buckets):
                agg = buckets[window]
                out.append(
                    {
                        "type": "sample",
                        "series": series,
                        "window": window,
                        "ts": window * self.window_seconds,
                        **agg,
                    }
                )
        return out

    # -- serialization ---------------------------------------------------------
    def header(self, dropped_events: int = 0) -> dict:
        payload = {
            "format": TIMELINE_FORMAT,
            "window_seconds": self.window_seconds,
            "series": self.series_names,
            "counts": {
                "samples": sum(len(b) for b in self._windows.values()),
                "spans": len(self.spans),
                "completions": len(self.completions),
                "alerts": len(self.alerts),
            },
            "dropped_events": int(dropped_events),
        }
        payload.update(self.meta)
        return payload

    def to_jsonl(self, dropped_events: int = 0) -> str:
        """Canonical JSON lines; byte-identical across same-seed runs."""
        lines = [canonical_json(self.header(dropped_events))]
        lines.extend(canonical_json(record) for record in self.samples)
        lines.extend(canonical_json(record) for record in self.spans)
        lines.extend(canonical_json(record) for record in self.completions)
        lines.extend(canonical_json(record) for record in self.alerts)
        return "\n".join(lines) + "\n"

    def write(self, path: str | os.PathLike, dropped_events: int = 0) -> int:
        """Write the artifact; returns the number of records (sans header)."""
        text = self.to_jsonl(dropped_events)
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text)
        return text.count("\n") - 1


@dataclass
class Timeline:
    """A parsed ``riveter-timeline/1`` artifact."""

    header: dict
    samples: list[dict] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    completions: list[dict] = field(default_factory=list)
    alerts: list[dict] = field(default_factory=list)

    @property
    def window_seconds(self) -> float:
        return float(self.header["window_seconds"])

    def series(self, name: str) -> list[dict]:
        """Samples of one series, ordered by window."""
        rows = [s for s in self.samples if s["series"] == name]
        rows.sort(key=lambda s: s["window"])
        return rows

    def roots(self) -> list[dict]:
        """Root lifecycle spans (no parent), in recording order."""
        return [s for s in self.spans if s.get("parent_id") is None and s["ph"] == "X"]

    def children(self, span_id: str) -> list[dict]:
        return [s for s in self.spans if s.get("parent_id") == span_id]

    def subtree(self, span_id: str) -> list[dict]:
        """Every span under *span_id* (depth-first, excluding it)."""
        out: list[dict] = []
        stack = [span_id]
        while stack:
            parent = stack.pop()
            for child in self.children(parent):
                out.append(child)
                stack.append(child["span_id"])
        return out

    @classmethod
    def from_jsonl(cls, text: str) -> "Timeline":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty timeline artifact")
        header = json.loads(lines[0])
        if header.get("format") != TIMELINE_FORMAT:
            raise ValueError(
                f"not a {TIMELINE_FORMAT} artifact (format={header.get('format')!r})"
            )
        timeline = cls(header=header)
        sinks = {
            "sample": timeline.samples,
            "span": timeline.spans,
            "completion": timeline.completions,
            "alert": timeline.alerts,
        }
        for index, line in enumerate(lines[1:], start=2):
            record = json.loads(line)
            kind = record.get("type")
            if kind not in sinks:
                raise ValueError(f"line {index}: unknown record type {kind!r}")
            sinks[kind].append(record)
        return timeline


def read_timeline(path: str | os.PathLike) -> Timeline:
    """Load and parse a ``riveter-timeline/1`` artifact from *path*."""
    with open(path, "r", encoding="utf-8") as stream:
        return Timeline.from_jsonl(stream.read())


def validate_span_tree(spans: list[dict], epsilon: float = _NEST_EPSILON) -> dict:
    """Check span-tree well-formedness; returns summary counts.

    Verifies that every non-root span names a parent that exists in
    *spans* (a "live" parent) and that every child's interval nests
    within its parent's, instants included.  Raises :class:`ValueError`
    on the first violation.
    """
    by_id: dict[str, dict] = {}
    for span in spans:
        span_id = span.get("span_id")
        if not span_id:
            raise ValueError(f"span without an id: {span.get('name')!r}")
        if span_id in by_id:
            raise ValueError(f"duplicate span id {span_id!r}")
        by_id[span_id] = span
    roots = 0
    for span in spans:
        parent_id = span.get("parent_id")
        if parent_id is None:
            roots += 1
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            raise ValueError(
                f"span {span['span_id']} ({span.get('name')!r}) has no live "
                f"parent {parent_id!r}"
            )
        if span.get("trace_id") != parent.get("trace_id"):
            raise ValueError(
                f"span {span['span_id']} crosses trace boundaries "
                f"({span.get('trace_id')} under {parent.get('trace_id')})"
            )
        start, end = span["ts"], span["ts"] + span.get("dur", 0.0)
        pstart, pend = parent["ts"], parent["ts"] + parent.get("dur", 0.0)
        if start < pstart - epsilon or end > pend + epsilon:
            raise ValueError(
                f"span {span['span_id']} ({span.get('name')!r}) "
                f"[{start:.6f}, {end:.6f}] escapes parent "
                f"{parent_id} [{pstart:.6f}, {pend:.6f}]"
            )
    return {"spans": len(spans), "roots": roots}
