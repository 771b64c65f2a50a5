"""Trace exporters: JSONL, Chrome-trace/Perfetto JSON, text summary.

* :func:`trace_to_jsonl` — a ``riveter-trace/1`` header line (event and
  dropped counts, so truncation is disclosed in the artifact itself)
  followed by one canonical-JSON event per line, in recording order.
  Because events carry only virtual-clock values the output is
  byte-identical across runs of the same query at the same scale/seed,
  which the test suite asserts.
* :func:`trace_to_chrome` — the Chrome Trace Event format (``ph`` X/i/M
  events with microsecond timestamps) that both ``chrome://tracing`` and
  https://ui.perfetto.dev open directly.  Each tracer ``track`` becomes
  a named thread.  Pass a :class:`~repro.obs.timeline.TimelineRecorder`
  (or parsed :class:`~repro.obs.timeline.Timeline`) as ``timeline`` to
  append its windowed series as Perfetto counter tracks (``ph`` C).
* :func:`text_summary` — per-category counts and time totals for humans.
* :func:`validate_chrome_trace` — the schema check CI runs against the
  smoke-test export.
"""

from __future__ import annotations

import json
import os
from collections import Counter as TallyCounter

from repro.obs.trace import TRACE_CATEGORIES, Tracer

__all__ = [
    "TRACE_JSONL_FORMAT",
    "trace_to_jsonl",
    "trace_to_chrome",
    "counter_track_events",
    "profile_lane_events",
    "write_jsonl",
    "write_chrome_trace",
    "text_summary",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
]

_SECONDS_TO_MICROS = 1e6

#: Format tag of the JSONL export's header line.
TRACE_JSONL_FORMAT = "riveter-trace/1"


def canonical_json(payload) -> str:
    """The one byte-stable JSON spelling: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def trace_to_jsonl(tracer: Tracer) -> str:
    """Serialize the buffer as canonical JSON lines (deterministic).

    The first line is a header carrying the format tag plus event and
    dropped counts — a truncated buffer is disclosed in the artifact,
    not just on the tracer object.
    """
    header = {
        "format": TRACE_JSONL_FORMAT,
        "events": len(tracer),
        "dropped": tracer.dropped,
    }
    lines = [canonical_json(header)]
    lines.extend(canonical_json(event.to_json()) for event in tracer.events)
    return "\n".join(lines) + "\n"


def write_jsonl(tracer: Tracer, path: str | os.PathLike) -> int:
    """Write the JSONL export to *path*; returns the event count."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(trace_to_jsonl(tracer))
    return len(tracer)


def counter_track_events(timeline, tid: int = 0) -> list[dict]:
    """Chrome ``ph`` C events for a timeline's windowed series.

    *timeline* is anything exposing ``samples`` (list of window
    aggregates) — a live :class:`~repro.obs.timeline.TimelineRecorder`
    or a parsed :class:`~repro.obs.timeline.Timeline`.  Each sample
    becomes one counter event at its window start carrying the window's
    last value, which Perfetto renders as a stepped counter track named
    after the series.
    """
    events: list[dict] = []
    for sample in timeline.samples:
        events.append(
            {
                "ph": "C",
                "pid": 1,
                "tid": tid,
                "cat": "timeline",
                "name": sample["series"],
                "ts": sample["ts"] * _SECONDS_TO_MICROS,
                "args": {"value": sample["last"]},
            }
        )
    return events


def profile_lane_events(profiler) -> list[dict]:
    """Real per-process worker lanes from a wall-clock profiler.

    *profiler* is a :class:`repro.obs.profile.QueryProfiler`.  Each
    worker incarnation becomes its own trace *process* named after its
    lane and carrying the **actual OS pid**, with one ``X`` span per
    retained morsel compute (timestamps are wall microseconds relative
    to the profiler's ``t0``).  Rendered alongside the virtual lanes,
    Perfetto shows both clock domains in one view — which is exactly why
    these events are only emitted when a profiler is explicitly passed
    (``--trace-out`` artifacts stay wall-free and byte-identical).
    """
    events: list[dict] = []
    for _, worker in sorted(profiler.workers.items()):
        events.append(
            {
                "ph": "M",
                "pid": worker.pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"riveter-wall:{worker.label}"},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": worker.pid,
                "tid": 0,
                "name": "thread_name",
                "args": {"name": "morsel compute (wall)"},
            }
        )
        for start, end, pipeline_id, morsel_index in worker.spans:
            events.append(
                {
                    "ph": "X",
                    "pid": worker.pid,
                    "tid": 0,
                    "cat": "profile",
                    "name": f"P{pipeline_id}:morsel {morsel_index}",
                    "ts": max(0.0, start) * _SECONDS_TO_MICROS,
                    "dur": max(0.0, end - start) * _SECONDS_TO_MICROS,
                    "args": {
                        "worker": worker.label,
                        "pipeline": pipeline_id,
                        "morsel": morsel_index,
                    },
                }
            )
    return events


def trace_to_chrome(tracer: Tracer, timeline=None, profile=None) -> dict:
    """Convert the buffer to the Chrome Trace Event JSON format.

    With *timeline* given, its windowed series are appended as counter
    tracks (see :func:`counter_track_events`).  With *profile* given (a
    :class:`repro.obs.profile.QueryProfiler`), real per-worker wall
    lanes are appended (see :func:`profile_lane_events`).
    """
    track_ids: dict[str, int] = {}
    trace_events: list[dict] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "riveter"},
        }
    ]
    body: list[dict] = []
    for event in tracer.events:
        tid = track_ids.get(event.track)
        if tid is None:
            tid = len(track_ids) + 1
            track_ids[event.track] = tid
            trace_events.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": event.track},
                }
            )
        entry = {
            "ph": event.phase,
            "pid": 1,
            "tid": tid,
            "cat": event.category,
            "name": event.name,
            "ts": event.ts * _SECONDS_TO_MICROS,
            "args": event.args,
        }
        if event.phase == "X":
            entry["dur"] = event.dur * _SECONDS_TO_MICROS
        else:
            entry["s"] = "t"  # thread-scoped instant
        body.append(entry)
    if timeline is not None:
        body.extend(counter_track_events(timeline))
    other = {"dropped_events": tracer.dropped, "clock": "virtual"}
    if profile is not None:
        body.extend(profile_lane_events(profile))
        other["clock"] = "virtual+wall"
        other["wall_lanes"] = len(profile.workers)
    return {
        "traceEvents": trace_events + body,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    tracer: Tracer, path: str | os.PathLike, timeline=None, profile=None
) -> int:
    """Write the Chrome-trace export to *path*; returns the event count."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(
            canonical_json(trace_to_chrome(tracer, timeline=timeline, profile=profile))
        )
    return len(tracer)


def text_summary(tracer: Tracer, metrics=None) -> str:
    """Human-readable roll-up of the recorded trace (and metrics)."""
    events = tracer.events
    counts: TallyCounter = TallyCounter(e.category for e in events)
    busy: dict[str, float] = {}
    for event in events:
        if event.phase == "X":
            busy[event.category] = busy.get(event.category, 0.0) + event.dur
    lines = [f"{len(events)} trace event(s), {tracer.dropped} dropped"]
    if tracer.dropped:
        lines.append(
            f"WARNING: buffer overflowed; the oldest {tracer.dropped} event(s) "
            "were discarded — totals below undercount the run"
        )
    if events:
        start = min(e.ts for e in events)
        end = max(e.ts + e.dur for e in events)
        lines.append(f"virtual timeline: {start:.3f}s .. {end:.3f}s")
    for category in sorted(counts):
        time_part = f", {busy[category]:.3f}s spanned" if category in busy else ""
        lines.append(f"  {category:<12} {counts[category]:>6} event(s){time_part}")
    if metrics is not None:
        pairs = metrics.items()
        if pairs:
            lines.append(f"{len(pairs)} metric(s):")
            for key, metric in pairs:
                entry = metric.to_json()
                if entry["type"] == "histogram":
                    lines.append(
                        f"  {key}: count={entry['count']} mean={entry['mean']:.4f} "
                        f"p50={metric.quantile(0.5):.4f} "
                        f"p95={metric.quantile(0.95):.4f} max={entry['max']:.4f}"
                    )
                else:
                    lines.append(f"  {key}: {entry['value']:.4f}")
    return "\n".join(lines)


def validate_chrome_trace(payload: dict) -> dict:
    """Check an exported Chrome trace against the documented schema.

    Returns ``{"events": n, "categories": {...}}`` on success; raises
    :class:`ValueError` describing the first violation otherwise.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"trace must be a JSON object, got {type(payload).__name__}")
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace must contain a non-empty 'traceEvents' list")
    categories: TallyCounter = TallyCounter()
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        phase = event.get("ph")
        if phase not in ("X", "i", "M", "C"):
            raise ValueError(f"{where}: unsupported phase {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where}: missing event name")
        if not isinstance(event.get("pid"), int) or not isinstance(event.get("tid"), int):
            raise ValueError(f"{where}: pid/tid must be integers")
        if phase == "M":
            continue
        category = event.get("cat")
        if category not in TRACE_CATEGORIES:
            raise ValueError(f"{where}: unknown category {category!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}: bad timestamp {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: span without a non-negative 'dur'")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            raise ValueError(f"{where}: instant without a scope")
        if not isinstance(event.get("args", {}), dict):
            raise ValueError(f"{where}: args must be an object")
        if phase == "C":
            values = event.get("args", {})
            if not values:
                raise ValueError(f"{where}: counter without values")
            for key, value in values.items():
                if not isinstance(value, (int, float)):
                    raise ValueError(
                        f"{where}: counter value {key!r} must be numeric, got {value!r}"
                    )
        categories[category] += 1
    return {"events": len(events), "categories": dict(sorted(categories.items()))}


def validate_chrome_trace_file(path: str | os.PathLike) -> dict:
    """Load *path* and validate it; returns the summary dict."""
    with open(path, "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    return validate_chrome_trace(payload)
