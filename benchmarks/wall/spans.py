"""Span recorder for the wall benchmark (lives outside ``src/`` on purpose).

One span per call into a layer's public function: name, start, end, the
span that caused it, and a trace id shared by all spans of one op.  Counts
(rows, bytes, ...) are recorded on the same span, so ratios are measured
where the work happens.  Spans stay in memory and are written once, when
the run ends.

``op()`` always measures, because end-to-end metrics are sums of op walls.
``span()`` measures only while the recorder is enabled (the traced rounds),
unless the caller passes ``always=True`` for a step an end-to-end family
metric needs (persist, reload).  A span's *self time* is its duration minus
the part of that interval its child spans cover; the benchmark is single
threaded, so children never overlap and the covered part is their sum.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

__all__ = ["Recorder", "Span", "self_times", "validate_spans", "write_jsonl"]

#: Slack for float comparisons between perf_counter readings.
_EPSILON = 1e-9


class Span:
    """One timed interval; a context manager that closes itself."""

    __slots__ = (
        "recorder", "span_id", "trace_id", "parent_id", "name", "scope",
        "start", "end", "counts", "recorded",
    )

    def __init__(self, recorder, span_id, trace_id, parent_id, name, scope, counts, recorded):
        self.recorder = recorder
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.scope = scope
        self.counts = counts
        self.recorded = recorded
        self.start = 0.0
        self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        self.recorder._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        self.recorder._stack.pop()
        if self.recorded:
            self.recorder.spans.append(self)
        return False  # QuerySuspended and friends pass through

    def to_json(self, epoch: float, self_seconds: float) -> dict:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "scope": self.scope,
            "start": self.start - epoch,
            "end": self.end - epoch,
            "self": self_seconds,
            "counts": self.counts,
        }


class _NullSpan:
    """Stand-in handed out while tracing is off: measures nothing."""

    seconds = 0.0

    def __init__(self) -> None:
        self.counts: dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL = _NullSpan()


class Recorder:
    """Collects spans; ``enabled`` is flipped per round by the driver loop."""

    def __init__(self) -> None:
        self.enabled = False
        #: free-form label copied onto every span: ``family/phase/round``
        self.scope = ""
        self.spans: list[Span] = []
        self.epoch = time.perf_counter()
        self._stack: list[Span] = []
        self._next_span = 0
        self._next_trace = 0

    def _make(self, name: str, root: bool, counts: dict) -> Span:
        parent = None if root or not self._stack else self._stack[-1]
        if parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
        else:
            trace_id = parent.trace_id
        span_id = self._next_span
        self._next_span += 1
        return Span(
            self, span_id, trace_id,
            None if parent is None else parent.span_id,
            name, self.scope, counts,
            # A child is kept only when its parent is, so trees stay whole.
            self.enabled and (parent is None or parent.recorded),
        )

    def op(self, name: str, **counts) -> Span:
        """Root span of one operation: always timed, opens a new trace id."""
        return self._make(name, True, counts)

    def span(self, name: str, always: bool = False, **counts):
        """Span around one call into a layer, child of the innermost open span."""
        if not (self.enabled or always):
            return _NULL
        return self._make(name, False, counts)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self seconds per span id: duration minus what child spans cover."""
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] = covered.get(span.parent_id, 0.0) + span.seconds
    return {span.span_id: span.seconds - covered.get(span.span_id, 0.0) for span in spans}


def validate_spans(records: list[dict]) -> list[str]:
    """Problems in a list of span records (``Span.to_json`` form); [] when sound.

    Every trace has exactly one root, every child names a parent of the same
    trace and lies inside its interval, and no self time is negative.
    """
    problems: list[str] = []
    by_id = {record["span"]: record for record in records}
    roots: dict[int, int] = {}
    for record in records:
        label = f"span {record['span']} ({record['name']})"
        if record["end"] + _EPSILON < record["start"]:
            problems.append(f"{label}: ends before it starts")
        if record["self"] < -1e-6:
            problems.append(f"{label}: negative self time {record['self']}")
        parent_id = record["parent"]
        if parent_id is None:
            roots[record["trace"]] = roots.get(record["trace"], 0) + 1
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(f"{label}: parent {parent_id} was not recorded")
            continue
        if parent["trace"] != record["trace"]:
            problems.append(f"{label}: trace id differs from its parent's")
        if (
            record["start"] + _EPSILON < parent["start"]
            or record["end"] > parent["end"] + _EPSILON
        ):
            problems.append(f"{label}: not inside parent {parent_id}")
    for trace_id in {record["trace"] for record in records}:
        if roots.get(trace_id, 0) != 1:
            problems.append(f"trace {trace_id}: {roots.get(trace_id, 0)} roots, expected 1")
    return problems


def write_jsonl(recorder: Recorder, path: Path) -> list[dict]:
    """Write every recorded span to *path*, one JSON object a line."""
    selfs = self_times(recorder.spans)
    records = [
        span.to_json(recorder.epoch, selfs[span.span_id])
        for span in sorted(recorder.spans, key=lambda s: s.span_id)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as stream:
        for record in records:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
    return records
