"""Wall-clock profiler and per-worker telemetry for morsel execution.

Everything else in :mod:`repro.obs` rides the *virtual* clock; this
module is the one deliberate exception.  The parallel backend's forked
workers do the actual compute, and a virtual timeline cannot say where
their wall time goes — kernel dispatch, queue waits, result shipping.
:class:`QueryProfiler` measures exactly that, without perturbing any
deterministic artifact:

* **Worker-side collection.**  When a profiler is attached, the
  executor's compute step (:meth:`~repro.engine.executor.QueryExecutor.
  compute_morsel`) times each operator slot with ``time.perf_counter``
  and the active :class:`ProfilingKernels` wrapper attributes kernel
  wall time to the operator slot being executed.  The per-morsel totals
  travel as one small :class:`MorselProfile` piggybacked on the
  ``MorselResult`` — the morsel-order apply protocol and the
  suspend-at-morsel-boundary drain are untouched.
* **Coordinator-side merge.**  ``apply_morsel`` folds each delta into
  fixed-size aggregation state: per-operator wall totals keyed by
  ``(pipeline, slot)``, per-worker :class:`WorkerProfile` buckets
  (compute / queue-wait / ship seconds, a fixed-bucket morsel-latency
  histogram, and a bounded span buffer for the Perfetto lanes).  No
  per-morsel allocation survives the merge.
* **Clock domain.**  ``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux
  and system-wide, and the parallel backend is fork-only, so worker
  timestamps are directly comparable to the coordinator's ``t0``.

Three export views: the ``riveter-profile/1`` JSON envelope
(:meth:`QueryProfiler.to_json`, validated by :func:`validate_profile`),
a collapsed-stack text export of the operator→kernel wall hierarchy
(:meth:`QueryProfiler.collapsed_stacks`, ``flamegraph.pl`` compatible),
and real per-process worker lanes in the Chrome trace
(:func:`repro.obs.export.profile_lane_events`).

Known approximations, disclosed rather than hidden: a worker's result
*ship* time is measured around ``Queue.put`` and carried on the *next*
morsel's delta, so each worker's final put is uncounted; a resumed
executor starts fresh pipeline stats for the in-flight pipeline, so
wall/virtual attribution after a mid-pipeline resume covers only the
post-resume portion; and the overall ``profile_overhead_ratio`` is
reported by ``benchmarks/bench_parallel.py`` (never gated — wall time
is host-dependent, mirroring the ``bench_compare.py`` wall exception).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from repro.engine.kernels import KernelSet
from repro.obs.metrics import MetricsRegistry, WALL_BUCKETS

__all__ = [
    "PROFILE_FORMAT",
    "LATENCY_BUCKETS",
    "MAX_SPANS_PER_WORKER",
    "MorselProfile",
    "WorkerProfile",
    "KernelRecorder",
    "ProfilingKernels",
    "QueryProfiler",
    "validate_profile",
    "write_profile",
    "write_collapsed_stacks",
]

#: Format tag of the JSON envelope.
PROFILE_FORMAT = "riveter-profile/1"

#: Morsel compute-latency histogram bucket upper bounds, wall seconds.
#: One extra overflow slot is appended at merge time.
LATENCY_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

#: Per-worker span-buffer cap for the Perfetto wall lanes.  Aggregation
#: state stays fixed-size; overflow is counted, not silently dropped.
MAX_SPANS_PER_WORKER = 256


@dataclass
class MorselProfile:
    """One morsel's wall-clock delta, shipped on the ``MorselResult``.

    ``op_wall`` is aligned with the pipeline's stats slots (source at 0,
    operators, sink-prepare last); ``kernel_wall`` maps ``(slot,
    method)`` to accumulated kernel seconds.  ``worker`` is the backend
    worker slot (``-1`` means coordinator-inline: the simulated backend
    or the parallel backend's single-morsel fallback).  Picklable — the
    parallel backend ships these across the worker result queue.
    """

    morsel_index: int
    pid: int
    started: float
    ended: float
    op_wall: list[float]
    kernel_wall: dict = field(default_factory=dict)
    worker: int = -1
    queue_wait: float = 0.0
    ship: float = 0.0


class KernelRecorder:
    """Mutable scratch the profiled compute path shares with the kernels.

    The executor sets ``slot`` before running each operator; the
    :class:`ProfilingKernels` wrapper adds its measured call durations
    under that slot.  ``begin``/``take`` bracket one morsel (or the
    binding of one pipeline's probe states), so other kernel calls (e.g.
    inside a sink's ``finalize``) are discarded rather than
    misattributed.
    """

    __slots__ = ("slot", "_wall")

    def __init__(self) -> None:
        self.slot = 0
        self._wall: dict = {}

    def begin(self) -> None:
        self.slot = 0
        self._wall = {}

    def add(self, method: str, seconds: float) -> None:
        key = (self.slot, method)
        self._wall[key] = self._wall.get(key, 0.0) + seconds

    def take(self) -> dict:
        wall = self._wall
        self._wall = {}
        return wall


class ProfilingKernels(KernelSet):
    """Delegating kernel set that wall-times every interface call.

    Installed via ``set_kernels`` for the duration of a profiled run, so
    forked parallel workers inherit it; results are bit-identical to the
    wrapped set because every call is a pure pass-through.
    """

    def __init__(self, inner: KernelSet, recorder: KernelRecorder):
        self._inner = inner
        self._recorder = recorder
        self.name = inner.name

    def evaluate(self, expression, chunk):
        started = time.perf_counter()
        try:
            return self._inner.evaluate(expression, chunk)
        finally:
            self._recorder.add("evaluate", time.perf_counter() - started)

    def group_rows(self, arrays):
        started = time.perf_counter()
        try:
            return self._inner.group_rows(arrays)
        finally:
            self._recorder.add("group_rows", time.perf_counter() - started)

    def grouped_sum(self, group_ids, values, num_groups):
        started = time.perf_counter()
        try:
            return self._inner.grouped_sum(group_ids, values, num_groups)
        finally:
            self._recorder.add("grouped_sum", time.perf_counter() - started)

    def grouped_count(self, group_ids, num_groups):
        started = time.perf_counter()
        try:
            return self._inner.grouped_count(group_ids, num_groups)
        finally:
            self._recorder.add("grouped_count", time.perf_counter() - started)

    def grouped_extreme(self, group_ids, values, num_groups, take_min):
        started = time.perf_counter()
        try:
            return self._inner.grouped_extreme(group_ids, values, num_groups, take_min)
        finally:
            self._recorder.add("grouped_extreme", time.perf_counter() - started)

    def join_codes(self, arrays):
        started = time.perf_counter()
        try:
            return self._inner.join_codes(arrays)
        finally:
            self._recorder.add("join_codes", time.perf_counter() - started)

    def build_order(self, codes):
        started = time.perf_counter()
        try:
            return self._inner.build_order(codes)
        finally:
            self._recorder.add("build_order", time.perf_counter() - started)

    def probe_index(self, codes_sorted):
        started = time.perf_counter()
        try:
            return self._inner.probe_index(codes_sorted)
        finally:
            self._recorder.add("probe_index", time.perf_counter() - started)

    def probe_ranges(self, codes_sorted, probe_codes, index=None):
        started = time.perf_counter()
        try:
            return self._inner.probe_ranges(codes_sorted, probe_codes, index)
        finally:
            self._recorder.add("probe_ranges", time.perf_counter() - started)

    def expand_matches(self, left, counts, order):
        started = time.perf_counter()
        try:
            return self._inner.expand_matches(left, counts, order)
        finally:
            self._recorder.add("expand_matches", time.perf_counter() - started)


class WorkerProfile:
    """Fixed-size wall-time aggregation for one worker process."""

    __slots__ = (
        "worker",
        "pid",
        "morsels",
        "compute_seconds",
        "queue_wait_seconds",
        "ship_seconds",
        "first_ts",
        "last_ts",
        "latency_counts",
        "spans",
        "spans_dropped",
        "_max_spans",
    )

    def __init__(self, worker: int, pid: int, max_spans: int = MAX_SPANS_PER_WORKER):
        self.worker = int(worker)
        self.pid = int(pid)
        self.morsels = 0
        self.compute_seconds = 0.0
        self.queue_wait_seconds = 0.0
        self.ship_seconds = 0.0
        self.first_ts: float | None = None
        self.last_ts: float | None = None
        self.latency_counts = [0] * (len(LATENCY_BUCKETS) + 1)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._max_spans = int(max_spans)

    @property
    def label(self) -> str:
        return "inline" if self.worker < 0 else f"worker-{self.worker}"

    @property
    def span_seconds(self) -> float:
        """First-activity → last-compute extent of this worker's work."""
        if self.first_ts is None or self.last_ts is None:
            return 0.0
        return max(0.0, self.last_ts - self.first_ts)

    def record(self, profile: MorselProfile, t0: float, pipeline_id: int) -> None:
        compute = max(0.0, profile.ended - profile.started)
        self.morsels += 1
        self.compute_seconds += compute
        self.queue_wait_seconds += max(0.0, profile.queue_wait)
        self.ship_seconds += max(0.0, profile.ship)
        low = profile.started - max(0.0, profile.queue_wait)
        self.first_ts = low if self.first_ts is None else min(self.first_ts, low)
        self.last_ts = (
            profile.ended if self.last_ts is None else max(self.last_ts, profile.ended)
        )
        for index, bound in enumerate(LATENCY_BUCKETS):
            if compute <= bound:
                self.latency_counts[index] += 1
                break
        else:
            self.latency_counts[-1] += 1
        if len(self.spans) < self._max_spans:
            self.spans.append(
                (profile.started - t0, profile.ended - t0, pipeline_id, profile.morsel_index)
            )
        else:
            self.spans_dropped += 1

    def utilization(self) -> dict:
        """Busy / queue-wait / ship / idle fractions of the active span.

        Fractions are relative to this worker's own first-activity →
        last-compute extent (queue waits before the first morsel are
        included).  Each fraction is clamped to ``[0, 1]``; the final
        per-worker result ship is uncounted (see the module docstring),
        which slightly inflates ``idle``.
        """
        span = self.span_seconds
        if span <= 0.0:
            return {"busy": 0.0, "queue_wait": 0.0, "ship": 0.0, "idle": 0.0}
        busy = min(1.0, self.compute_seconds / span)
        queue_wait = min(1.0, self.queue_wait_seconds / span)
        ship = min(1.0, self.ship_seconds / span)
        idle = max(0.0, 1.0 - busy - queue_wait - ship)
        return {
            "busy": round(busy, 4),
            "queue_wait": round(queue_wait, 4),
            "ship": round(ship, 4),
            "idle": round(idle, 4),
        }

    def to_json(self) -> dict:
        return {
            "worker": self.worker,
            "label": self.label,
            "pid": self.pid,
            "morsels": self.morsels,
            "compute_seconds": round(self.compute_seconds, 6),
            "queue_wait_seconds": round(self.queue_wait_seconds, 6),
            "ship_seconds": round(self.ship_seconds, 6),
            "span_seconds": round(self.span_seconds, 6),
            "utilization": self.utilization(),
            "morsel_latency": {
                "buckets": list(LATENCY_BUCKETS),
                "counts": list(self.latency_counts),
            },
            "spans_retained": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }


class _OperatorProfile:
    """Merged wall/virtual attribution for one ``(pipeline, slot)``."""

    __slots__ = (
        "pipeline",
        "slot",
        "label",
        "kind",
        "wall_seconds",
        "breaker_wall_seconds",
        "morsels",
        "kernels",
        "virtual_seconds",
        "rows",
    )

    def __init__(self, pipeline: int, slot: int, label: str, kind: str):
        self.pipeline = int(pipeline)
        self.slot = int(slot)
        self.label = label
        self.kind = kind
        self.wall_seconds = 0.0
        self.breaker_wall_seconds = 0.0
        self.morsels = 0
        self.kernels: dict[str, float] = {}
        self.virtual_seconds = 0.0
        self.rows = 0

    def to_json(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "slot": self.slot,
            "label": self.label,
            "kind": self.kind,
            "morsels": self.morsels,
            "wall_seconds": round(self.wall_seconds, 6),
            "breaker_wall_seconds": round(self.breaker_wall_seconds, 6),
            "virtual_seconds": round(self.virtual_seconds, 6),
            "rows": self.rows,
            "kernels": {
                method: round(self.kernels[method], 6) for method in sorted(self.kernels)
            },
        }


class QueryProfiler:
    """Coordinator-side merge of per-morsel wall-clock deltas.

    One profiler spans one logical query lifecycle: pass the same
    instance to the pre-suspension and resumed executors so the merged
    envelope covers the whole run (``finish`` fires only on the run
    that completes).
    """

    def __init__(self, max_spans_per_worker: int = MAX_SPANS_PER_WORKER):
        self._t0 = time.perf_counter()
        self.kernel_recorder = KernelRecorder()
        self.query_name = "query"
        self.backend: str | None = None
        self.kernels_name: str | None = None
        self.num_threads: int | None = None
        self.morsel_size: int | None = None
        self.operators: dict[tuple, _OperatorProfile] = {}
        self.workers: dict[tuple, WorkerProfile] = {}
        self.total_wall_seconds = 0.0
        self.virtual_seconds = 0.0
        self._max_spans = int(max_spans_per_worker)
        self._published = False

    @property
    def t0(self) -> float:
        """``perf_counter`` origin all exported wall timestamps are relative to."""
        return self._t0

    # -- executor hooks ------------------------------------------------------
    def bind(self, executor) -> None:
        """Adopt a (possibly resumed) executor's run configuration."""
        self.query_name = executor.query_name
        config = executor.config
        self.backend = config.backend.name
        self.kernels_name = config.kernels.name
        self.num_threads = executor.profile.num_threads
        self.morsel_size = config.morsel_size

    def wrap_kernels(self, kernels: KernelSet) -> ProfilingKernels:
        return ProfilingKernels(kernels, self.kernel_recorder)

    def _operator(self, pipeline_id: int, slot: int, op_stats) -> _OperatorProfile:
        key = (pipeline_id, slot)
        entry = self.operators.get(key)
        if entry is None:
            entry = _OperatorProfile(pipeline_id, slot, op_stats.label, op_stats.kind)
            self.operators[key] = entry
        return entry

    def worker_profile(self, worker: int, pid: int) -> WorkerProfile:
        """Aggregation bucket for one ``(worker slot, pid)`` identity.

        The parallel backend forks fresh workers per pipeline, so the
        same slot can appear under several pids over a query; each
        incarnation gets its own bucket (and its own Perfetto lane).
        """
        key = (int(worker), int(pid))
        entry = self.workers.get(key)
        if entry is None:
            entry = WorkerProfile(key[0], key[1], self._max_spans)
            self.workers[key] = entry
        return entry

    def record_morsel(self, run, profile: MorselProfile) -> None:
        """Fold one morsel's delta into the aggregation state."""
        pipeline_id = run.pipeline.pipeline_id
        ops = run.stats.operators
        for slot, seconds in enumerate(profile.op_wall):
            entry = self._operator(pipeline_id, slot, ops[slot])
            entry.wall_seconds += max(0.0, seconds)
            entry.morsels += 1
        for (slot, method), seconds in profile.kernel_wall.items():
            entry = self._operator(pipeline_id, slot, ops[slot])
            entry.kernels[method] = entry.kernels.get(method, 0.0) + seconds
        self.worker_profile(profile.worker, profile.pid).record(
            profile, self._t0, pipeline_id
        )

    def record_bind(self, run, kernel_wall: dict) -> None:
        """Kernel wall time of binding the pipeline's probe states.

        Binding runs on the coordinator before the first morsel, so its
        kernel seconds count toward the binding operator's wall and
        kernel totals but not toward its morsel count.
        """
        ops = run.stats.operators
        for (slot, method), seconds in kernel_wall.items():
            entry = self._operator(run.pipeline.pipeline_id, slot, ops[slot])
            entry.wall_seconds += seconds
            entry.kernels[method] = entry.kernels.get(method, 0.0) + seconds

    def record_breaker(self, run, seconds: float) -> None:
        """Coordinator-side combine+finalize wall time, on the sink slot."""
        ops = run.stats.operators
        entry = self._operator(run.pipeline.pipeline_id, len(ops) - 1, ops[-1])
        entry.breaker_wall_seconds += max(0.0, seconds)

    def finish(self, stats, metrics: MetricsRegistry | None = None) -> None:
        """Stamp the total wall time and attach virtual attribution."""
        self.total_wall_seconds = time.perf_counter() - self._t0
        self.virtual_seconds = stats.duration
        for pipeline_stats in stats.pipelines:
            for slot, op in enumerate(pipeline_stats.operators):
                entry = self._operator(pipeline_stats.pipeline_id, slot, op)
                entry.virtual_seconds = op.seconds
                entry.rows = op.rows
        if metrics is not None and not self._published:
            self._published = True
            self._publish(metrics)

    def _publish(self, metrics: MetricsRegistry) -> None:
        """Per-worker wall histograms (host-dependent; never gated)."""
        for _, worker in sorted(self.workers.items()):
            label = worker.label
            metrics.histogram(
                "wall_compute_seconds", buckets=WALL_BUCKETS, worker=label
            ).observe(worker.compute_seconds)
            metrics.histogram(
                "wall_queue_wait_seconds", buckets=WALL_BUCKETS, worker=label
            ).observe(worker.queue_wait_seconds)
            metrics.histogram(
                "wall_ship_seconds", buckets=WALL_BUCKETS, worker=label
            ).observe(worker.ship_seconds)

    # -- exports -------------------------------------------------------------
    def merged_latency(self) -> dict:
        """Morsel compute-latency histogram summed across workers."""
        counts = [0] * (len(LATENCY_BUCKETS) + 1)
        for worker in self.workers.values():
            for index, value in enumerate(worker.latency_counts):
                counts[index] += value
        return {"buckets": list(LATENCY_BUCKETS), "counts": counts}

    def to_json(self) -> dict:
        """The ``riveter-profile/1`` envelope (see :func:`validate_profile`)."""
        workers = [entry.to_json() for _, entry in sorted(self.workers.items())]
        return {
            "format": PROFILE_FORMAT,
            "query": self.query_name,
            "backend": self.backend or "unknown",
            "kernels": self.kernels_name or "unknown",
            "num_threads": int(self.num_threads or 0),
            "morsel_size": int(self.morsel_size or 0),
            "wall_seconds": round(self.total_wall_seconds, 6),
            "virtual_seconds": round(self.virtual_seconds, 6),
            "phases": {
                "compute_seconds": round(
                    sum(w.compute_seconds for w in self.workers.values()), 6
                ),
                "queue_wait_seconds": round(
                    sum(w.queue_wait_seconds for w in self.workers.values()), 6
                ),
                "ship_seconds": round(
                    sum(w.ship_seconds for w in self.workers.values()), 6
                ),
            },
            "operators": [entry.to_json() for _, entry in sorted(self.operators.items())],
            "workers": workers,
            "morsel_latency": self.merged_latency(),
            "spans_dropped": sum(w.spans_dropped for w in self.workers.values()),
        }

    def collapsed_stacks(self) -> str:
        """Flamegraph-compatible collapsed stacks of the wall hierarchy.

        One ``frame;frame;... <microseconds>`` line per leaf: operator
        self-time (wall minus attributed kernel time), each kernel
        method, and the coordinator-side breaker under the sink frame.
        Values are clamped to >= 1 microsecond so no measured leaf
        disappears from the flamegraph.
        """

        def micros(seconds: float) -> int:
            return max(1, int(round(seconds * 1e6)))

        lines: list[str] = []
        root = self.query_name or "query"
        for _, op in sorted(self.operators.items()):
            frame = f"{root};P{op.pipeline}:{op.label}"
            kernel_total = sum(op.kernels.values())
            self_wall = max(0.0, op.wall_seconds - kernel_total)
            if self_wall > 0.0:
                lines.append(f"{frame} {micros(self_wall)}")
            for method in sorted(op.kernels):
                seconds = op.kernels[method]
                if seconds > 0.0:
                    lines.append(f"{frame};kernel:{method} {micros(seconds)}")
            if op.breaker_wall_seconds > 0.0:
                lines.append(f"{frame};breaker {micros(op.breaker_wall_seconds)}")
        return "\n".join(lines) + ("\n" if lines else "")


def validate_profile(payload: dict) -> dict:
    """Check a ``riveter-profile/1`` envelope; returns a summary dict.

    Raises :class:`ValueError` describing the first violation.  Used by
    the CI ``profile-smoke`` job and the bench ``--check`` lane.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"profile must be a JSON object, got {type(payload).__name__}")
    if payload.get("format") != PROFILE_FORMAT:
        raise ValueError(
            f"not a {PROFILE_FORMAT} envelope (format={payload.get('format')!r})"
        )
    for key in (
        "query",
        "backend",
        "kernels",
        "num_threads",
        "morsel_size",
        "wall_seconds",
        "virtual_seconds",
        "phases",
        "operators",
        "workers",
        "morsel_latency",
        "spans_dropped",
    ):
        if key not in payload:
            raise ValueError(f"missing required key {key!r}")
    phases = payload["phases"]
    for key in ("compute_seconds", "queue_wait_seconds", "ship_seconds"):
        value = phases.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            raise ValueError(f"phases.{key} must be a non-negative number, got {value!r}")
    operators = payload["operators"]
    if not isinstance(operators, list):
        raise ValueError("'operators' must be a list")
    for index, op in enumerate(operators):
        where = f"operators[{index}]"
        for key in ("pipeline", "slot"):
            if not isinstance(op.get(key), int):
                raise ValueError(f"{where}: {key} must be an integer")
        if not isinstance(op.get("label"), str) or not op["label"]:
            raise ValueError(f"{where}: missing operator label")
        for key in ("wall_seconds", "breaker_wall_seconds", "virtual_seconds"):
            value = op.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"{where}: {key} must be a non-negative number")
        if not isinstance(op.get("kernels"), dict):
            raise ValueError(f"{where}: kernels must be an object")
    workers = payload["workers"]
    if not isinstance(workers, list):
        raise ValueError("'workers' must be a list")
    for index, worker in enumerate(workers):
        where = f"workers[{index}]"
        if not isinstance(worker.get("pid"), int):
            raise ValueError(f"{where}: pid must be an integer")
        utilization = worker.get("utilization")
        if not isinstance(utilization, dict):
            raise ValueError(f"{where}: missing utilization fractions")
        for key in ("busy", "queue_wait", "ship", "idle"):
            fraction = utilization.get(key)
            if not isinstance(fraction, (int, float)) or not 0.0 <= fraction <= 1.0:
                raise ValueError(
                    f"{where}: utilization.{key} must be in [0, 1], got {fraction!r}"
                )
        latency = worker.get("morsel_latency", {})
        if len(latency.get("counts", [])) != len(latency.get("buckets", [])) + 1:
            raise ValueError(f"{where}: morsel_latency counts must be buckets + overflow")
    latency = payload["morsel_latency"]
    if len(latency.get("counts", [])) != len(latency.get("buckets", [])) + 1:
        raise ValueError("morsel_latency counts must be buckets + overflow")
    return {
        "operators": len(operators),
        "workers": len(workers),
        "wall_seconds": payload["wall_seconds"],
    }


def write_profile(profile, path: str | os.PathLike) -> dict:
    """Write the envelope (a profiler or a payload dict) to *path*."""
    payload = profile.to_json() if isinstance(profile, QueryProfiler) else profile
    validate_profile(payload)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return payload


def write_collapsed_stacks(profiler: QueryProfiler, path: str | os.PathLike) -> int:
    """Write the collapsed-stack export to *path*; returns the line count."""
    text = profiler.collapsed_stacks()
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text)
    return len(text.splitlines())
