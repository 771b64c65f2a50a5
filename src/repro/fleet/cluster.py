"""Multi-worker cluster simulator with suspension-based preemption.

The fleet is the paper's Case 1 scheduler (§II-B) at any scale —
``FleetCluster(catalog, policy, workers=1).run(arrivals, duration=0.0)``
is the single-worker case, with no reclamations since a worker is
permanently available past its (empty) trace.  In general it runs ``N``
simulated workers, each running one query at a time on the
shared virtual clock, each subject to spot reclamation through an
:class:`~repro.cloud.availability.AvailabilityTrace` — seeded per worker, or
given by the caller (a zero-carbon forecast, or a price budget through
:meth:`~repro.cloud.environment.PriceTrace.affordable`), which makes the
fleet the one driver that runs a query across windows.  Long-running
analytics are preempted through the pipeline-level suspension strategy
whenever interactive work would otherwise wait (policy permitting), and
queries cut down by a reclamation restart from their last snapshot — the
§VI multiple-suspensions machinery exercised by an entire workload rather
than one query.

Everything is deterministic: arrivals come pre-sorted from
:mod:`repro.fleet.workload`, ties break on instance names, workers are
chosen by ``(earliest start, worker id)``, and all latencies are modelled
through :class:`~repro.engine.profile.HardwareProfile`, so two runs with
the same seed produce byte-identical reports and journals.

Scale comes from three layers (see DESIGN.md "Fleet at scale"):

* the event loop runs on the indexed structures in
  :mod:`repro.fleet.events` — a release heap and policy-ordered ready
  sets instead of the former rescan/re-sort of a flat pending list, and a
  :class:`~repro.fleet.events.WorkerIndex` instead of an O(W) worker scan
  per dispatch;
* availability windows are drawn in vectorized batches (bit-identical to
  the former scalar loop);
* ``fidelity="macro"`` replays dispatch slices analytically from
  calibrated :class:`~repro.fleet.macro.QueryRunProfile` grids — no
  :class:`~repro.engine.executor.QueryExecutor` per slice — and is
  byte-identical to ``fidelity="engine"`` by construction.
"""

from __future__ import annotations

import math
import os
import tempfile
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cloud.availability import AvailabilityTrace, AvailabilityWindow
from repro.cloud.segments import SegmentTimeline
from repro.engine.chunk import chunk_digest
from repro.engine.clock import SimulatedClock
from repro.engine.config import ExecutionConfig
from repro.engine.controller import ExecutionController
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.fleet.admission import AdmissionController, FleetRejected, SchedulingPolicy
from repro.fleet.events import (
    EventQueue,
    FairShareReadyQueue,
    ReadyQueue,
    WorkerIndex,
)
from repro.fleet.macro import (
    DeadlineController,
    MacroQueryState,
    QueryRunProfile,
    calibrate_query,
    run_macro_slice,
)
from repro.fleet.workload import QueryArrival
from repro.obs.handle import Obs
from repro.seeding import derive_seed
from repro.storage.catalog import Catalog
from repro.suspend.controller import CompositeController, TerminationController
from repro.suspend.session import QuerySession, Slice, make_strategy
from repro.tpch import build_query

__all__ = [
    "FleetCompletion",
    "WorkerSummary",
    "FleetResult",
    "FleetCluster",
    "FIDELITIES",
]

#: Slots shorter than this are skipped: dispatching into a sliver of
#: availability would terminate before the first boundary and churn.
MIN_SLICE_SECONDS = 1.0

#: Supported execution fidelities for :class:`FleetCluster`.
FIDELITIES = ("engine", "macro")

_EPSILON = 1e-9


@dataclass(frozen=True)
class FleetCompletion:
    """One query's full life on the fleet timeline."""

    name: str
    tenant: str
    tenant_class: str
    query: str
    arrival_time: float
    finished_at: float
    normal_time: float
    slo_deadline: float
    interactive: bool
    suspensions: int
    lost_segments: int
    persisted_bytes: int
    #: queued/run/suspended dicts tiling ``[arrival_time, finished_at]``;
    #: run segments carry the ``worker`` id they executed on.
    segments: list[dict] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.finished_at - self.arrival_time

    @property
    def slo_attained(self) -> bool:
        return self.finished_at <= self.slo_deadline + _EPSILON

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "tenant": self.tenant,
            "tenant_class": self.tenant_class,
            "query": self.query,
            "arrival_time": self.arrival_time,
            "finished_at": self.finished_at,
            "latency": self.latency,
            "normal_time": self.normal_time,
            "slo_deadline": self.slo_deadline,
            "slo_attained": self.slo_attained,
            "interactive": self.interactive,
            "suspensions": self.suspensions,
            "lost_segments": self.lost_segments,
            "persisted_bytes": self.persisted_bytes,
            "segments": self.segments,
        }


@dataclass
class WorkerSummary:
    """Per-worker utilisation over one fleet run."""

    worker: int
    busy_seconds: float
    reclamations: int
    #: ``(start, end, query)`` run slices, in dispatch order — the overlap
    #: invariant the fleet tests assert.
    run_slices: list[tuple[float, float, str]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "worker": self.worker,
            "busy_seconds": self.busy_seconds,
            "reclamations": self.reclamations,
            "run_slices": [
                {"start": s, "end": e, "query": q} for s, e, q in self.run_slices
            ],
        }


@dataclass
class FleetResult:
    """Outcome of one fleet simulation.

    Each completion's ``segments`` are the leaves of its lifecycle span
    tree, so an observed run's Chrome trace shows them as the query's
    ``query:<name>`` lane.
    """

    policy: str
    seed: int
    duration: float
    completions: list[FleetCompletion] = field(default_factory=list)
    rejections: list[FleetRejected] = field(default_factory=list)
    workers: list[WorkerSummary] = field(default_factory=list)
    #: completions whose result differs from the uninterrupted run's
    #: (engine fidelity only; not part of the report)
    result_mismatches: int = 0


class _WorkerState:
    """One simulated worker: availability windows plus busy bookkeeping."""

    def __init__(self, wid: int, trace: AvailabilityTrace):
        self.wid = wid
        self.windows = trace.windows
        #: sorted window ends, for the bisect in :meth:`slot_at`
        self._ends = [window.end for window in self.windows]
        self.free_at = 0.0
        self.busy_seconds = 0.0
        self.reclamations = 0
        self.run_slices: list[tuple[float, float, str]] = []

    def slot_at(self, lower: float) -> tuple[float, float]:
        """First usable ``(start, window_end)`` at/after *lower*.

        Windows with less than :data:`MIN_SLICE_SECONDS` remaining are
        skipped; beyond the trace the worker is permanently available (the
        forecast horizon has passed), which guarantees the simulation
        terminates.  Seeded windows are at least :data:`MIN_SLICE_SECONDS`
        wide, so there the loop past the bisect runs at most twice; a given
        trace may hold narrower windows, and the loop skips each of them.
        """
        windows = self.windows
        for index in range(bisect_right(self._ends, lower), len(windows)):
            window = windows[index]
            start = max(lower, window.start)
            if window.end - start >= MIN_SLICE_SECONDS:
                return start, window.end
        tail = windows[-1].end if windows else 0.0
        return max(lower, tail), math.inf

    def summary(self) -> WorkerSummary:
        return WorkerSummary(
            worker=self.wid,
            busy_seconds=self.busy_seconds,
            reclamations=self.reclamations,
            run_slices=list(self.run_slices),
        )


class _FleetQuery:
    """Runtime record of one admitted query."""

    def __init__(self, arrival: QueryArrival, normal_time: float):
        self.arrival = arrival
        self.normal_time = normal_time
        self.ready_at = arrival.arrival_time
        self.timeline = SegmentTimeline(arrival.arrival_time)
        self.suspensions = 0
        self.lost_segments = 0
        self.persisted_bytes = 0
        #: owner of the suspended state, per fidelity: exactly one is set
        self.session: QuerySession | None = None
        self.macro: MacroQueryState | None = None
        #: causal span tree (None when the fleet runs unobserved)
        self.lifecycle = None
        #: live event tokens while queued (cancelled on selection)
        self._interactive_event = None

    @property
    def has_snapshot(self) -> bool:
        """Whether the next dispatch resumes from a snapshot."""
        return (self.session or self.macro).has_snapshot


@dataclass
class _RunState:
    """Mutable per-run scheduling state (one :meth:`FleetCluster.run`)."""

    #: policy-ordered set of queries with ``ready_at <= dispatch start``
    released: object
    #: min-heap of not-yet-released pending queries keyed by ``ready_at``
    release_heap: EventQueue
    #: min-heap over queued *interactive* queries' ``ready_at``
    interactive_heap: EventQueue
    worker_index: WorkerIndex
    #: sorted ``(free_at, wid)`` pairs — in-flight sampling and the
    #: another-worker-free check without scanning the fleet
    free_sorted: list[tuple[float, int]]
    served_per_weight: dict[str, float]
    #: incremental counters feeding ``_sample_state`` (O(1) per sample)
    suspended_count: int = 0
    reserved_bytes: int = 0

    @property
    def pending_count(self) -> int:
        return len(self.release_heap) + len(self.released)


def _availability_windows(
    seed: int, wid: int, horizon: float, mean_on: float, mean_off: float
) -> AvailabilityTrace:
    """Seeded on/off window list for one worker over ``[0, horizon)``.

    Vectorized but bit-identical to the original scalar loop: the
    generator emits the same ``on, off, on, off, …`` exponential stream
    (``standard_exponential`` batches continue the stream exactly), and
    ``np.add.accumulate`` over the ``on + off`` deltas replays the
    scalar ``cursor += on + off`` float additions left to right.
    """
    if horizon <= 0:
        return AvailabilityTrace([])
    rng = np.random.default_rng(
        np.random.SeedSequence([derive_seed(seed, "availability", wid), 0])
    )
    batch = max(16, int(horizon / (mean_on + mean_off) * 1.25) + 16)
    raw = rng.standard_exponential(size=2 * batch)
    ons = np.maximum(MIN_SLICE_SECONDS, raw[0::2] * mean_on)
    gaps = np.maximum(1.0, raw[1::2] * mean_off)
    cursors = np.add.accumulate(ons + gaps)
    while cursors[-1] < horizon:
        raw = rng.standard_exponential(size=2 * batch)
        ons = np.concatenate([ons, np.maximum(MIN_SLICE_SECONDS, raw[0::2] * mean_on)])
        gaps = np.concatenate([gaps, np.maximum(1.0, raw[1::2] * mean_off)])
        # Re-accumulate from scratch so every cursor stays the exact
        # left-to-right running sum regardless of batch boundaries.
        cursors = np.add.accumulate(ons + gaps)
    count = 1 + int(np.searchsorted(cursors, horizon, side="left"))
    starts = np.concatenate(([0.0], cursors[: count - 1]))
    ends = starts + ons[:count]
    return AvailabilityTrace(
        [AvailabilityWindow(float(s), float(e)) for s, e in zip(starts, ends)]
    )


class FleetCluster:
    """Simulates a whole workload over ``N`` suspension-capable workers."""

    def __init__(
        self,
        catalog: Catalog,
        policy: SchedulingPolicy,
        workers: int = 2,
        seed: int = 42,
        profile: HardwareProfile | None = None,
        admission: AdmissionController | None = None,
        snapshot_dir: str | os.PathLike | None = None,
        mean_on_seconds: float = 600.0,
        mean_off_seconds: float = 45.0,
        *,
        obs: Obs | None = None,
        slo=None,
        fidelity: str = "engine",
        macro_profiles: dict[str, QueryRunProfile] | None = None,
        config: ExecutionConfig | None = None,
        **options,
    ):
        if workers <= 0:
            raise ValueError(f"worker count must be positive, got {workers}")
        if not policy.fair_share and policy.order_key is None:
            raise ValueError(
                f"policy {policy.name!r} declares neither an order_key nor fair_share"
            )
        if fidelity not in FIDELITIES:
            raise ValueError(
                f"unknown fidelity {fidelity!r}; expected one of {FIDELITIES}"
            )
        self.catalog = catalog
        self.policy = policy
        self.worker_count = workers
        self.seed = seed
        self.profile = profile if profile is not None else HardwareProfile()
        self.admission = admission if admission is not None else AdmissionController()
        self.snapshot_dir = Path(
            snapshot_dir
            if snapshot_dir is not None
            else tempfile.mkdtemp(prefix="riveter-fleet-")
        )
        self.config = ExecutionConfig.of(config, **options)
        self.mean_on_seconds = mean_on_seconds
        self.mean_off_seconds = mean_off_seconds
        #: The event loop tests one hoisted flag per event (``obs.tracing``,
        #: ``obs.recording``, ``obs is not Obs.NONE``) before building any
        #: event's arguments: a bare 100k-arrival run pays nothing else.
        self.obs = Obs.of(obs)
        #: optional :class:`~repro.fleet.slo.SLOMonitor` fed every
        #: terminal outcome (completions and shed arrivals)
        self.slo = slo
        #: "engine" runs a QueryExecutor per slice; "macro" replays the
        #: calibrated run profile analytically (byte-identical results)
        self.fidelity = fidelity
        # Metrics only, and slices run unobserved (their sessions get no
        # handle): fleet traces carry the lifecycle spans the cluster emits
        # itself — no strategy spans, controller instants or engine events,
        # which macro fidelity could not replay.
        self.strategy = make_strategy(
            "pipeline", self.profile, obs=Obs(metrics=self.obs.metrics), config=self.config
        )
        if self.admission.obs is Obs.NONE:
            self.admission.obs = self.obs
        self._plans: dict[str, object] = {}
        self._measured: dict[str, tuple[float, int]] = {}
        #: result digest of each query's undisturbed run (engine fidelity)
        self._digests: dict[str, str] = {}
        #: calibrated run profiles, shareable across clusters with the
        #: same catalog/profile/execution config (e.g. the bench sweep)
        self._macro_profiles: dict[str, QueryRunProfile] = (
            macro_profiles if macro_profiles is not None else {}
        )
        self._state: _RunState | None = None
        self._workers: list[_WorkerState] = []
        self._interactive_times: list[float] = []
        # Feed the admission controller measured peaks as they are learned.
        self.admission.peak_memory = {}

    # -- measurement ---------------------------------------------------------
    def _plan(self, query: str):
        plan = self._plans.get(query)
        if plan is None:
            plan = build_query(query)
            self._plans[query] = plan
        return plan

    def _macro_profile(self, query: str) -> QueryRunProfile:
        """Cached calibrated run profile for *query* (macro fidelity)."""
        run_profile = self._macro_profiles.get(query)
        if run_profile is None:
            run_profile = calibrate_query(
                self.catalog,
                self._plan(query),
                self.profile,
                query,
                config=self.config,
            )
            self._macro_profiles[query] = run_profile
        return run_profile

    def measure(self, query: str) -> tuple[float, int]:
        """Cached ``(normal_time, peak_memory_bytes)`` of an undisturbed run.

        In macro fidelity the measurement run doubles as the calibration
        run — the instrumented executor records the full advance grid
        while producing the exact same duration and peak memory.
        """
        cached = self._measured.get(query)
        if cached is None:
            if self.fidelity == "macro":
                run_profile = self._macro_profile(query)
                cached = (run_profile.normal_time, run_profile.peak_memory_bytes)
            else:
                result = QueryExecutor(
                    self.catalog,
                    self._plan(query),
                    profile=self.profile,
                    query_name=query,
                    config=self.config,
                ).run()
                cached = (result.stats.duration, result.peak_memory_bytes)
                self._digests[query] = chunk_digest(result.chunk)
            self._measured[query] = cached
            self.admission.peak_memory[query] = cached[1]
        return cached

    # -- simulation ----------------------------------------------------------
    def _make_ready_set(self, served_per_weight: dict[str, float]):
        if self.policy.fair_share:
            return FairShareReadyQueue(served_per_weight)
        return ReadyQueue(self.policy.order_key)

    def run(
        self,
        arrivals: list[QueryArrival],
        duration: float,
        availability: list[AvailabilityTrace] | None = None,
    ) -> FleetResult:
        """Simulate *arrivals* over a horizon of *duration* virtual seconds.

        *availability* holds one trace per worker; ``None`` draws each
        worker's seeded windows over ``[0, duration)``.
        """
        if availability is None:
            availability = [
                _availability_windows(
                    self.seed, wid, duration, self.mean_on_seconds, self.mean_off_seconds
                )
                for wid in range(self.worker_count)
            ]
        elif len(availability) != self.worker_count:
            raise ValueError(
                f"expected one availability trace per worker ({self.worker_count}), "
                f"got {len(availability)}"
            )
        workers = [_WorkerState(wid, trace) for wid, trace in enumerate(availability)]
        self._workers = workers
        arrivals = sorted(arrivals, key=lambda a: (a.arrival_time, a.name))
        self._interactive_times = sorted(
            a.arrival_time for a in arrivals if a.interactive
        )
        result = FleetResult(policy=self.policy.name, seed=self.seed, duration=duration)
        served_per_weight: dict[str, float] = {}
        state = _RunState(
            released=self._make_ready_set(served_per_weight),
            release_heap=EventQueue(),
            interactive_heap=EventQueue(),
            worker_index=WorkerIndex(workers),
            free_sorted=[(0.0, worker.wid) for worker in workers],
            served_per_weight=served_per_weight,
        )
        self._state = state
        index = 0
        # Dispatch starts are nondecreasing (pending ready times only grow,
        # worker free times only grow), so once the released set is
        # non-empty the previous start is a valid earliest-ready lower
        # bound: every unreleased ready time is strictly greater, and
        # slot_at is constant between the true minimum and the start it
        # yields — the dispatch decision is identical.
        last_start = 0.0
        while index < len(arrivals) or state.pending_count:
            dispatch = None
            if state.pending_count:
                if len(state.released):
                    earliest_ready = last_start
                    head = state.release_heap.peek()
                    if head is not None and head.time < earliest_ready:
                        earliest_ready = head.time
                else:
                    earliest_ready = state.release_heap.peek().time
                dispatch = state.worker_index.best_slot(earliest_ready)
            if index < len(arrivals) and (
                dispatch is None or arrivals[index].arrival_time <= dispatch[0]
            ):
                self._admit(arrivals[index], result)
                index += 1
                continue
            start, window_end, worker = dispatch
            last_start = start
            for event in state.release_heap.pop_until(start + _EPSILON):
                state.released.add(event.payload)
            query = state.released.pop_min()
            self._on_select(query)
            old_key = (worker.free_at, worker.wid)
            self._run_slice(query, worker, start, window_end, result)
            state.worker_index.reschedule(worker)
            state.free_sorted.pop(bisect_left(state.free_sorted, old_key))
            insort(state.free_sorted, (worker.free_at, worker.wid))
            self._sample_state(worker.free_at)
        result.workers = [w.summary() for w in workers]
        result.rejections = list(self.admission.rejections)
        self._state = None
        return result

    def _requeue(self, query: _FleetQuery) -> None:
        """Put *query* back in the pending structures at ``query.ready_at``."""
        state = self._state
        name = query.arrival.name
        state.release_heap.push(query.ready_at, "ready", name, query)
        if query.arrival.interactive:
            query._interactive_event = state.interactive_heap.push(
                query.ready_at, "ready", name, query
            )
        if query.has_snapshot:
            state.suspended_count += 1
        state.reserved_bytes += self.admission.peak_memory.get(query.arrival.query, 0)

    def _on_select(self, query: _FleetQuery) -> None:
        """Take *query* out of the pending bookkeeping for its slice."""
        state = self._state
        if query._interactive_event is not None:
            state.interactive_heap.cancel(query._interactive_event)
            query._interactive_event = None
        if query.has_snapshot:
            state.suspended_count -= 1
        state.reserved_bytes -= self.admission.peak_memory.get(query.arrival.query, 0)

    def _admit(self, arrival: QueryArrival, result: FleetResult) -> None:
        state = self._state
        normal_time, _ = self.measure(arrival.query)
        lifecycle = None
        if self.obs.tracing or self.obs.recording:
            lifecycle = self.obs.open_lifecycle(
                arrival.name,
                arrival.arrival_time,
                tenant=arrival.tenant,
                tenant_class=arrival.tenant_class,
                query=arrival.query,
                policy=self.policy.name,
            )
        rejected = self.admission.admit(arrival, queue_depth=state.pending_count)
        if rejected is not None:
            if lifecycle is not None:
                lifecycle.instant(
                    "admission:rejected", arrival.arrival_time, reason=rejected.reason
                )
                lifecycle.finish(arrival.arrival_time, outcome="rejected")
            # Shed arrivals count against the class's error budget the
            # moment they are shed.
            if self.slo is not None:
                self.slo.observe(
                    arrival.tenant_class,
                    arrival.arrival_time,
                    False,
                    query=arrival.name,
                )
            self._sample_state(arrival.arrival_time)
            return
        if lifecycle is not None:
            lifecycle.instant(
                "admission:admitted",
                arrival.arrival_time,
                queue_depth=state.pending_count,
            )
        query = _FleetQuery(arrival, normal_time)
        query.lifecycle = lifecycle
        if self.fidelity == "macro":
            query.macro = MacroQueryState()
        else:
            query.session = QuerySession(
                self.catalog,
                self._plan(arrival.query),
                arrival.name,
                self.snapshot_dir,
                self.profile,
                strategy=self.strategy,
                config=self.config,
            )
        self._requeue(query)
        self._sample_state(arrival.arrival_time)

    def _sample_state(self, ts: float) -> None:
        """Fold the fleet's instantaneous state into the timeline windows."""
        if not self.obs.recording:
            return
        state = self._state
        recorder = self.obs.recorder
        recorder.sample("fleet_queue_depth", ts, state.pending_count)
        recorder.sample("fleet_suspended", ts, state.suspended_count)
        recorder.sample("fleet_reserved_bytes", ts, state.reserved_bytes)
        in_flight = self.worker_count - bisect_right(
            state.free_sorted, (ts + _EPSILON, self.worker_count)
        )
        recorder.sample("fleet_in_flight", ts, in_flight)

    def _next_interactive_after(self, at_time: float) -> float | None:
        """Earliest future interactive demand, from queue or arrivals.

        Queued candidates come from the interactive ready-time heap; heads
        at or before *at_time* are discarded outright — dispatch starts
        are nondecreasing, so they can never become candidates again (a
        later suspension pushes a fresh event).  Future arrivals bisect
        the pre-sorted arrival-time list.
        """
        state = self._state
        heap = state.interactive_heap
        head = heap.peek()
        while head is not None and head.time <= at_time + _EPSILON:
            heap.pop()
            head = heap.peek()
        candidate = head.time if head is not None else None
        position = bisect_right(self._interactive_times, at_time + _EPSILON)
        if position < len(self._interactive_times):
            arrival_time = self._interactive_times[position]
            if candidate is None or arrival_time < candidate:
                candidate = arrival_time
        return candidate

    def _another_worker_free(self, worker: _WorkerState, at_time: float) -> bool:
        """Whether a different worker could pick up work at *at_time*."""
        state = self._state
        free_sorted = state.free_sorted
        limit = bisect_right(free_sorted, (at_time + _EPSILON, self.worker_count))
        for position in range(limit):
            wid = free_sorted[position][1]
            if wid == worker.wid:
                continue
            other = self._workers[wid]
            start, _ = other.slot_at(max(other.free_at, at_time))
            if start <= at_time + _EPSILON:
                return True
        return False

    def _request_time(
        self, query: _FleetQuery, worker: _WorkerState, start: float
    ) -> float | None:
        """When (if ever) this slice should yield to interactive demand."""
        if not self.policy.preemptive or query.arrival.interactive:
            return None
        request_at = self._next_interactive_after(start)
        if request_at is not None and self._another_worker_free(worker, request_at):
            return None
        return request_at

    def _controllers(
        self, window_end: float, request_at: float | None
    ) -> ExecutionController | None:
        controllers: list[ExecutionController] = []
        if math.isfinite(window_end):
            # The reclamation itself, plus a deadline controller that
            # tries to snapshot ahead of it (preemptive policies only —
            # FIFO runs through and loses the window's progress).
            controllers.append(TerminationController(window_end))
            if self.policy.preemptive:
                controllers.append(DeadlineController(window_end, self.profile))
        if request_at is not None:
            controllers.append(self.strategy.make_request_controller(request_at))
        if not controllers:
            return None
        return CompositeController(controllers)

    def _engine_slice(
        self,
        query: _FleetQuery,
        start: float,
        window_end: float,
        request_at: float | None,
    ) -> tuple[Slice, float | None]:
        """One dispatch slice through the real morsel executor."""
        session = query.session
        reload_end = None
        if session.has_snapshot:
            # Span emission is deferred until the slice's fate is known:
            # a reclamation can land mid-reload, which truncates it.
            reload_end = start + session.reload()
        piece = session.run_slice(
            self._controllers(window_end, request_at),
            SimulatedClock(start if reload_end is None else reload_end),
        )
        if piece.kind == "suspend":
            session.persist(piece)
        return piece, reload_end

    def _macro_slice(
        self,
        query: _FleetQuery,
        start: float,
        window_end: float,
        request_at: float | None,
    ):
        """One dispatch slice replayed from the calibrated run profile."""
        run_profile = self._macro_profile(query.arrival.query)
        macro = query.macro
        reload_end = None
        clock_start = start
        prefix = 0
        durations: list[float] = []
        if macro.has_snapshot:
            prefix = macro.prefix
            durations = list(macro.durations)
            clock_start = start + run_profile.reload_latency[prefix - 1]
            reload_end = clock_start
        outcome = run_macro_slice(
            run_profile,
            prefix,
            durations,
            clock_start,
            window_end,
            self.policy.preemptive and math.isfinite(window_end),
            request_at,
        )
        outcome.durations = durations
        return outcome, reload_end

    def _run_slice(
        self,
        query: _FleetQuery,
        worker: _WorkerState,
        start: float,
        window_end: float,
        result: FleetResult,
    ) -> None:
        lifecycle = query.lifecycle
        slice_id = lifecycle.begin_slice() if lifecycle is not None else None
        request_at = self._request_time(query, worker, start)
        if self.fidelity == "macro":
            outcome, reload_end = self._macro_slice(query, start, window_end, request_at)
        else:
            outcome, reload_end = self._engine_slice(
                query, start, window_end, request_at
            )
        end = outcome.end
        if outcome.kind == "suspend":
            end = outcome.suspended_at + outcome.persist_latency
        missed = outcome.kind == "suspend" and end > window_end + _EPSILON
        if missed and lifecycle is not None:
            lifecycle.instant(
                "persist:missed-window",
                min(outcome.suspended_at, window_end),
                parent_id=slice_id,
                category="persist",
                persist_latency=outcome.persist_latency,
            )
        if missed or outcome.kind == "terminate":
            # The reclamation landed before any usable suspension point, or
            # before the snapshot reached storage: the window's progress is
            # lost, the slice is never committed, and the query falls back
            # to its last committed snapshot (or scratch).
            self._reclaim(
                query, worker, start, window_end, result, reload_end=reload_end
            )
            self._requeue(query)
            return
        if lifecycle is not None and reload_end is not None:
            lifecycle.span(
                f"reload:{self.strategy.name}",
                start,
                reload_end,
                parent_id=slice_id,
                category="resume",
            )
        if outcome.kind == "complete":
            expected = self._digests.get(query.arrival.query)
            if expected is not None and chunk_digest(outcome.result.chunk) != expected:
                # Engine fidelity: the result after any chain of suspensions
                # must be the uninterrupted run's, byte for byte.
                result.result_mismatches += 1
            self._finish_slice(query, worker, start, end, self._state.served_per_weight)
            self._complete(query, end, worker, result)
            return
        query.suspensions += 1
        query.persisted_bytes += outcome.intermediate_bytes
        (query.session or query.macro).commit(outcome)
        if lifecycle is not None:
            lifecycle.instant(
                "suspend",
                outcome.suspended_at,
                parent_id=slice_id,
                category="suspend",
                suspensions=query.suspensions,
            )
            lifecycle.span(
                f"persist:{self.strategy.name}",
                outcome.suspended_at,
                end,
                parent_id=slice_id,
                category="persist",
                bytes=outcome.intermediate_bytes,
            )
        self._finish_slice(query, worker, start, end, self._state.served_per_weight)
        if self.obs is not Obs.NONE:
            self.obs.audit(
                "placement",
                query.arrival.name,
                end,
                policy=self.policy.name,
                step="preempt",
                worker=worker.wid,
                suspensions=query.suspensions,
                persisted_bytes=outcome.intermediate_bytes,
            )
        self._requeue(query)

    def _reclaim(
        self, query, worker, start, window_end, result: FleetResult, reload_end=None
    ) -> None:
        """Account a slice cut down by a spot reclamation."""
        lifecycle = query.lifecycle
        slice_id = lifecycle.current_slice_id if lifecycle is not None else None
        if lifecycle is not None and reload_end is not None:
            # The reload that preceded this slice, truncated if the
            # reclamation landed mid-reload.
            lifecycle.span(
                f"reload:{self.strategy.name}",
                start,
                min(reload_end, window_end),
                parent_id=slice_id,
                category="resume",
                truncated=reload_end > window_end,
            )
        query.lost_segments += 1
        worker.reclamations += 1
        self._finish_slice(query, worker, start, window_end, None)
        query.ready_at = window_end
        if lifecycle is not None:
            lifecycle.instant(
                "reclamation",
                window_end,
                parent_id=slice_id,
                worker=worker.wid,
                lost_segments=query.lost_segments,
                has_snapshot=query.has_snapshot,
            )
        obs = self.obs
        if obs is not Obs.NONE:
            obs.audit(
                "reclamation",
                query.arrival.name,
                window_end,
                worker=worker.wid,
                slice_start=start,
                lost_segments=query.lost_segments,
                has_snapshot=query.has_snapshot,
            )
            obs.instant(
                "fleet",
                f"reclaim:W{worker.wid}",
                window_end,
                track=f"worker:{worker.wid}",
                query=query.arrival.name,
            )
            obs.count("fleet_reclamations_total")

    def _finish_slice(self, query, worker, start, end, served_per_weight) -> None:
        """Book ``[start, end]`` as busy time for *query* on *worker*."""
        query.timeline.run(start, end, worker=worker.wid)
        if query.lifecycle is not None:
            # Emit the new queued/suspended gap and run segments as
            # children of the root; the run span consumes the id
            # pre-allocated at dispatch so mid-slice events nest under it.
            query.lifecycle.flush_segments(query.timeline.segments)
        query.ready_at = end
        worker.free_at = end
        worker.busy_seconds += end - start
        worker.run_slices.append((start, end, query.arrival.name))
        if served_per_weight is not None:
            tenant = query.arrival.tenant
            served_per_weight[tenant] = served_per_weight.get(tenant, 0.0) + (
                (end - start) / query.arrival.weight
            )
            if self._state is not None:
                # Fair-share caches tenant keys; re-key after serving.
                self._state.released.reorder(tenant)
        if self.obs.tracing:
            self.obs.span(
                "fleet",
                query.arrival.name,
                start,
                end,
                track=f"worker:{worker.wid}",
                tenant=query.arrival.tenant,
                query=query.arrival.query,
            )

    def _complete(self, query, finished_at, worker, result: FleetResult) -> None:
        arrival = query.arrival
        completion = FleetCompletion(
            name=arrival.name,
            tenant=arrival.tenant,
            tenant_class=arrival.tenant_class,
            query=arrival.query,
            arrival_time=arrival.arrival_time,
            finished_at=finished_at,
            normal_time=query.normal_time,
            slo_deadline=arrival.arrival_time + arrival.slo_factor * query.normal_time,
            interactive=arrival.interactive,
            suspensions=query.suspensions,
            lost_segments=query.lost_segments,
            persisted_bytes=query.persisted_bytes,
            segments=query.timeline.segments,
        )
        result.completions.append(completion)
        if query.lifecycle is not None:
            query.lifecycle.finish(
                finished_at,
                segments=query.timeline.segments,
                latency=completion.latency,
                slo_attained=completion.slo_attained,
                suspensions=completion.suspensions,
                lost_segments=completion.lost_segments,
            )
        obs = self.obs
        if obs.recording:
            payload = completion.to_json()
            # Segments are already in the artifact as the root's leaf
            # spans; the completion record carries the scalars.
            payload.pop("segments", None)
            if query.lifecycle is not None:
                payload["trace_id"] = query.lifecycle.trace_id
            obs.recorder.add_completion(payload)
        if self.slo is not None:
            self.slo.observe(
                completion.tenant_class,
                finished_at,
                completion.slo_attained,
                query=completion.name,
            )
        if obs is not Obs.NONE:
            obs.audit(
                "placement",
                completion.name,
                finished_at,
                policy=self.policy.name,
                step="complete",
                worker=worker.wid,
                latency=completion.latency,
                suspensions=completion.suspensions,
                lost_segments=completion.lost_segments,
                slo_attained=completion.slo_attained,
            )
            obs.count("fleet_completions_total", tenant_class=completion.tenant_class)
            obs.observe(
                "fleet_latency_seconds", completion.latency, tenant_class=completion.tenant_class
            )
            if not completion.slo_attained:
                obs.count("fleet_slo_misses_total")
