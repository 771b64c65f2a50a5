"""Calibrated macro-execution fidelity for the fleet simulator.

ScanTwin-style twin execution (PAPERS.md): run each distinct query once
through the real morsel engine to *calibrate* a run profile — the exact
sequence of virtual-clock advances, the positions of every controller
check (morsel boundaries and pipeline breakers), the live snapshot bytes
and persist/reload latencies at each breaker, and the undisturbed
``normal_time``/peak-memory pair — then advance every fleet dispatch
slice analytically from that profile, with no ``QueryExecutor`` per
slice.

Byte-identity with engine fidelity is a hard contract, not an
approximation.  It rests on three facts:

* the engine's clock is ``self._now += seconds`` per advance, and
  ``np.add.accumulate`` over the recorded delta array replays exactly
  that left-to-right float addition;
* completed pipelines always form a prefix of the pipeline list (resume
  skips completed ids; execution is in list order), so a slice is fully
  described by "first unfinished position + starting clock";
* everything the controllers consult at a breaker — live state bytes,
  mean pipeline time, persist margin — is either a pure function of the
  breaker position (calibrated once) or reconstructed from the slice's
  own clock grid (pipeline durations).

What macro mode does **not** model: per-slice memory accounting, tracer
morsel/pipeline spans inside the engine, and metrics recorded by the
executor or strategy internals — none of which feed the fleet report,
journal, or timeline artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.clock import SimulatedClock
from repro.engine.config import ExecutionConfig
from repro.engine.controller import Action, BoundaryContext, ExecutionController
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.storage import codec as codec_mod
from repro.suspend.snapshot import Snapshot

__all__ = [
    "DEADLINE_SAFETY",
    "DeadlineController",
    "QueryRunProfile",
    "MacroQueryState",
    "MacroSliceOutcome",
    "calibrate_query",
    "run_macro_slice",
]


#: Multiplier on the persist estimate when timing a suspension ahead of a
#: window end.  :func:`calibrate_query` bakes it into every breaker's
#: ``deadline_margin``, which keeps macro fidelity byte-identical to engine.
DEADLINE_SAFETY = 1.3


class DeadlineController(ExecutionController):
    """Suspends at a breaker as late as safely possible before a window end.

    At each breaker but the last, suspend if the *next* breaker
    (extrapolated from the mean pipeline time so far) plus the persist
    estimate for the live states would land at or past the deadline.
    :func:`run_macro_slice` replays this rule term for term.
    """

    def __init__(self, deadline: float, profile: HardwareProfile):
        self.deadline = deadline
        self.profile = profile

    def on_pipeline_breaker(self, context: BoundaryContext) -> Action:
        if context.pipeline_pos == context.total_pipelines - 1:
            return Action.CONTINUE
        margin = self.profile.persist_latency(context.pipeline_state_bytes) * DEADLINE_SAFETY
        mean = context.stats.mean_pipeline_time
        if context.clock_now + mean + margin >= self.deadline:
            return Action.SUSPEND_PIPELINE
        return Action.CONTINUE


class _RecordingClock(SimulatedClock):
    """A simulated clock that remembers every advance, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.deltas: list[float] = []

    def advance(self, seconds: float) -> None:
        super().advance(seconds)
        self.deltas.append(float(seconds))


class _CalibrationController(ExecutionController):
    """Records check positions and per-breaker snapshot economics.

    Never suspends — the calibration run is the undisturbed ``measure()``
    run, just instrumented.  At each breaker it serializes the would-be
    pipeline-level snapshot to compute the exact ``intermediate_bytes``
    and persist/reload latencies the strategy would charge, mirroring
    :meth:`repro.suspend.pipeline_level.PipelineLevelStrategy.persist` /
    ``prepare_resume`` term by term (no file ever touches disk).
    """

    def __init__(self, clock: _RecordingClock, profile: HardwareProfile):
        self.clock = clock
        self.profile = profile
        #: (consumed-delta count, breaker pipeline pos or -1) per check
        self.checks: list[tuple[int, int]] = []
        self.pipe_start: list[int] = []
        self.live_bytes: list[int] = []
        self.intermediate_bytes: list[int] = []
        self.persist_latency: list[float] = []
        self.reload_latency: list[float] = []
        self._last_breaker = 0

    def on_morsel_boundary(self, context: BoundaryContext) -> Action:
        if context.pipeline_pos == len(self.pipe_start):
            # First check inside this pipeline: it started right after the
            # previous breaker's finalize advance.
            self.pipe_start.append(self._last_breaker)
        self.checks.append((len(self.clock.deltas), -1))
        return Action.CONTINUE

    def on_pipeline_breaker(self, context: BoundaryContext) -> Action:
        if context.pipeline_pos == len(self.pipe_start):
            # Zero-morsel pipelines reach the breaker without a boundary.
            self.pipe_start.append(self._last_breaker)
        position = len(self.clock.deltas)
        self.checks.append((position, context.pipeline_pos))
        self._last_breaker = position
        self.live_bytes.append(int(context.pipeline_state_bytes))
        executor = context.executor
        snapshot = Snapshot.from_capture(
            executor._capture_pipeline(), codec_name=executor.config.codec
        )
        nbytes = snapshot.intermediate_bytes
        self.intermediate_bytes.append(int(nbytes))
        self.persist_latency.append(
            self.profile.persist_latency(nbytes)
            + codec_mod.encode_cost_seconds(
                snapshot.codec_stats, self.profile.io_time_scale
            )
        )
        self.reload_latency.append(
            self.profile.reload_latency(nbytes)
            + codec_mod.decode_cost_seconds(
                snapshot.codec_stats, self.profile.io_time_scale
            )
        )
        return Action.CONTINUE


@dataclass
class QueryRunProfile:
    """Everything macro mode needs to replay one query analytically."""

    query: str
    #: every clock advance of an undisturbed run, in order
    deltas: np.ndarray
    #: consumed-delta count at each controller check, ascending
    check_pos: np.ndarray
    #: breaker pipeline position per check (-1 for morsel boundaries)
    check_breaker: np.ndarray
    #: consumed-delta count at each pipeline's start (index = position)
    pipe_start: np.ndarray
    #: index into ``check_pos`` of each pipeline's breaker check
    breaker_check: np.ndarray
    #: live-state bytes visible to the deadline controller at breaker p
    live_bytes: list[int]
    #: ``persist_latency(live) * DEADLINE_SAFETY`` margin at breaker p
    deadline_margin: np.ndarray
    #: snapshot payload persisted when suspending at breaker p
    intermediate_bytes: list[int]
    #: full persist latency (I/O + encode) at breaker p
    persist_latency: list[float]
    #: full reload latency (I/O + decode) of the breaker-p snapshot
    reload_latency: list[float]
    normal_time: float
    peak_memory_bytes: int

    @property
    def pipeline_count(self) -> int:
        return len(self.pipe_start)


@dataclass
class MacroSliceOutcome:
    """What one analytic slice did: ``complete``/``suspend``/``terminate``.

    The analytic twin of :class:`repro.suspend.session.Slice`, read by
    the cluster through the same attributes.
    """

    kind: str
    end: float = 0.0
    suspended_at: float = 0.0
    breaker: int = -1
    persist_latency: float = 0.0
    intermediate_bytes: int = 0
    #: restored + finished per-pipeline durations of a ``suspend`` slice
    durations: list[float] = field(default_factory=list)


@dataclass
class MacroQueryState:
    """Per-query committed snapshot in macro mode.

    The analytic twin of :class:`repro.suspend.session.QuerySession`'s
    suspended state: a persist that misses its reclamation window is
    never committed, so the next dispatch resumes from the last
    committed prefix (or from scratch).
    """

    #: first unfinished pipeline position of the committed snapshot
    prefix: int = 0
    durations: list[float] = field(default_factory=list)

    @property
    def has_snapshot(self) -> bool:
        return self.prefix > 0

    def commit(self, outcome: MacroSliceOutcome) -> None:
        self.prefix = outcome.breaker + 1
        self.durations = outcome.durations


def calibrate_query(
    catalog,
    plan,
    profile: HardwareProfile,
    query: str,
    config: ExecutionConfig | None = None,
    **options,
) -> QueryRunProfile:
    """One instrumented engine run -> a reusable macro profile."""
    clock = _RecordingClock()
    recorder = _CalibrationController(clock, profile)
    result = QueryExecutor(
        catalog,
        plan,
        profile=profile,
        clock=clock,
        controller=recorder,
        query_name=query,
        config=config,
        **options,
    ).run()
    check_pos = np.asarray([pos for pos, _ in recorder.checks], dtype=np.int64)
    check_breaker = np.asarray([b for _, b in recorder.checks], dtype=np.int64)
    breaker_check = np.flatnonzero(check_breaker >= 0)
    return QueryRunProfile(
        query=query,
        deltas=np.asarray(clock.deltas, dtype=np.float64),
        check_pos=check_pos,
        check_breaker=check_breaker,
        pipe_start=np.asarray(recorder.pipe_start, dtype=np.int64),
        breaker_check=breaker_check,
        live_bytes=recorder.live_bytes,
        deadline_margin=np.asarray(
            [
                profile.persist_latency(nbytes) * DEADLINE_SAFETY
                for nbytes in recorder.live_bytes
            ],
            dtype=np.float64,
        ),
        intermediate_bytes=recorder.intermediate_bytes,
        persist_latency=recorder.persist_latency,
        reload_latency=recorder.reload_latency,
        normal_time=result.stats.duration,
        peak_memory_bytes=result.peak_memory_bytes,
    )


def run_macro_slice(
    run_profile: QueryRunProfile,
    prefix: int,
    durations: list[float],
    clock_start: float,
    window_end: float,
    deadline_active: bool,
    request_at: float | None,
) -> MacroSliceOutcome:
    """Advance one dispatch slice analytically from the run profile.

    *prefix* is the first unfinished pipeline position, *durations* the
    restored per-pipeline durations.  When the slice suspends, the
    durations of every pipeline it finished are appended in place
    (exactly the values ``QueryStats.record_pipeline`` would have seen) —
    the only outcome whose durations survive into the next slice.

    The decision logic replays the engine's controller chain in
    consultation order — termination first, then deadline, then
    suspension request — against the bit-exact clock grid, walking the
    remaining pipelines one by one (a TPC-H plan has at most 12).
    """
    offset = int(run_profile.pipe_start[prefix])
    grid = np.add.accumulate(
        np.concatenate(([clock_start], run_profile.deltas[offset:]))
    )
    total = run_profile.pipeline_count
    check_pos = run_profile.check_pos
    breaker_check = run_profile.breaker_check
    pipe_start = run_profile.pipe_start
    deadline_margin = run_profile.deadline_margin
    appended = 0
    for position in range(prefix, total):
        breaker_index = int(breaker_check[position])
        breaker_pos = int(check_pos[breaker_index])
        clock_at_breaker = float(grid[breaker_pos - offset])
        # The engine records the pipeline's stats before consulting the
        # controller, so the just-finished pipeline is part of the mean.
        durations.append(
            clock_at_breaker - float(grid[pipe_start[position] - offset])
        )
        appended += 1
        if clock_at_breaker >= window_end:
            # The kill landed at a check inside this pipeline or at this
            # very breaker: the breaker carries the pipeline's largest
            # clock value, so the first breaker at/past the window end is
            # exactly the pipeline holding the first such check — and
            # termination is consulted before the other controllers.
            del durations[-appended:]
            return MacroSliceOutcome(kind="terminate")
        if position < total - 1:
            if deadline_active:
                mean = sum(durations) / len(durations)
                if (
                    clock_at_breaker + mean + deadline_margin[position]
                    >= window_end
                ):
                    return _suspend_outcome(run_profile, position, clock_at_breaker)
            if request_at is not None and clock_at_breaker >= request_at:
                return _suspend_outcome(run_profile, position, clock_at_breaker)
    del durations[-appended:]
    return MacroSliceOutcome(kind="complete", end=float(grid[-1]))


def _suspend_outcome(run_profile, position, clock_at_breaker) -> MacroSliceOutcome:
    return MacroSliceOutcome(
        kind="suspend",
        suspended_at=clock_at_breaker,
        breaker=position,
        persist_latency=run_profile.persist_latency[position],
        intermediate_bytes=run_profile.intermediate_bytes[position],
    )
