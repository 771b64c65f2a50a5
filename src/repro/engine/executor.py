"""Morsel-driven pipeline executor.

Implements the DuckDB-style execution model the paper builds on:

* pipelines run in dependency (= id) order;
* each pipeline's morsels are processed by ``num_threads`` simulated
  worker contexts in round-robin, each accumulating a *local* sink state;
* at pipeline completion the locals are combined into a *global* state and
  finalized — the pipeline breaker;
* a :class:`~repro.engine.controller.ExecutionController` is consulted at
  every morsel boundary and breaker and may suspend the query.

*Where* morsels compute is a :class:`~repro.engine.backend.WorkerBackend`
choice: the default :class:`~repro.engine.backend.SimulatedBackend` runs
deterministic logical worker contexts inline, while the
:class:`~repro.engine.backend.ParallelBackend` forks real OS worker
processes pulling morsels from a shared queue.  Either way the morsel is
split into a side-effect-free compute step (:meth:`QueryExecutor.
compute_morsel`) and a parent-side apply step (:meth:`QueryExecutor.
apply_morsel`) that replays clock advances, stats, memory accounting,
and sink-state mutation strictly in morsel order — so results, stats,
and snapshots are byte-identical across backends, and backend choice is
orthogonal to clock choice.  The local/global state structure, which is
what Riveter's mechanics depend on, is preserved exactly — including the
process-level resumption constraint that the worker count (and, now that
it is configurable, the morsel size) must match the suspended
configuration.
"""

from __future__ import annotations

import os
import time

from dataclasses import dataclass, field

from repro.engine.chunk import DataChunk, concat_chunks
from repro.engine.clock import Clock, SimulatedClock
from repro.engine.config import ExecutionConfig
from repro.engine.kernels import set_kernels
from repro.engine.controller import Action, BoundaryContext, ExecutionController
from repro.engine.errors import EngineError, QuerySuspended
from repro.engine.memory import MemoryAccountant
from repro.engine.operators.base import GlobalSinkState, LocalSinkState, Source
from repro.engine.operators.exchange import ExchangeInput, ExchangeSource
from repro.engine.operators.scan import ChunkSource, TableScanSource
from repro.engine.pipeline import Pipeline, build_pipelines
from repro.engine.plan import PlanNode, plan_fingerprint
from repro.engine.profile import HardwareProfile
from repro.engine.stats import OperatorStats, PipelineStats, QueryStats
from repro.obs.handle import Obs
from repro.storage.catalog import Catalog

__all__ = [
    "QueryExecutor",
    "QueryResult",
    "ExecutionCapture",
    "ResumeState",
    "MorselResult",
]

#: Morsels folded into one ``morsel``-category trace span.  Per-morsel
#: events would dominate the buffer; batches keep traces readable while
#: still showing scan progress on the timeline.
TRACE_MORSEL_BATCH = 32

#: Lazily imported :class:`repro.obs.profile.MorselProfile`.  A module-
#: level import would be circular when ``repro.obs`` loads first (its
#: ``profile`` submodule imports ``repro.engine.kernels``, which pulls
#: this module in via the ``repro.engine`` package).
_MORSEL_PROFILE_CLS = None


def _morsel_profile_cls():
    global _MORSEL_PROFILE_CLS
    if _MORSEL_PROFILE_CLS is None:
        from repro.obs.profile import MorselProfile

        _MORSEL_PROFILE_CLS = MorselProfile
    return _MORSEL_PROFILE_CLS


@dataclass
class QueryResult:
    """Completed query: final rows plus execution statistics."""

    chunk: DataChunk
    stats: QueryStats
    peak_memory_bytes: int


@dataclass
class ExecutionCapture:
    """Live (unserialized) execution state captured at a suspension point.

    ``kind`` is ``"pipeline"`` (captured at a breaker; only completed
    global states) or ``"process"`` (captured mid-pipeline; additionally
    carries the in-flight pipeline's worker-local states and morsel
    cursor).  Suspension strategies serialize captures into snapshots.
    """

    kind: str
    query_name: str
    plan_fingerprint: str
    clock_time: float
    num_threads: int
    morsel_size: int
    completed_states: dict[int, GlobalSinkState]
    stats: QueryStats
    memory_bytes: int
    live_pipelines: set[int] = field(default_factory=set)
    #: Pipelines bypassed by an earlier resume: completed in a previous
    #: suspension generation, with dead (unpersisted) states.  Without
    #: them a chained snapshot would forget that earlier prefix and the
    #: next resume would re-run pipelines the query already finished.
    skipped_pipelines: set[int] = field(default_factory=set)
    current_pipeline: int | None = None
    next_morsel: int = 0
    rows_in_pipeline: int = 0
    local_states: list[LocalSinkState] | None = None

    def live_states(self) -> dict[int, GlobalSinkState]:
        """Completed global states still needed by unfinished pipelines.

        A build/aggregate state whose consumers have all finished is dead:
        the pipeline-level strategy need not persist it, which is why
        pipeline-level snapshots can be orders of magnitude smaller than
        process images (paper §IV-A).
        """
        return {
            pid: state
            for pid, state in self.completed_states.items()
            if pid in self.live_pipelines
        }


@dataclass
class ResumeState:
    """Restored state handed to a fresh executor to continue a query."""

    completed_states: dict[int, GlobalSinkState]
    stats: QueryStats
    clock_time: float = 0.0
    skipped_pipelines: set[int] = field(default_factory=set)
    current_pipeline: int | None = None
    next_morsel: int = 0
    rows_in_pipeline: int = 0
    local_states: list[LocalSinkState] | None = None
    #: Morsel size at capture time.  ``next_morsel`` is a count of morsels,
    #: so a mid-pipeline resume is only valid at the same morsel size;
    #: 0 means unknown (pipeline-level resumes, legacy captures).
    morsel_size: int = 0


@dataclass
class MorselResult:
    """Output of the side-effect-free compute step for one morsel.

    Carries everything the parent-side apply step needs: per-operator row
    and byte counts (source at index 0) for clock/stats replay, and the
    sink's prepared payload.  Picklable — the parallel backend ships these
    across the worker result queue.
    """

    morsel_index: int
    op_rows: list[int]
    op_bytes: list[int]
    sink_rows: int
    prepared: object
    #: Wall-clock delta (:class:`repro.obs.profile.MorselProfile`) when a
    #: profiler is attached; ``None`` otherwise.  Never consulted by the
    #: deterministic apply path, never serialized into snapshots.
    profile: object = None


@dataclass
class _PipelineRun:
    """Mutable per-pipeline execution bookkeeping."""

    pipeline: Pipeline
    source: Source
    local_states: list[LocalSinkState]
    next_morsel: int = 0
    rows_processed: int = 0
    started_at: float = 0.0
    stats: PipelineStats = field(init=False)
    # trace bookkeeping for batched morsel spans
    batch_start_morsel: int = 0
    batch_started_at: float = 0.0
    batch_rows: int = 0

    def __post_init__(self) -> None:
        spec = self.pipeline.source
        if spec.kind == "table":
            source_label = f"scan({spec.table})"
        elif spec.kind == "exchange":
            source_label = f"exchange(x{spec.exchange_id}:{spec.table})"
        else:
            source_label = f"state{sorted(spec.state_pipelines)}"
        operators = [OperatorStats(label=source_label, kind=self.source.kind)]
        for index, operator in enumerate(self.pipeline.operators):
            operators.append(OperatorStats(label=f"{operator.kind}#{index}", kind=operator.kind))
        operators.append(
            OperatorStats(label=f"sink:{self.pipeline.sink.kind}", kind=self.pipeline.sink.kind)
        )
        self.stats = PipelineStats(
            pipeline_id=self.pipeline.pipeline_id,
            description=self.pipeline.description,
            operators=operators,
        )


class QueryExecutor:
    """Executes one physical plan over a catalog, with suspension hooks."""

    def __init__(
        self,
        catalog: Catalog,
        plan: PlanNode,
        profile: HardwareProfile | None = None,
        clock: Clock | None = None,
        controller: ExecutionController | None = None,
        query_name: str = "query",
        resume: ResumeState | None = None,
        *,
        obs: Obs | None = None,
        tracer=None,
        metrics=None,
        profiler=None,
        exchange_inputs: dict[int, "ExchangeInput"] | None = None,
        config: ExecutionConfig | None = None,
        **options,
    ):
        self.catalog = catalog
        self.plan = plan
        self.profile = profile if profile is not None else HardwareProfile()
        self.clock = clock if clock is not None else SimulatedClock()
        self.config = ExecutionConfig.of(config, **options)
        self.controller = controller if controller is not None else ExecutionController()
        self.query_name = query_name
        # The one constructor that still names sinks: the three an executor
        # consumes fold into the handle it was (or was not) given.  The
        # profiler is strictly observational: the profiled compute path is
        # an exact twin of the deterministic one plus perf_counter marks, so
        # all virtual-clock artifacts stay byte-identical with it attached.
        self.obs = Obs.of(obs, tracer=tracer, metrics=metrics, profiler=profiler)
        if self.obs.profiling:
            self.obs.profiler.bind(self)
        self.memory = MemoryAccountant()
        # Reassembled gather-exchange outputs keyed by exchange id; the
        # coordinator supplies these when the plan contains ShuffleRead
        # leaves (repro.dist), including again on resume.
        self.exchange_inputs = exchange_inputs or {}
        self.plan_fingerprint = plan_fingerprint(plan)
        self.pipelines: list[Pipeline] = build_pipelines(
            catalog,
            plan,
            lazy_filters=self.config.lazy_filters,
            select_operators=self.config.select_operators,
        )
        self.completed_states: dict[int, GlobalSinkState] = {}
        self.skipped_pipelines: set[int] = set()
        self.stats = QueryStats(query_name=query_name)
        self.peak_memory_bytes = 0
        self._resume = resume
        if resume is not None:
            self._apply_resume(resume)

    # -- resume ------------------------------------------------------------
    def _apply_resume(self, resume: ResumeState) -> None:
        known = {p.pipeline_id for p in self.pipelines}
        unknown = (set(resume.completed_states) | resume.skipped_pipelines) - known
        if unknown:
            raise EngineError(f"resume references unknown pipelines {sorted(unknown)}")
        self.completed_states = dict(resume.completed_states)
        self.skipped_pipelines = set(resume.skipped_pipelines)
        self.stats = resume.stats
        if isinstance(self.clock, SimulatedClock) and self.clock.now() < resume.clock_time:
            self.clock.advance(resume.clock_time - self.clock.now())
        for pid, state in self.completed_states.items():
            self.memory.set_charge(f"global:{pid}", state.nbytes)
        if self.obs.tracing:
            self.obs.instant(
                "resume",
                f"resume:{self.query_name}",
                self.clock.now(),
                completed_pipelines=sorted(self.completed_states),
                skipped_pipelines=sorted(self.skipped_pipelines),
                mid_pipeline=resume.current_pipeline,
                restored_bytes=sum(s.nbytes for s in self.completed_states.values()),
            )
        self.obs.count("resumptions_total")

    # -- execution ---------------------------------------------------------
    def run(self) -> QueryResult:
        """Execute to completion; may raise QuerySuspended/QueryTerminated."""
        # Install this executor's kernel set for the duration of the run
        # (operators read the process-active set); restore after so nested
        # executors and callers keep theirs.  Forked parallel workers
        # inherit the active set.  Under profiling the set is wrapped in
        # a delegating wall-timer (bit-identical results by construction).
        kernels = self.config.kernels
        if self.obs.profiling:
            kernels = self.obs.profiler.wrap_kernels(kernels)
        previous_kernels = set_kernels(kernels)
        try:
            return self._run()
        finally:
            set_kernels(previous_kernels)

    def _run(self) -> QueryResult:
        run_started = self.clock.now()
        self.obs.instant(
            "query",
            f"start:{self.query_name}",
            run_started,
            pipelines=len(self.pipelines),
            resumed=bool(self.completed_states or self.skipped_pipelines),
        )
        self.controller.on_query_start(self)
        self.stats.started_at = self.clock.now() if not self.stats.pipelines else self.stats.started_at
        for position, pipeline in enumerate(self.pipelines):
            done = (
                pipeline.pipeline_id in self.completed_states
                or pipeline.pipeline_id in self.skipped_pipelines
            )
            if done:
                continue
            self._run_pipeline(position, pipeline)
        result_state = self.completed_states[self.pipelines[-1].pipeline_id]
        chunk = self.pipelines[-1].sink.result_chunk(result_state)
        self.stats.finished_at = self.clock.now()
        self.memory.release_all()
        self.obs.span(
            "query",
            self.query_name,
            run_started,
            self.stats.finished_at,
            rows=int(chunk.num_rows),
            pipelines=len(self.stats.pipelines),
            peak_memory_bytes=self.peak_memory_bytes,
        )
        if self.obs.metrics is not None:
            self._record_query_metrics(chunk.num_rows)
        if self.obs.profiling:
            # Only a completed run finishes the profile: a suspended run
            # raises before reaching here, and the same profiler is handed
            # to the resumed executor to cover the whole lifecycle.
            self.obs.profiler.finish(self.stats, metrics=self.obs.metrics)
        return QueryResult(chunk=chunk, stats=self.stats, peak_memory_bytes=self.peak_memory_bytes)

    def _record_query_metrics(self, result_rows: int) -> None:
        metrics = self.obs.metrics
        metrics.counter("queries_total").inc()
        metrics.counter("result_rows_total").inc(int(result_rows))
        metrics.histogram("query_duration_vseconds").observe(self.stats.duration)
        for pipeline_stats in self.stats.pipelines:
            metrics.counter("morsels_total").inc(pipeline_stats.morsels_processed)
            for op in pipeline_stats.operators:
                metrics.counter("rows_total", operator=op.kind).inc(op.rows)

    def _run_pipeline(self, position: int, pipeline: Pipeline) -> None:
        source = self._make_source(pipeline)
        sink = pipeline.sink
        resuming_here = (
            self._resume is not None
            and self._resume.current_pipeline == pipeline.pipeline_id
            and self._resume.local_states is not None
        )
        if resuming_here:
            local_states = list(self._resume.local_states)
            if len(local_states) != self.profile.num_threads:
                raise EngineError(
                    "process-level resume requires the original worker count "
                    f"({len(local_states)}), got {self.profile.num_threads}"
                )
            morsel_size = self.config.morsel_size
            if self._resume.morsel_size and self._resume.morsel_size != morsel_size:
                raise EngineError(
                    "process-level resume requires the original morsel size "
                    f"({self._resume.morsel_size}), got {morsel_size}: "
                    "the captured cursor counts morsels"
                )
            run = _PipelineRun(pipeline, source, local_states, self._resume.next_morsel)
            run.rows_processed = self._resume.rows_in_pipeline
            self._resume = None
        else:
            run = _PipelineRun(
                pipeline, source, [sink.make_local_state() for _ in range(self.profile.num_threads)]
            )
        run.started_at = self.clock.now()
        run.stats.started_at = run.started_at
        run.batch_start_morsel = run.next_morsel
        run.batch_started_at = run.started_at

        self._bind_probe_states(run)
        self.config.backend.run_morsels(self, position, run, source.morsel_count)
        self._finish_pipeline(position, run)

    def _flush_morsel_batch(self, run: _PipelineRun) -> None:
        """Emit the pending morsel-batch span (tracer enabled only)."""
        if run.next_morsel == run.batch_start_morsel:
            return
        self.obs.span(
            "morsel",
            f"P{run.pipeline.pipeline_id}"
            f":morsels[{run.batch_start_morsel}..{run.next_morsel})",
            run.batch_started_at,
            self.clock.now(),
            pipeline=run.pipeline.pipeline_id,
            morsels=run.next_morsel - run.batch_start_morsel,
            rows=run.batch_rows,
        )
        run.batch_start_morsel = run.next_morsel
        run.batch_started_at = self.clock.now()
        run.batch_rows = 0

    def compute_morsel(self, run: _PipelineRun, index: int) -> MorselResult:
        """Side-effect-free morsel step: read, transform, sink-prepare.

        Safe to run in a forked worker process: touches only the source,
        the operator chain, and ``sink.prepare`` (a pure function of the
        chunk) — never the clock, stats, memory accountant, or sink
        states.

        With a profiler attached, the same compute in the same order also
        takes a ``perf_counter`` mark per operator slot and advances the
        shared kernel recorder's ``slot``, so the active
        :class:`~repro.obs.profile.ProfilingKernels` wrapper attributes
        kernel wall time to the operator that triggered the call.  The
        resulting wall-clock delta rides on the ``MorselResult`` and never
        touches snapshots.
        """
        pipeline = run.pipeline
        recorder = marks = None
        if self.obs.profiling:
            recorder = self.obs.profiler.kernel_recorder
            recorder.begin()
            marks = [time.perf_counter()]
        chunk = run.source.get_morsel(index)
        op_rows = [int(chunk.num_rows)]
        op_bytes = [int(chunk.nbytes)]
        for slot, operator in enumerate(pipeline.operators, start=1):
            if recorder is not None:
                marks.append(time.perf_counter())
                recorder.slot = slot
            chunk = operator.execute(chunk)
            op_rows.append(int(chunk.num_rows))
            op_bytes.append(int(chunk.nbytes))
        if recorder is not None:
            marks.append(time.perf_counter())
            recorder.slot = len(pipeline.operators) + 1
        # Sinks (and therefore all buffered/serialized state) only ever see
        # selection-free chunks; deferred gathers land here at the latest.
        chunk = chunk.materialize()
        prepared = pipeline.sink.prepare(chunk)
        profile = None
        if recorder is not None:
            marks.append(time.perf_counter())
            profile = _morsel_profile_cls()(
                morsel_index=index,
                pid=os.getpid(),
                started=marks[0],
                ended=marks[-1],
                op_wall=[end - start for start, end in zip(marks, marks[1:])],
                kernel_wall=recorder.take(),
            )
        return MorselResult(
            morsel_index=index,
            op_rows=op_rows,
            op_bytes=op_bytes,
            sink_rows=int(chunk.num_rows),
            prepared=prepared,
            profile=profile,
        )

    def apply_morsel(self, run: _PipelineRun, result: MorselResult) -> None:
        """Parent-side morsel step, applied strictly in morsel order.

        Replays clock advances, stats, and memory accounting in the same
        sequence as an inline run, and lands the prepared payload in the
        morsel's round-robin worker-local sink state — so backends cannot
        perturb any observable artifact.
        """
        pipeline = run.pipeline
        pid = pipeline.pipeline_id
        worker = result.morsel_index % self.profile.num_threads
        op_stats = run.stats.operators
        source_rows = result.op_rows[0]
        cost = self.profile.tuple_cost(run.source.kind, source_rows)
        self.clock.advance(cost)
        op_stats[0].rows += source_rows
        op_stats[0].bytes += result.op_bytes[0]
        op_stats[0].seconds += cost
        # Lazy deallocation model: a calibrated fraction of scanned buffers
        # stays charged until the query completes (paper §IV-A, Fig. 7).
        self.memory.charge(
            f"scan:{pid}", int(result.op_bytes[0] * self.profile.buffer_retention)
        )
        for index, operator in enumerate(pipeline.operators):
            rows = result.op_rows[index + 1]
            cost = self.profile.tuple_cost(operator.kind, rows)
            self.clock.advance(cost)
            op = op_stats[index + 1]
            op.rows += rows
            op.bytes += result.op_bytes[index + 1]
            op.seconds += cost
        pipeline.sink.sink_prepared(run.local_states[worker], result.prepared)
        op_stats[-1].rows += result.sink_rows
        self.memory.set_charge(f"local:{pid}:{worker}", run.local_states[worker].nbytes)
        self.peak_memory_bytes = max(self.peak_memory_bytes, self.memory.total_bytes)
        run.rows_processed += result.sink_rows
        run.next_morsel = result.morsel_index + 1
        run.stats.rows_processed = run.rows_processed
        run.stats.morsels_processed = run.next_morsel
        if result.profile is not None and self.obs.profiling:
            self.obs.profiler.record_morsel(run, result.profile)
        if self.obs.tracing:
            run.batch_rows += source_rows
            if run.next_morsel - run.batch_start_morsel >= TRACE_MORSEL_BATCH:
                self._flush_morsel_batch(run)

    def morsel_boundary_action(self, position: int, run: _PipelineRun) -> Action:
        """Consult the controller at a morsel boundary (backend hook)."""
        return self.controller.on_morsel_boundary(
            self._context(position, run, at_breaker=False)
        )

    def raise_process_suspend(self, run: _PipelineRun) -> None:
        """Capture mid-pipeline state and raise (backend hook)."""
        if self.obs.tracing:
            self._flush_morsel_batch(run)
            self.obs.instant(
                "suspend",
                f"capture:process:{self.query_name}",
                self.clock.now(),
                track="suspend",
                pipeline=run.pipeline.pipeline_id,
                morsel=run.next_morsel,
            )
        raise QuerySuspended(self._capture_process(run))

    def _finish_pipeline(self, position: int, run: _PipelineRun) -> None:
        pipeline = run.pipeline
        pid = pipeline.pipeline_id
        sink = pipeline.sink
        if self.obs.tracing:
            self._flush_morsel_batch(run)
        breaker_started = self.clock.now()
        # Wall-clock the coordinator-side breaker (combine + finalize):
        # for sort/aggregate sinks this is where the real work happens,
        # and no worker-side morsel timer sees it.
        breaker_wall_started = time.perf_counter() if self.obs.profiling else 0.0
        global_state = sink.make_global_state()
        for local_state in run.local_states:
            sink.combine(global_state, local_state)
        merge_cost = self.profile.tuple_cost("merge", run.rows_processed)
        self.clock.advance(merge_cost)
        sink.finalize(global_state)
        finalize_cost = self.profile.tuple_cost(
            sink.kind, sink.finalize_cost_rows(global_state)
        )
        self.clock.advance(finalize_cost)
        if self.obs.profiling:
            self.obs.profiler.record_breaker(run, time.perf_counter() - breaker_wall_started)
        sink_stats = run.stats.operators[-1]
        sink_stats.seconds += merge_cost + finalize_cost
        sink_stats.bytes = global_state.nbytes
        self.completed_states[pid] = global_state
        for worker in range(self.profile.num_threads):
            self.memory.release(f"local:{pid}:{worker}")
        self.memory.set_charge(f"global:{pid}", global_state.nbytes)
        self.peak_memory_bytes = max(self.peak_memory_bytes, self.memory.total_bytes)
        run.stats.finished_at = self.clock.now()
        run.stats.global_state_bytes = global_state.nbytes
        self.stats.record_pipeline(run.stats)
        if self.obs.tracing:
            self.obs.span(
                "breaker",
                f"P{pid}:breaker",
                breaker_started,
                run.stats.finished_at,
                pipeline=pid,
                state_bytes=global_state.nbytes,
                rows=run.rows_processed,
            )
            self.obs.span(
                "pipeline",
                f"P{pid}:{pipeline.description}",
                run.started_at,
                run.stats.finished_at,
                pipeline=pid,
                rows=run.rows_processed,
                morsels=run.stats.morsels_processed,
                state_bytes=global_state.nbytes,
            )
        context = self._context(position, run, at_breaker=True)
        action = self.controller.on_pipeline_breaker(context)
        if action is Action.SUSPEND_PIPELINE or action is Action.SUSPEND_PROCESS:
            kind = "pipeline" if action is Action.SUSPEND_PIPELINE else "process"
            self.obs.instant(
                "suspend",
                f"capture:{kind}:{self.query_name}",
                self.clock.now(),
                track="suspend",
                pipeline=pid,
            )
            raise QuerySuspended(self._capture(kind))

    # -- sources and bindings ----------------------------------------------
    def _make_source(self, pipeline: Pipeline) -> Source:
        spec = pipeline.source
        if spec.kind == "table":
            table = self.catalog.get(spec.table)
            return TableScanSource(table, list(spec.columns), self.config.morsel_size)
        if spec.kind == "state":
            chunks = []
            for pid in spec.state_pipelines:
                state = self.completed_states[pid]
                chunks.append(self.pipelines[pid].sink.result_chunk(state))
            merged = concat_chunks(pipeline.source_schema, chunks)
            return ChunkSource(merged, self.config.morsel_size)
        if spec.kind == "exchange":
            exchange_input = self.exchange_inputs.get(spec.exchange_id)
            if exchange_input is None:
                raise EngineError(
                    f"no exchange input for exchange id {spec.exchange_id}; "
                    "the coordinator must supply exchange_inputs"
                )
            return ExchangeSource(exchange_input, self.config.morsel_size)
        raise EngineError(f"unknown source kind {spec.kind!r}")

    def _bind_probe_states(self, run: _PipelineRun) -> None:
        """Bind each operator to the completed build states it probes.

        Runs on the coordinator before the first morsel (and before any
        fork).  With a profiler attached, kernel calls made while binding
        (the dense probe index build) are timed under the binding
        operator's slot, like the calls of a morsel.
        """
        recorder = None
        if self.obs.profiling:
            recorder = self.obs.profiler.kernel_recorder
            recorder.begin()
        for slot, operator in enumerate(run.pipeline.operators, start=1):
            if recorder is not None:
                recorder.slot = slot
            operator.bind_state(self.completed_states)
        if recorder is not None:
            self.obs.profiler.record_bind(run, recorder.take())

    # -- captures ------------------------------------------------------------
    def _context(self, position: int, run: _PipelineRun, at_breaker: bool) -> BoundaryContext:
        return BoundaryContext(
            executor=self,
            clock_now=self.clock.now(),
            pipeline_id=run.pipeline.pipeline_id,
            pipeline_pos=position,
            total_pipelines=len(self.pipelines),
            morsel_index=run.next_morsel,
            morsel_count=run.source.morsel_count,
            at_breaker=at_breaker,
            memory_bytes=self.memory.total_bytes,
            pipeline_state_bytes=self._completed_state_bytes(),
            local_state_bytes=sum(state.nbytes for state in run.local_states),
            stats=self.stats,
        )

    def _completed_state_bytes(self) -> int:
        live = self.live_pipeline_ids()
        return sum(
            state.nbytes for pid, state in self.completed_states.items() if pid in live
        )

    def live_states(self) -> dict[int, GlobalSinkState]:
        """Completed global states still needed by unfinished pipelines."""
        live = self.live_pipeline_ids()
        return {pid: s for pid, s in self.completed_states.items() if pid in live}

    def live_pipeline_ids(self, running: int | None = None) -> set[int]:
        """Completed pipelines whose global state unfinished pipelines need."""
        finished = set(self.completed_states) | self.skipped_pipelines
        if running is not None:
            finished.discard(running)
        live: set[int] = set()
        for pipeline in self.pipelines:
            if pipeline.pipeline_id in finished and pipeline.pipeline_id != running:
                continue
            live |= pipeline.dependencies & set(self.completed_states)
        return live

    def _capture(self, kind: str, running: int | None = None) -> ExecutionCapture:
        return ExecutionCapture(
            kind=kind,
            query_name=self.query_name,
            plan_fingerprint=self.plan_fingerprint,
            clock_time=self.clock.now(),
            num_threads=self.profile.num_threads,
            morsel_size=self.config.morsel_size,
            completed_states=dict(self.completed_states),
            stats=self.stats,
            memory_bytes=self.memory.total_bytes,
            live_pipelines=self.live_pipeline_ids(running),
            skipped_pipelines=set(self.skipped_pipelines),
        )

    def _capture_pipeline(self) -> ExecutionCapture:
        return self._capture("pipeline")

    def _capture_process(self, run: _PipelineRun) -> ExecutionCapture:
        capture = self._capture("process", running=run.pipeline.pipeline_id)
        capture.current_pipeline = run.pipeline.pipeline_id
        capture.next_morsel = run.next_morsel
        capture.rows_in_pipeline = run.rows_processed
        capture.local_states = list(run.local_states)
        return capture
