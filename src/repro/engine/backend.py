"""Worker backends: who runs a pipeline's morsels.

The executor splits morsel processing into a side-effect-free compute
step (``compute_morsel``: source read, operator chain, sink *prepare*)
and a deterministic apply step (``apply_morsel``: clock advances, stats,
memory accounting, sink state mutation).  A backend decides where the
compute step runs; the apply step always runs on the coordinating
process, strictly in morsel order, so every observable artifact —
virtual timestamps, operator stats, sink local states, snapshots — is
byte-identical regardless of backend:

* :class:`SimulatedBackend` (default) computes and applies inline, one
  morsel at a time — the engine's historical deterministic loop.
* :class:`ParallelBackend` forks ``num_threads`` OS worker processes per
  pipeline; workers pull morsel indices from a shared queue, compute,
  and send the prepared result back.  The parent reassembles results in
  morsel order and applies them exactly like the simulated loop.

Backends are orthogonal to clock choice: the parent owns the clock and
replays identical per-morsel costs in identical order, so a parallel run
on a :class:`~repro.engine.clock.SimulatedClock` reproduces the
simulated backend's virtual timeline bit for bit, while a
:class:`~repro.engine.clock.WallClock` measures real elapsed time under
either backend.

Suspension under the parallel backend drains at a morsel boundary: when
the controller requests a process-level suspend, every already-
dispatched morsel is collected and applied in order (no new dispatches),
and the capture's morsel cursor lands at that drained boundary.  The
dispatch window is a fixed ``workers × prefetch``, so the drained
boundary is a deterministic function of the suspension point.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
import traceback

from repro.engine.chunk import materialized_bytes, record_materialization
from repro.engine.controller import Action
from repro.engine.errors import EngineError

__all__ = [
    "WorkerBackend",
    "SimulatedBackend",
    "ParallelBackend",
    "BACKEND_NAMES",
    "resolve_backend",
]

BACKEND_NAMES = ("simulated", "parallel")


class WorkerBackend:
    """Strategy interface for running one pipeline's morsel loop."""

    name = "abstract"

    def run_morsels(self, executor, position: int, run, total_morsels: int) -> None:
        """Process morsels ``[run.next_morsel, total_morsels)``.

        Must apply results strictly in morsel order and consult the
        executor's controller after each applied morsel.  Raises
        ``QuerySuspended`` (via the executor helpers) on suspension.
        """
        raise NotImplementedError


class SimulatedBackend(WorkerBackend):
    """Inline compute+apply: the deterministic single-process loop."""

    name = "simulated"

    def run_morsels(self, executor, position, run, total_morsels):
        while run.next_morsel < total_morsels:
            result = executor.compute_morsel(run, run.next_morsel)
            executor.apply_morsel(run, result)
            action = executor.morsel_boundary_action(position, run)
            if action is Action.SUSPEND_PROCESS:
                executor.raise_process_suspend(run)
            if action is Action.SUSPEND_PIPELINE:
                raise EngineError(
                    "pipeline-level suspension is only legal at a pipeline breaker"
                )


def _worker_loop(executor, run, tasks, results, worker_index: int = 0) -> None:
    """Forked worker: pull morsel indices, compute, ship results back.

    Materialized-bytes accounting happens in the worker's copy of the
    process-wide counter, so the delta rides along for the parent to
    replay — keeping ``bytes_materialized`` identical to an inline run.

    With a profiler attached (inherited over fork), the loop also times
    the task-queue wait preceding each morsel and the ``results.put``
    shipping the previous one; both land on the morsel's wall-clock
    delta.  Ship time is carried on the *next* morsel's delta, so the
    worker's final put goes uncounted — a disclosed approximation (see
    :mod:`repro.obs.profile`).
    """
    profiling = executor.obs.profiling
    queue_wait = 0.0
    pending_ship = 0.0
    while True:
        if profiling:
            wait_started = time.perf_counter()
            index = tasks.get()
            queue_wait = time.perf_counter() - wait_started
        else:
            index = tasks.get()
        if index is None:
            return
        try:
            before = materialized_bytes()
            result = executor.compute_morsel(run, index)
            delta = materialized_bytes() - before
            if profiling and result.profile is not None:
                result.profile.worker = worker_index
                result.profile.queue_wait = queue_wait
                result.profile.ship = pending_ship
                ship_started = time.perf_counter()
                results.put((index, result, delta, None))
                pending_ship = time.perf_counter() - ship_started
            else:
                results.put((index, result, delta, None))
        except BaseException:
            results.put((index, None, 0, traceback.format_exc()))
            return


class ParallelBackend(WorkerBackend):
    """Multiprocessing morsel workers with in-order parent-side apply."""

    name = "parallel"

    def __init__(
        self,
        workers: int | None = None,
        prefetch: int = 2,
        result_timeout: float = 120.0,
    ):
        self.workers = workers
        self.prefetch = max(1, int(prefetch))
        self.result_timeout = result_timeout

    def run_morsels(self, executor, position, run, total_morsels):
        remaining = total_morsels - run.next_morsel
        if remaining <= 0:
            return
        workers = int(self.workers or executor.profile.num_threads)
        if remaining == 1 or workers <= 1:
            # A single in-flight morsel has the same schedule either way;
            # skip the fork cost.  (Deterministic: depends only on counts.)
            SimulatedBackend().run_morsels(executor, position, run, total_morsels)
            return
        if "fork" not in multiprocessing.get_all_start_methods():
            raise EngineError(
                "the parallel backend requires the 'fork' start method; "
                "use --backend simulated on this platform"
            )
        context = multiprocessing.get_context("fork")
        tasks = context.SimpleQueue()
        results = context.Queue()
        # Fork after sources and probe states are bound: workers inherit
        # the full executor state copy-on-write, nothing is pickled in.
        processes = [
            context.Process(
                target=_worker_loop,
                args=(executor, run, tasks, results, worker_index),
                daemon=True,
            )
            for worker_index in range(workers)
        ]
        for process in processes:
            process.start()

        window = workers * self.prefetch
        dispatched = run.next_morsel
        pending: dict[int, tuple] = {}

        def pop_result(index: int):
            while index not in pending:
                try:
                    item = results.get(timeout=self.result_timeout)
                except queue_mod.Empty:
                    raise EngineError(
                        f"parallel worker produced no result for morsel {index} "
                        f"within {self.result_timeout:.0f}s"
                    ) from None
                pending[item[0]] = item
            index, result, delta, error = pending.pop(index)
            if error is not None:
                raise EngineError(
                    f"parallel worker failed on morsel {index}:\n{error}"
                )
            record_materialization(delta)
            return result

        try:
            while run.next_morsel < total_morsels:
                while dispatched < total_morsels and dispatched - run.next_morsel < window:
                    tasks.put(dispatched)
                    dispatched += 1
                executor.apply_morsel(run, pop_result(run.next_morsel))
                action = executor.morsel_boundary_action(position, run)
                if action is Action.SUSPEND_PROCESS:
                    # Drain at the boundary: apply every dispatched morsel
                    # in order, then capture.  No controller consults while
                    # draining — the suspension decision is already made.
                    while run.next_morsel < dispatched:
                        executor.apply_morsel(run, pop_result(run.next_morsel))
                    executor.raise_process_suspend(run)
                if action is Action.SUSPEND_PIPELINE:
                    raise EngineError(
                        "pipeline-level suspension is only legal at a pipeline breaker"
                    )
        finally:
            for _ in processes:
                tasks.put(None)
            for process in processes:
                process.join(timeout=5.0)
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
            results.cancel_join_thread()
            results.close()
            tasks.close()


#: The inline backend is stateless, so one instance serves every executor
#: (and default execution configs compare equal).
_SIMULATED = SimulatedBackend()


def resolve_backend(spec: WorkerBackend | str | None) -> WorkerBackend:
    """Map a CLI/executor spec (name, instance, or None) to a backend."""
    if spec is None or spec == "simulated":
        return _SIMULATED
    if isinstance(spec, WorkerBackend):
        return spec
    if spec == "parallel":
        return ParallelBackend()
    raise EngineError(
        f"unknown worker backend {spec!r}; expected one of {BACKEND_NAMES}"
    )
