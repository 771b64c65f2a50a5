"""The slice driver: the single owner of a query's suspended state.

Riveter's mechanism is one loop — run a pipeline-based query until an
interruption, persist the chosen state, reload it into a fresh executor.
:class:`QuerySession` is the only code that builds a per-slice
``QueryExecutor``, catches ``QuerySuspended`` / ``QueryTerminated``, and
calls ``strategy.persist``, ``SnapshotStore.register`` / ``materialize``
and ``strategy.prepare_resume``.  A driver keeps only its policy: the
controller of the next slice, the clock origin, and whether a persisted
slice beat its deadline (:meth:`QuerySession.commit`).  The contract is
in DESIGN.md, "Slice driver".
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.engine.clock import SimulatedClock
from repro.engine.config import ExecutionConfig
from repro.engine.controller import ExecutionController
from repro.engine.errors import QuerySuspended, QueryTerminated
from repro.engine.executor import ExecutionCapture, QueryExecutor, QueryResult
from repro.engine.pipeline import Pipeline
from repro.engine.plan import PlanNode
from repro.engine.profile import HardwareProfile
from repro.obs.handle import Obs
from repro.storage.catalog import Catalog
from repro.suspend.pipeline_level import PipelineLevelStrategy
from repro.suspend.process_level import ProcessLevelStrategy
from repro.suspend.redo import RedoStrategy
from repro.suspend.store import SnapshotRecord, SnapshotStore
from repro.suspend.strategy import ResumeOutcome, SuspendOutcome, SuspensionStrategy

__all__ = ["Slice", "QuerySession", "make_strategy"]

#: Subdirectory of a session's snapshot directory holding persisted but
#: not yet committed snapshots.
STAGING_DIR = "uncommitted"


def make_strategy(
    name: str,
    profile: HardwareProfile,
    obs: Obs | None = None,
    config: ExecutionConfig | None = None,
    **options,
) -> SuspensionStrategy:
    """Strategy instance by name (``redo`` / ``pipeline`` / ``process``)."""
    strategies = {
        "redo": RedoStrategy,
        "pipeline": PipelineLevelStrategy,
        "process": ProcessLevelStrategy,
    }
    if name not in strategies:
        raise KeyError(f"unknown strategy {name!r}; expected one of {sorted(strategies)}")
    codec = ExecutionConfig.of(config, **options).codec
    return strategies[name](profile, obs=obs, codec=codec)


@dataclass
class Slice:
    """What one executor slice did: ``complete``/``suspend``/``terminate``.

    ``end`` is the slice clock when it stopped.  A ``suspend`` slice
    carries the live ``capture`` until :meth:`QuerySession.persist` fills
    ``persisted``.
    """

    kind: str
    end: float
    result: QueryResult | None = None
    capture: ExecutionCapture | None = None
    killed_at: float | None = None
    persisted: SuspendOutcome | None = None

    @property
    def suspended_at(self) -> float:
        return self.persisted.suspended_at

    @property
    def persist_latency(self) -> float:
        return self.persisted.persist_latency

    @property
    def intermediate_bytes(self) -> int:
        return self.persisted.intermediate_bytes


class QuerySession:
    """Runs one query slice by slice across suspensions.

    *strategy* is the strategy every suspension persists through; leave
    it ``None`` to derive it from the first capture's kind (adaptive
    runs: the kind equals Algorithm 1's choice).  *obs* reaches every
    slice's executor and a derived strategy; bound to the query's
    lifecycle, persist/reload spans join its causal tree while executor
    events stay on the flat engine track.  A *strategy* passed in reports
    through its own handle.  *config* / *options* resolve once, here; every
    slice's ``QueryExecutor`` and a derived strategy get the same object,
    so a snapshot is taken and restored under one execution configuration.
    """

    def __init__(
        self,
        catalog: Catalog,
        plan: PlanNode,
        query_name: str,
        directory: str | os.PathLike,
        profile: HardwareProfile,
        strategy: SuspensionStrategy | None = None,
        store: SnapshotStore | None = None,
        obs: Obs | None = None,
        exchange_inputs: dict | None = None,
        config: ExecutionConfig | None = None,
        **options,
    ):
        self.catalog = catalog
        self.plan = plan
        self.query_name = query_name
        self.directory = Path(directory)
        self.profile = profile
        self.strategy = strategy
        self.store = store
        self.obs = Obs.of(obs)
        self.exchange_inputs = exchange_inputs
        self.config = ExecutionConfig.of(config, **options)
        #: last slice's pipelines and plan fingerprint, which the committed
        #: snapshot's states deserialize through
        self._pipelines: list[Pipeline] | None = None
        self._fingerprint = ""
        self._committed: Path | None = None
        self._loaded: ResumeOutcome | None = None

    @property
    def has_snapshot(self) -> bool:
        """Whether the next slice resumes from a committed snapshot."""
        return self._committed is not None

    def adopt(self, snapshot_path: str | os.PathLike) -> None:
        """Take over a snapshot another session committed (query migration)."""
        self._committed = Path(snapshot_path)

    def reload(self) -> float:
        """Load the committed snapshot for the next slice.

        Returns the reload latency that slice pays (0.0 when it starts
        from scratch).  :meth:`run_slice` calls this itself when the
        driver did not.
        """
        if self._committed is None:
            return 0.0
        if self._pipelines is None:
            # Adopted snapshot, no slice run here yet: a never-run executor
            # supplies the pipelines its states deserialize through.
            self._build_executor(None, SimulatedClock(), None)
        self._loaded = self.strategy.prepare_resume(
            self._committed, self._pipelines, self._fingerprint
        )
        return self._loaded.reload_latency

    def run_slice(
        self,
        controller: ExecutionController | None = None,
        clock: SimulatedClock | None = None,
    ) -> Slice:
        """Run a fresh executor from the committed state until it stops."""
        if self._loaded is None:
            self.reload()
        loaded, self._loaded = self._loaded, None
        if clock is None:
            clock = SimulatedClock()
        executor = self._build_executor(
            controller, clock, None if loaded is None else loaded.resume_state
        )
        try:
            result = executor.run()
        except QuerySuspended as suspended:
            return Slice("suspend", clock.now(), capture=suspended.capture)
        except QueryTerminated as terminated:
            return Slice("terminate", clock.now(), killed_at=terminated.at_time)
        return Slice("complete", clock.now(), result=result)

    def _build_executor(self, controller, clock, resume) -> QueryExecutor:
        executor = QueryExecutor(
            self.catalog,
            self.plan,
            profile=self.profile,
            clock=clock,
            controller=controller,
            query_name=self.query_name,
            resume=resume,
            obs=self.obs.bound(None),
            exchange_inputs=self.exchange_inputs,
            config=self.config,
        )
        self._pipelines, self._fingerprint = executor.pipelines, executor.plan_fingerprint
        return executor

    def persist(self, piece: Slice) -> SuspendOutcome:
        """Write a suspended slice's capture to the staging directory."""
        if self.strategy is None:
            self.strategy = make_strategy(
                piece.capture.kind, self.profile, obs=self.obs, config=self.config
            )
        staging = self.directory / STAGING_DIR
        staging.mkdir(parents=True, exist_ok=True)
        piece.persisted = self.strategy.persist(piece.capture, staging)
        return piece.persisted

    def commit(self, piece: Slice) -> SnapshotRecord | None:
        """Make a persisted slice the point the next slice resumes from.

        Moves the snapshot out of staging — into the store when there is
        one (returning its record), else into the session directory.
        """
        persisted = piece.persisted
        record = None
        if self.store is not None:
            record = self.store.register(persisted, self.query_name)
            self._committed = self.store.materialize(record)
        else:
            self._committed = self.directory / persisted.snapshot_path.name
            persisted.snapshot_path.replace(self._committed)
        persisted.snapshot_path = self._committed
        return record
