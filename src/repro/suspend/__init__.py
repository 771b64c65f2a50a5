"""Suspension strategies, snapshots, and the simulated CRIU."""

from repro.suspend.controller import (
    CompositeController,
    SuspensionRequestController,
    TerminationController,
)
from repro.suspend.criu import CriuError, SimulatedCriu
from repro.suspend.pipeline_level import PipelineLevelStrategy
from repro.suspend.process_level import ProcessLevelStrategy
from repro.suspend.redo import RedoStrategy
from repro.suspend.session import QuerySession, Slice, make_strategy
from repro.suspend.snapshot import Snapshot, SnapshotError, SnapshotFile, hash_blob
from repro.suspend.store import SnapshotRecord, SnapshotStore
from repro.suspend.strategy import ResumeOutcome, SuspendOutcome, SuspensionStrategy

__all__ = [
    "CompositeController",
    "SuspensionRequestController",
    "TerminationController",
    "CriuError",
    "SimulatedCriu",
    "PipelineLevelStrategy",
    "ProcessLevelStrategy",
    "RedoStrategy",
    "QuerySession",
    "Slice",
    "make_strategy",
    "Snapshot",
    "SnapshotError",
    "SnapshotFile",
    "hash_blob",
    "SnapshotRecord",
    "SnapshotStore",
    "ResumeOutcome",
    "SuspendOutcome",
    "SuspensionStrategy",
]
