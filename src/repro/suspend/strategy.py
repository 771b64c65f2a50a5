"""Suspension strategy interface.

A strategy decides *how* a query is suspended and resumed (paper §II-A,
Table I):

================  ====================  ======================  =====================
Strategy          Suspension point      Persisted data          Progress preserved
================  ====================  ======================  =====================
redo              terminate anytime     nothing                 none
process-level     any morsel boundary   whole process image     all
pipeline-level    pipeline breakers     live global states      completed pipelines
data-level (ext)  partition boundaries  partition results       completed partitions
================  ====================  ======================  =====================

Strategies are glue between the executor's capture mechanism and the
snapshot container; the slice driver runs them.  The two persisting
strategies share one ``persist`` / ``prepare_resume`` body here and
override only what the paper says differs (``_dump`` / ``_load``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.engine.executor import ExecutionCapture, ResumeState
from repro.engine.pipeline import Pipeline
from repro.engine.profile import HardwareProfile
from repro.obs.handle import Obs
from repro.storage import codec as codec_mod
from repro.storage.codec import CODEC_NAMES, CodecError
from repro.suspend.controller import SuspensionRequestController
from repro.suspend.snapshot import Snapshot, SnapshotError

__all__ = ["SuspendOutcome", "ResumeOutcome", "SuspensionStrategy"]


@dataclass
class SuspendOutcome:
    """Result of persisting a suspension.

    ``intermediate_bytes`` is what hits the (virtual) disk — encoded when a
    codec is active; ``raw_bytes`` is the pre-codec size of the same data
    (``None`` for strategies that persist nothing).
    """

    strategy: str
    snapshot_path: Path | None
    intermediate_bytes: int
    persist_latency: float
    suspended_at: float
    raw_bytes: int | None = None
    codec: str = "raw"


@dataclass
class ResumeOutcome:
    """Result of preparing resumption from a snapshot."""

    strategy: str
    resume_state: ResumeState | None
    reload_latency: float


class SuspensionStrategy:
    """Base class; concrete strategies live in sibling modules."""

    #: strategy identifier used in snapshots and reports
    name: str = "abstract"
    #: whether suspension persists any intermediate data
    persists_data: bool = True
    #: extension of the file ``persist`` writes
    file_extension: str = "snapshot"

    def __init__(self, profile: HardwareProfile, obs: Obs | None = None, codec: str = "raw"):
        if codec not in CODEC_NAMES:
            raise CodecError(f"unknown codec {codec!r}; expected one of {CODEC_NAMES}")
        self.profile = profile
        #: Built with a handle bound to a query's lifecycle (the runner
        #: builds one strategy per run), persist/reload spans join that
        #: query's causal tree instead of the flat ``suspend`` track.
        self.obs = Obs.of(obs)
        self.codec = codec

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    # -- observability -------------------------------------------------------
    def _record_persist(self, outcome: SuspendOutcome) -> None:
        """Emit the persist span/counters for *outcome* (no-op untraced)."""
        obs = self.obs
        obs.span(
            "persist",
            f"persist:{outcome.strategy}",
            outcome.suspended_at,
            outcome.suspended_at + outcome.persist_latency,
            track="suspend",
            strategy=outcome.strategy,
            bytes=outcome.intermediate_bytes,
        )
        obs.count("suspensions_total", strategy=outcome.strategy)
        obs.count("bytes_persisted_total", outcome.intermediate_bytes, strategy=outcome.strategy)
        obs.observe("persist_latency_seconds", outcome.persist_latency)
        if outcome.raw_bytes is not None and outcome.codec != "raw":
            obs.count("codec_raw_bytes_total", outcome.raw_bytes, codec=outcome.codec)
            obs.count("codec_encoded_bytes_total", outcome.intermediate_bytes, codec=outcome.codec)

    def _record_reload(self, outcome: ResumeOutcome, start: float, nbytes: int) -> None:
        """Emit the reload span/counters starting at virtual time *start*."""
        self.obs.span(
            "resume",
            f"reload:{outcome.strategy}",
            start,
            start + outcome.reload_latency,
            track="suspend",
            strategy=outcome.strategy,
            bytes=nbytes,
        )
        self.obs.count("bytes_reloaded_total", nbytes, strategy=outcome.strategy)
        self.obs.observe("reload_latency_seconds", outcome.reload_latency)

    def make_request_controller(self, request_time: float) -> SuspensionRequestController | None:
        """Controller that triggers this strategy's suspension.

        Returns ``None`` for strategies that never suspend (redo).  The
        controller reports on the flat handle: the gap between its request
        and suspend instants is the Fig. 9 lag, read off one ``suspend`` lane.
        """
        return SuspensionRequestController(
            request_time, mode=self.name, obs=self.obs.bound(None)
        )

    def _dump(self, capture: ExecutionCapture, path: Path) -> Snapshot:
        """Serialize *capture* into the snapshot file at *path*."""
        if capture.kind != self.name:
            raise SnapshotError(f"expected a {self.name} capture, got {capture.kind!r}")
        snapshot = Snapshot.from_capture(capture, codec_name=self.codec)
        snapshot.write(path)
        return snapshot

    def _load(
        self,
        path: str | os.PathLike,
        pipelines: list[Pipeline],
        plan_fingerprint: str,
        profile: HardwareProfile,
    ) -> tuple[Snapshot, ResumeState]:
        """Read the snapshot at *path* and rebuild the executor resume state."""
        snapshot = Snapshot.read(path, self.name)
        return snapshot, snapshot.resume_state(pipelines, plan_fingerprint)

    def persist(self, capture: ExecutionCapture, directory: str | os.PathLike) -> SuspendOutcome:
        """Serialize *capture* under *directory*; returns the outcome."""
        path = Path(directory) / f"{capture.query_name}.{self.name}.{self.file_extension}"
        snapshot = self._dump(capture, path)
        nbytes = snapshot.intermediate_bytes
        # Encoded bytes hit the disk; encoding CPU is charged on the same
        # virtual timeline as the write.
        persist_latency = self.profile.persist_latency(nbytes) + codec_mod.encode_cost_seconds(
            snapshot.codec_stats, self.profile.io_time_scale
        )
        outcome = SuspendOutcome(
            strategy=self.name,
            snapshot_path=path,
            intermediate_bytes=nbytes,
            persist_latency=persist_latency,
            suspended_at=capture.clock_time,
            raw_bytes=snapshot.raw_state_bytes,
            codec=self.codec,
        )
        self._record_persist(outcome)
        return outcome

    def prepare_resume(
        self,
        snapshot_path: str | os.PathLike,
        pipelines: list[Pipeline],
        plan_fingerprint: str,
        profile: HardwareProfile | None = None,
    ) -> ResumeOutcome:
        """Load a snapshot and build the executor resume state."""
        target_profile = profile or self.profile
        snapshot, resume = self._load(
            snapshot_path, pipelines, plan_fingerprint, target_profile
        )
        nbytes = snapshot.intermediate_bytes
        reload_latency = target_profile.reload_latency(nbytes) + codec_mod.decode_cost_seconds(
            snapshot.codec_stats, target_profile.io_time_scale
        )
        outcome = ResumeOutcome(
            strategy=self.name, resume_state=resume, reload_latency=reload_latency
        )
        # On the busy timeline the reload begins once the persist that wrote
        # this snapshot has finished.
        self._record_reload(
            outcome, snapshot.meta.clock_time + self.profile.persist_latency(nbytes), nbytes
        )
        return outcome
