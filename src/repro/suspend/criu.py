"""Simulated CRIU: process-image dump and restore.

The paper implements its process-level strategy on top of CRIU
(checkpoint/restore in userspace), dumping the whole query-execution
process as image files.  This module reproduces CRIU's *contract* without
an OS dependency:

* ``dump`` writes the full execution state (every completed global state,
  the in-flight pipeline's worker-local states and cursor, stats, memory
  balance) as an image file; the *image size* is the process's allocated
  memory plus a fixed context overhead, exactly the quantity CRIU would
  write for a real process;
* ``restore`` rebuilds a :class:`~repro.engine.executor.ResumeState`, and
  — like real CRIU — **refuses to restore onto a different resource
  configuration** (worker count / memory budget must match the dump).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.engine.errors import EngineError
from repro.engine.executor import ExecutionCapture, ResumeState
from repro.engine.pipeline import Pipeline
from repro.engine.profile import HardwareProfile
from repro.obs.handle import Obs
from repro.suspend.snapshot import Snapshot, SnapshotError

__all__ = ["CriuError", "SimulatedCriu"]


class CriuError(EngineError):
    """Dump or restore failed (e.g. resource configuration mismatch)."""


class SimulatedCriu:
    """Dump/restore of query-execution process images."""

    def __init__(self, profile: HardwareProfile, obs: Obs | None = None, codec: str = "raw"):
        self.profile = profile
        self.obs = Obs.of(obs)
        self.codec = codec

    def dump(self, capture: ExecutionCapture, path: str | os.PathLike) -> Snapshot:
        """Write a process image for *capture* to *path*."""
        if capture.kind != "process":
            raise CriuError(f"CRIU dumps whole processes; got a {capture.kind!r} capture")
        image = Snapshot.from_capture(
            capture,
            codec_name=self.codec,
            process_context_bytes=self.profile.process_context_bytes,
        )
        image.write(path)
        self.obs.instant(
            "persist",
            "criu:dump",
            capture.clock_time,
            track="suspend",
            image_bytes=image.intermediate_bytes,
            states=len(image.state_blobs),
            locals=len(image.local_state_blobs),
            mid_pipeline=image.current_pipeline,
        )
        return image

    def restore(
        self,
        image: Snapshot,
        pipelines: list[Pipeline],
        profile: HardwareProfile,
        plan_fingerprint: str,
    ) -> ResumeState:
        """Rebuild executor resume state from *image*.

        Raises :class:`CriuError` if the target *profile* differs from the
        configuration at dump time or the plan fingerprint does not match.
        """
        try:
            resume = image.resume_state(pipelines, plan_fingerprint)
        except SnapshotError as exc:
            raise CriuError(str(exc)) from exc
        if profile.num_threads != image.meta.num_threads:
            raise CriuError(
                "process-level restore requires an identical resource "
                f"configuration: image has {image.meta.num_threads} workers, "
                f"target has {profile.num_threads}"
            )
        self.obs.instant(
            "resume",
            "criu:restore",
            image.meta.clock_time,
            track="suspend",
            image_bytes=image.intermediate_bytes,
            mid_pipeline=image.current_pipeline,
            next_morsel=image.next_morsel,
        )
        return resume

    @staticmethod
    def read_image(path: str | os.PathLike) -> Snapshot:
        """Load a previously dumped image."""
        if not Path(path).exists():
            raise CriuError(f"no process image at {path}")
        return Snapshot.read(path, "process")
