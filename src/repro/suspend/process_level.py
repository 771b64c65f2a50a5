"""Process-level suspension and resumption over the simulated CRIU.

The query can be suspended at *any* morsel boundary; the whole execution
process (every completed global state, the in-flight pipeline's worker
local states and morsel cursor, and the memory-accountant balance) is
dumped as an image.  The image size is the process's allocated memory plus
a fixed context overhead, so it grows with scan progress (Fig. 6/7) —
and resumption demands an identical resource configuration (§III-A).
"""

from __future__ import annotations

from repro.engine.profile import HardwareProfile
from repro.obs.handle import Obs
from repro.suspend.criu import SimulatedCriu
from repro.suspend.strategy import SuspensionStrategy

__all__ = ["ProcessLevelStrategy"]


class ProcessLevelStrategy(SuspensionStrategy):
    """Suspend anytime; dump and restore full process images via CRIU."""

    name = "process"
    file_extension = "image"

    def __init__(self, profile: HardwareProfile, obs: Obs | None = None, codec: str = "raw"):
        super().__init__(profile, obs=obs, codec=codec)
        # dump/restore instants are flat ``suspend``-lane events even when
        # the strategy's persist/reload spans join a query's tree
        self.criu = SimulatedCriu(profile, obs=self.obs.bound(None), codec=codec)

    def _dump(self, capture, path):
        return self.criu.dump(capture, path)

    def _load(self, path, pipelines, plan_fingerprint, profile):
        image = SimulatedCriu.read_image(path)
        return image, self.criu.restore(image, pipelines, profile, plan_fingerprint)
