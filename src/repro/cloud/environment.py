"""Ephemeral cloud environment simulation.

Models the paper's motivating setting (§I, §II-B): computing capacity
that can be revoked (spot instances, zero-carbon clouds) and whose price
fluctuates with demand.  An :class:`EphemeralEnvironment` bundles a
hardware profile with a termination behaviour and a price trace; the
examples use it to decide when running is cost-effective, and the runner
uses it to spawn termination events.  A price budget turns the trace into
the windows a worker may run in (:meth:`PriceTrace.affordable`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.availability import AvailabilityTrace, AvailabilityWindow
from repro.costmodel.termination import TerminationProfile
from repro.engine.profile import HardwareProfile

__all__ = ["PriceTrace", "EphemeralEnvironment"]


@dataclass
class PriceTrace:
    """Piecewise-constant price per hour with random demand spikes.

    The paper cites spot prices surging 200–400× during peak demand; the
    default trace reproduces occasional spikes of that magnitude.
    """

    base_price: float = 1.0
    spike_multiplier: float = 300.0
    spike_probability: float = 0.05
    segment_seconds: float = 60.0
    seed: int = 7

    def segment_price(self, index: int) -> float:
        """Price of segment *index*, ``[index * step, (index + 1) * step)``."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, index]))
        if rng.random() < self.spike_probability:
            return self.base_price * self.spike_multiplier
        return self.base_price

    def price_at(self, at_time: float) -> float:
        """Price in effect at *at_time* (deterministic per segment)."""
        return self.segment_price(int(max(0.0, at_time) // self.segment_seconds))

    def is_affordable(self, at_time: float, budget_per_hour: float) -> bool:
        """Whether running at *at_time* fits the hourly budget."""
        return self.price_at(at_time) <= budget_per_hour

    def affordable(self, budget_per_hour: float, horizon: float) -> AvailabilityTrace:
        """The windows before *horizon* whose price fits the budget.

        Each window is a maximal run of segments ``k0 .. k1 - 1`` priced at
        most *budget_per_hour*, spanning ``[k0 * step, k1 * step)``.  Past the
        horizon the forecast ends (a fleet worker is then always available).
        """
        step = self.segment_seconds
        windows = []
        first = None
        index = 0
        while index * step < horizon:
            if self.segment_price(index) <= budget_per_hour:
                if first is None:
                    first = index
            elif first is not None:
                windows.append(AvailabilityWindow(first * step, index * step))
                first = None
            index += 1
        if first is not None:
            windows.append(AvailabilityWindow(first * step, index * step))
        if not windows:
            raise ValueError(
                f"no segment before t={horizon} fits a budget of {budget_per_hour}/h"
            )
        return AvailabilityTrace(windows)


@dataclass
class EphemeralEnvironment:
    """One ephemeral execution venue (a spot instance, a green data center)."""

    name: str
    profile: HardwareProfile = field(default_factory=HardwareProfile)
    prices: PriceTrace = field(default_factory=PriceTrace)
    seed: int = 1234

    def rng(self, run_index: int = 0) -> np.random.Generator:
        """Deterministic per-run RNG for event sampling."""
        return np.random.default_rng(np.random.SeedSequence([self.seed, run_index]))

    def sample_termination(
        self, termination: TerminationProfile, run_index: int = 0
    ) -> float | None:
        """Sampled termination time for run *run_index* (None = survives)."""
        return termination.sample(self.rng(run_index))
