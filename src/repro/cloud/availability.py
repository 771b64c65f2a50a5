"""Intermittent availability (zero-carbon clouds, spot capacity, §I/§II-B).

Zero-carbon data centers run on renewable supply: capacity comes and goes
in forecastable windows.  A query longer than one window *must* be
suspended and resumed repeatedly — the paper's multiple-suspensions
extension (§VI) in its natural habitat.

:class:`AvailabilityTrace` models the forecast (a list of power-on
windows).  The fleet is the one driver that runs a query across it:
``FleetCluster(catalog, policy, workers=1).run(arrivals, duration,
availability=[trace])`` suspends at a pipeline breaker ahead of each
outage and resumes in the next window; a price budget becomes a trace
through :meth:`repro.cloud.environment.PriceTrace.affordable`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AvailabilityWindow", "AvailabilityTrace"]


@dataclass(frozen=True)
class AvailabilityWindow:
    """One contiguous power-on interval on the wall-clock timeline."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"window end {self.end} must exceed start {self.start}")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class AvailabilityTrace:
    """A forecast of power-on windows, ordered and non-overlapping."""

    windows: list[AvailabilityWindow]

    def __post_init__(self) -> None:
        for before, after in zip(self.windows, self.windows[1:]):
            if after.start < before.end:
                raise ValueError("availability windows must be ordered and disjoint")

    @classmethod
    def periodic(cls, on_seconds: float, off_seconds: float, count: int) -> "AvailabilityTrace":
        """``count`` windows of ``on_seconds`` separated by ``off_seconds``."""
        windows = []
        start = 0.0
        for _ in range(count):
            windows.append(AvailabilityWindow(start, start + on_seconds))
            start += on_seconds + off_seconds
        return cls(windows)
