"""Queued/run/suspended segment bookkeeping.

:class:`~repro.fleet.cluster.FleetCluster` — at any worker count,
including the one-worker Case 1 scheduler — attributes every instant of a
query's life to one of three phases::

    {"phase": "queued" | "run" | "suspended", "start": ..., "end": ...}

which its lifecycle spans render as the query's ``query:<name>`` lane.
:class:`SegmentTimeline` keeps the timeline *contiguous* — any gap
between the previous known time and the next run start is attributed to
``queued`` (before the first run) or ``suspended`` (after a suspension)
automatically, so a query that arrives while another query is suspending
has no unattributed gap.  A resume's reload is busy time on the worker,
so it opens the following ``run`` segment rather than closing the
``suspended`` gap.
"""

from __future__ import annotations

__all__ = ["SEGMENT_PHASES", "SegmentTimeline"]

#: The closed set of phases a segment may carry.
SEGMENT_PHASES = ("queued", "run", "suspended")

#: Gaps shorter than this are dropped rather than emitted as zero-width
#: segments (floating-point noise from virtual-clock arithmetic).
_EPSILON = 1e-12


class SegmentTimeline:
    """Contiguous phase timeline for one query, from arrival to finish.

    The cursor starts at the arrival time.  :meth:`run` first attributes
    any gap since the cursor — ``queued`` until the first run segment has
    been recorded, ``suspended`` afterwards — and then appends the run
    segment itself, so the resulting list always tiles
    ``[arrival, finished]`` with no holes.
    """

    def __init__(self, arrival_time: float):
        self.arrival_time = arrival_time
        self.segments: list[dict] = []
        self._cursor = arrival_time
        self._has_run = False

    def __repr__(self) -> str:
        return (
            f"SegmentTimeline(arrival={self.arrival_time}, "
            f"segments={len(self.segments)})"
        )

    @property
    def cursor(self) -> float:
        """Virtual time up to which the timeline is attributed."""
        return self._cursor

    def _append(self, phase: str, start: float, end: float, **args) -> None:
        if phase not in SEGMENT_PHASES:
            raise ValueError(f"unknown segment phase {phase!r}")
        if end <= start + _EPSILON:
            return
        segment = {"phase": phase, "start": start, "end": end}
        segment.update(args)
        self.segments.append(segment)
        self._cursor = end

    def wait_until(self, start: float, **args) -> None:
        """Attribute ``[cursor, start]`` to the appropriate wait phase.

        ``queued`` before the query has ever run, ``suspended`` once it
        has (a suspended query waiting out other work is off the worker
        but holds a snapshot, which is a different thing to be shown on a
        timeline than never having started).
        """
        phase = "suspended" if self._has_run else "queued"
        self._append(phase, self._cursor, start, **args)

    def run(self, start: float, end: float, **args) -> None:
        """Record a busy stretch ``[start, end]``, filling any gap first."""
        self.wait_until(start)
        self._append("run", start, end, **args)
        self._has_run = True

