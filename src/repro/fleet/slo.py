"""SLO attainment, latency percentiles, and dollar cost for fleet runs.

Each arrival carries an SLO deadline of ``slo_factor x normal_time`` past
its arrival (the stretch an interactive tenant tolerates before the
result stops being useful).  A query attains its SLO when it finishes by
the deadline; queries shed at admission count as misses — load shedding
is an SLO failure the operator chose, not a free pass.

Percentiles use the nearest-rank method on the exact latency list (no
interpolation, no sampling), so they are bit-stable across runs and
platforms.  Dollar cost charges every worker busy slice against a
:class:`~repro.cloud.environment.PriceTrace` segment by segment.

:class:`SLOMonitor` turns the pass/fail stream into *error-budget burn
rate*: over a sliding window the observed miss rate is divided by the
budgeted miss rate (``1 - target_attainment``), so burn ``1.0`` means the
class is spending its budget exactly on schedule and burn ``≥ threshold``
fires an edge-triggered alert into the trace, the audit journal, and the
timeline artifact — the standard SRE multi-window burn alert, on the
virtual clock.
"""

from __future__ import annotations

from collections import deque

from repro.cloud.environment import PriceTrace
from repro.fleet.cluster import FleetResult
from repro.obs.handle import Obs
from repro.obs.metrics import percentile

__all__ = [
    "percentile",
    "latency_stats",
    "slo_attainment",
    "dollars_for_slices",
    "class_breakdown",
    "tenant_breakdown",
    "SLOMonitor",
    "worker_utilization",
]


def latency_stats(latencies: list[float]) -> dict:
    """``mean/p50/p95/p99/max`` of a latency list (zeros when empty)."""
    if not latencies:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "count": len(latencies),
        "mean": sum(latencies) / len(latencies),
        "p50": percentile(latencies, 0.50),
        "p95": percentile(latencies, 0.95),
        "p99": percentile(latencies, 0.99),
        "max": max(latencies),
    }


def slo_attainment(attained: int, total: int) -> float:
    """Fraction of queries that met their deadline (1.0 for no queries)."""
    if total <= 0:
        return 1.0
    return attained / total


def dollars_for_slices(
    slices: list[tuple[float, float, str]], prices: PriceTrace
) -> float:
    """Charge busy ``(start, end, query)`` slices against *prices*.

    Each slice is split at the trace's segment boundaries so a spike that
    starts mid-slice is billed only for the covered stretch.  The walk
    steps through segment indices, never re-deriving one from a boundary
    time (``(k * step) // step`` can floor back to ``k - 1``).
    """
    step = prices.segment_seconds
    dollars = 0.0
    # The price is a pure function of the segment index; memoize it so a
    # 100k-slice fleet pays one trace lookup per segment, not per split.
    segment_price: dict[int, float] = {}
    for start, end, _query in slices:
        cursor = start
        segment = int(max(0.0, cursor) // step)
        while cursor < end - 1e-12:
            price = segment_price.get(segment)
            if price is None:
                price = segment_price[segment] = prices.segment_price(segment)
            boundary = min(end, (segment + 1) * step)
            dollars += (boundary - cursor) / 3600.0 * price
            cursor = boundary
            segment += 1
    return dollars


def _bucket(result: FleetResult, key) -> dict[str, dict]:
    """Aggregate completions and rejections by ``key(item)``."""
    buckets: dict[str, dict] = {}

    def entry(label: str) -> dict:
        if label not in buckets:
            buckets[label] = {
                "latencies": [],
                "attained": 0,
                "rejected": 0,
                "suspensions": 0,
                "lost_segments": 0,
                "persisted_bytes": 0,
            }
        return buckets[label]

    for completion in result.completions:
        bucket = entry(key(completion))
        bucket["latencies"].append(completion.latency)
        bucket["attained"] += int(completion.slo_attained)
        bucket["suspensions"] += completion.suspensions
        bucket["lost_segments"] += completion.lost_segments
        bucket["persisted_bytes"] += completion.persisted_bytes
    for rejected in result.rejections:
        entry(key(rejected))["rejected"] += 1

    summary: dict[str, dict] = {}
    for label in sorted(buckets):
        bucket = buckets[label]
        total = len(bucket["latencies"]) + bucket["rejected"]
        summary[label] = {
            "latency": latency_stats(bucket["latencies"]),
            "slo_attainment": slo_attainment(bucket["attained"], total),
            "rejected": bucket["rejected"],
            "suspensions": bucket["suspensions"],
            "lost_segments": bucket["lost_segments"],
            "persisted_bytes": bucket["persisted_bytes"],
        }
    return summary


def class_breakdown(result: FleetResult) -> dict[str, dict]:
    """Per tenant-class SLO/latency summary (interactive/analytic/batch)."""
    # FleetRejected has no tenant_class; recover it from the tenant name
    # ("t3-analytic" -> "analytic"), which the workload generator fixes.
    def key(item):
        klass = getattr(item, "tenant_class", None)
        return klass if klass is not None else item.tenant.split("-", 1)[1]

    return _bucket(result, key)


def tenant_breakdown(result: FleetResult) -> dict[str, dict]:
    """Per-tenant SLO/latency summary."""
    return _bucket(result, lambda item: item.tenant)


class SLOMonitor:
    """Per-tenant-class error-budget burn rate over a sliding window.

    Feed it every terminal observation — completions via
    :meth:`observe`, shed arrivals count as misses — and it maintains,
    per class, the last ``window_seconds`` of pass/fail outcomes.  Burn
    rate is ``miss_rate / (1 - target_attainment)``; crossing
    ``burn_threshold`` fires **one** alert (edge-triggered — the alert
    re-arms only after burn falls back below the threshold), mirrored to
    every sink *obs* carries: a trace instant on the ``slo`` track, an
    ``alert`` record in the decision journal, an alert record plus a
    ``slo_burn_rate:{class}`` series in the timeline recorder, and an
    ``slo_alerts_total`` counter.

    Everything is a pure function of the observation stream (virtual
    timestamps, deterministic order), so alert output is byte-stable
    across same-seed runs.
    """

    def __init__(
        self,
        target_attainment: float = 0.95,
        window_seconds: float = 120.0,
        burn_threshold: float = 2.0,
        *,
        obs: Obs | None = None,
    ):
        if not 0.0 < target_attainment < 1.0:
            raise ValueError(
                f"target_attainment must be within (0, 1), got {target_attainment}"
            )
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        if burn_threshold <= 0:
            raise ValueError(f"burn_threshold must be positive, got {burn_threshold}")
        self.target_attainment = target_attainment
        self.window_seconds = float(window_seconds)
        self.burn_threshold = float(burn_threshold)
        self.obs = Obs.of(obs)
        self._windows: dict[str, deque] = {}
        self._firing: dict[str, bool] = {}
        self.alerts: list[dict] = []

    def __repr__(self) -> str:
        return (
            f"SLOMonitor(target={self.target_attainment}, "
            f"window={self.window_seconds}s, alerts={len(self.alerts)})"
        )

    def burn_rate(self, tenant_class: str) -> float:
        """Current burn rate of *tenant_class* (0.0 when unobserved)."""
        window = self._windows.get(tenant_class)
        if not window:
            return 0.0
        misses = sum(1 for _, attained in window if not attained)
        return (misses / len(window)) / (1.0 - self.target_attainment)

    def observe(
        self, tenant_class: str, ts: float, attained: bool, query: str | None = None
    ) -> float:
        """Fold one terminal outcome; returns the class's new burn rate."""
        window = self._windows.setdefault(tenant_class, deque())
        window.append((ts, attained))
        cutoff = ts - self.window_seconds
        while window and window[0][0] < cutoff:
            window.popleft()
        misses = sum(1 for _, ok in window if not ok)
        burn = (misses / len(window)) / (1.0 - self.target_attainment)
        if self.obs.recording:
            self.obs.recorder.sample(f"slo_burn_rate:{tenant_class}", ts, burn)
        firing = burn >= self.burn_threshold
        if firing and not self._firing.get(tenant_class, False):
            self._fire(tenant_class, ts, burn, misses, len(window), query)
        self._firing[tenant_class] = firing
        return burn

    def _fire(self, tenant_class, ts, burn, misses, observations, query) -> None:
        alert = {
            "ts": ts,
            "tenant_class": tenant_class,
            "burn_rate": burn,
            "threshold": self.burn_threshold,
            "target_attainment": self.target_attainment,
            "window_seconds": self.window_seconds,
            "misses": misses,
            "observations": observations,
            "query": query,
        }
        self.alerts.append(alert)
        obs = self.obs
        obs.count("slo_alerts_total", tenant_class=tenant_class)
        obs.instant(
            "timeline",
            f"slo_burn:{tenant_class}",
            ts,
            track="slo",
            burn_rate=burn,
            misses=misses,
            observations=observations,
        )
        obs.audit(
            "alert",
            query if query is not None else tenant_class,
            ts,
            tenant_class=tenant_class,
            burn_rate=burn,
            threshold=self.burn_threshold,
            misses=misses,
            observations=observations,
        )
        if obs.recording:
            obs.recorder.add_alert(alert)


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def _subtract_intervals(base, minus):
    """``base - minus``; both inputs merged and sorted."""
    out: list[tuple[float, float]] = []
    for start, end in base:
        cursor = start
        for m_start, m_end in minus:
            if m_end <= cursor or m_start >= end:
                continue
            if m_start > cursor:
                out.append((cursor, m_start))
            cursor = max(cursor, m_end)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end))
    return out


def worker_utilization(result: FleetResult) -> dict[int, dict]:
    """Busy/suspended/idle breakdown per worker over the fleet horizon.

    Busy time comes from the worker's run slices; *suspended* time is
    the union of suspended phase segments (from each completion's
    :class:`~repro.cloud.segments.SegmentTimeline`) attributed to the
    worker whose run the suspension interrupted, minus any overlap with
    that worker's own busy time (a worker running other work is busy,
    not suspended).  The remainder of the horizon is idle.  The horizon
    is the configured duration stretched to cover any slice that ran
    past it.
    """
    busy_by: dict[int, list[tuple[float, float]]] = {
        w.worker: [(s, e) for s, e, _ in w.run_slices] for w in result.workers
    }
    suspended_by: dict[int, list[tuple[float, float]]] = {
        w.worker: [] for w in result.workers
    }
    for completion in result.completions:
        last_worker = None
        for segment in completion.segments:
            if segment["phase"] == "run":
                last_worker = segment.get("worker")
            elif segment["phase"] == "suspended" and last_worker in suspended_by:
                suspended_by[last_worker].append((segment["start"], segment["end"]))
    horizon = float(result.duration)
    for intervals in list(busy_by.values()) + list(suspended_by.values()):
        for _, end in intervals:
            horizon = max(horizon, end)
    out: dict[int, dict] = {}
    for summary in result.workers:
        busy = _merge_intervals(busy_by[summary.worker])
        suspended = _subtract_intervals(
            _merge_intervals(suspended_by[summary.worker]), busy
        )
        busy_seconds = sum(end - start for start, end in busy)
        suspended_seconds = sum(end - start for start, end in suspended)
        idle_seconds = max(0.0, horizon - busy_seconds - suspended_seconds)
        out[summary.worker] = {
            "horizon_seconds": horizon,
            "busy_seconds": busy_seconds,
            "suspended_seconds": suspended_seconds,
            "idle_seconds": idle_seconds,
            "busy_fraction": busy_seconds / horizon if horizon > 0 else 0.0,
            "suspended_fraction": suspended_seconds / horizon if horizon > 0 else 0.0,
            "idle_fraction": idle_seconds / horizon if horizon > 0 else 0.0,
        }
    return out
