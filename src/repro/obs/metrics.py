"""Metrics registry: counters, gauges, and histograms.

A minimal Prometheus-flavoured registry.  Metrics are identified by a
name plus a sorted label set; ``snapshot()`` produces a deterministic,
JSON-serializable dict that benchmarks dump as ``BENCH_obs.json`` so
successive PRs have a perf trajectory to compare against.

The catalog of metric names instrumented code emits:

=================================  ======  =================================
name                               type    meaning
=================================  ======  =================================
``queries_total``                  ctr     completed query executions
``rows_total{operator=…}``         ctr     rows produced per operator kind
``morsels_total``                  ctr     morsels processed
``query_duration_vseconds``        hist    virtual duration per query
``bytes_persisted_total{…}``       ctr     snapshot/image bytes written
``bytes_reloaded_total{…}``        ctr     snapshot/image bytes re-read
``codec_raw_bytes_total{codec=…}``    ctr  pre-codec snapshot payload bytes
``codec_encoded_bytes_total{codec=…}`` ctr encoded snapshot payload bytes
``persist_latency_seconds``        hist    modelled persist latencies
``reload_latency_seconds``         hist    modelled reload latencies
``suspension_lag_seconds``         hist    request → actual-suspension lag
``selector_decisions_total{…}``    ctr     Algorithm 1 outcomes per strategy
``selector_state_bytes``           hist    measured S^ppl at decision time
``estimator_error_seconds``        hist    estimated − actual total runtime
``terminations_total``             ctr     simulated kills that landed
``suspensions_total``              ctr     suspensions that persisted
``resumptions_total``              ctr     successful resumptions
``busy_seconds_total``             ctr     accumulated busy time (cost proxy)
``overhead_seconds_total``         ctr     busy − normal accumulated
``fleet_admitted_total{tenant=…}`` ctr     arrivals admitted to the fleet
``fleet_rejected_total{reason=…}`` ctr     arrivals shed (queue_full/memory)
``fleet_completions_total{…}``     ctr     fleet completions per tenant class
``fleet_latency_seconds{…}``       hist    arrival→finish latency per class
``fleet_slo_misses_total``         ctr     completions past their deadline
``fleet_reclamations_total``       ctr     spot windows that cut a run short
``trace_dropped_events_total``     ctr     tracer buffer overflow discards
``slo_alerts_total{class=…}``      ctr     burn-rate alerts per tenant class
``wall_compute_seconds{worker=…}`` hist    wall-clock morsel compute per worker
``wall_queue_wait_seconds{…}``     hist    wall-clock task-queue waits per worker
``wall_ship_seconds{worker=…}``    hist    wall-clock result shipping per worker
=================================  ======  =================================

The three ``wall_*`` histograms are the registry's only *wall-clock*
series, published by :class:`repro.obs.profile.QueryProfiler` when
profiling is enabled.  Wall metrics are host-dependent and **never
gated** — like the ``wall_seconds`` leaves in the bench suite, which
``bench_compare.py`` deliberately leaves out of its ``GATED_SUFFIXES``
allowlist — and they never appear in a run without a profiler attached,
so unprofiled metric exports stay byte-identical across hosts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "WALL_BUCKETS",
    "percentile",
]

#: Default histogram bucket upper bounds, in the units of the observed
#: quantity (virtual seconds for latencies; bytes-sized histograms pass
#: their own bounds).
DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 300.0, 1800.0)

#: Bucket bounds for the wall-clock ``wall_*`` histograms: real seconds
#: span a much wider dynamic range than virtual latencies (a morsel can
#: compute in tens of microseconds).
WALL_BUCKETS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 60.0)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values* (``q`` in ``[0, 1]``)."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be within [0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Counter:
    """Monotonically increasing value."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase; got {amount}")
        self.value += amount

    def to_json(self) -> dict:
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    """Last-written value."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_json(self) -> dict:
        return {"type": "gauge", "value": self.value}


@dataclass
class Histogram:
    """Fixed-bucket histogram with running sum/min/max."""

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0

    def __post_init__(self) -> None:
        self.buckets = tuple(sorted(float(b) for b in self.buckets))
        if not self.counts:
            # one count per bucket plus the +Inf overflow slot
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        if self.count == 0:
            self.min = self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated *q*-quantile from the bucket counts.

        Uses the Prometheus ``histogram_quantile`` interpolation: the
        target rank is located in the cumulative bucket counts and the
        value is linearly interpolated inside that bucket.  The first
        bucket interpolates from the observed minimum and the overflow
        bucket returns the observed maximum; results are clamped to the
        observed ``[min, max]`` so estimates never leave the data range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = self.min
        for index, bound in enumerate(self.buckets):
            in_bucket = self.counts[index]
            if cumulative + in_bucket >= target and in_bucket > 0:
                fraction = (target - cumulative) / in_bucket
                value = lower + (min(bound, self.max) - lower) * fraction
                return min(max(value, self.min), self.max)
            cumulative += in_bucket
            lower = max(lower, bound)
        return self.max

    def to_json(self) -> dict:
        return {
            "type": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


def _key(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create store of named metrics."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._meta: dict[str, tuple[str, dict[str, str]]] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, kind: type, name: str, labels: dict[str, str], factory):
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
            self._meta[key] = (name, dict(labels))
        elif not isinstance(metric, kind):
            raise TypeError(f"metric {key!r} is a {type(metric).__name__}, not {kind.__name__}")
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels, Gauge)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: str
    ) -> Histogram:
        factory = (lambda: Histogram(buckets=buckets)) if buckets else Histogram
        return self._get(Histogram, name, labels, factory)

    def items(self) -> list[tuple[str, "Counter | Gauge | Histogram"]]:
        """``(key, metric)`` pairs sorted by key (for renderers/exporters)."""
        return [(key, self._metrics[key]) for key in sorted(self._metrics)]

    def snapshot(self) -> dict:
        """Deterministic JSON-serializable dump of every metric."""
        return {
            "metrics": {
                key: self._metrics[key].to_json() for key in sorted(self._metrics)
            }
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Counters and gauges become single samples; histograms expand into
        cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.
        Output is sorted by metric name then label set, so exports are
        deterministic and diffable.
        """
        by_name: dict[str, list[tuple[str, dict, Counter | Gauge | Histogram]]] = {}
        for key in sorted(self._metrics):
            name, labels = self._meta[key]
            by_name.setdefault(name, []).append((key, labels, self._metrics[key]))
        lines: list[str] = []
        for name in sorted(by_name):
            series = by_name[name]
            kind = type(series[0][2]).__name__.lower()
            lines.append(f"# TYPE {name} {kind}")
            for _, labels, metric in series:
                if isinstance(metric, Histogram):
                    cumulative = 0
                    for index, bound in enumerate(metric.buckets):
                        cumulative += metric.counts[index]
                        bucket_labels = dict(labels, le=_format_number(bound))
                        lines.append(
                            f"{name}_bucket{_label_suffix(bucket_labels)} {cumulative}"
                        )
                    lines.append(
                        f"{name}_bucket{_label_suffix(dict(labels, le='+Inf'))} "
                        f"{metric.count}"
                    )
                    lines.append(
                        f"{name}_sum{_label_suffix(labels)} {_format_number(metric.total)}"
                    )
                    lines.append(f"{name}_count{_label_suffix(labels)} {metric.count}")
                else:
                    lines.append(
                        f"{name}{_label_suffix(labels)} {_format_number(metric.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _format_number(value: float) -> str:
    """Prometheus sample value: integral floats print without the ``.0``."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_suffix(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{{{inner}}}"
