"""Deterministic multi-tenant workload generation (ResQ-style).

Realistic workload generation — arrival processes, tenant mixes,
performance-aware query selection — is the missing ingredient for
evaluating adaptive suspension at fleet scale.  This module produces the
paper's §II-B setting from one seed:

* :class:`TenantProfile` — a tenant with a class (``interactive`` /
  ``analytic`` / ``batch``), a query mix drawn from the 22 TPC-H plans,
  an arrival process (Poisson or bursty), an SLO stretch factor, and a
  fair-share weight;
* :func:`make_tenants` — a deterministic roster of ``count`` tenants
  cycling through the classes with seeded per-tenant rate jitter;
* :func:`generate_workload` — the merged arrival list over a horizon,
  one :class:`QueryArrival` per query instance.

Every random draw comes from ``numpy`` generators seeded through
:func:`repro.seeding.derive_seed`, so the same ``(tenants, duration,
seed)`` triple always yields a byte-identical workload — the property the
fleet determinism tests assert end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.export import canonical_json
from repro.seeding import derive_seed

__all__ = [
    "TENANT_CLASSES",
    "TenantProfile",
    "QueryArrival",
    "make_tenants",
    "generate_workload",
    "workload_to_jsonl",
]


#: Per-class workload shape.  Query mixes are performance-aware: the
#: interactive mix sticks to short scan/aggregate plans (the paper's
#: "short-running queries"), analytics draws the join-heavy plans whose
#: suspensions Case 1 is about, and batch takes the widest plans at a low,
#: bursty rate.  ``weights`` bias selection inside the mix toward the
#: cheaper plans, mimicking a production mix where cheap lookups dominate.
TENANT_CLASSES: dict[str, dict] = {
    "interactive": {
        "queries": ("Q6", "Q1", "Q14", "Q19"),
        "weights": (0.4, 0.3, 0.2, 0.1),
        "mean_interarrival": 30.0,  # virtual seconds
        "slo_factor": 3.0,
        "weight": 4.0,
        "burst_size_mean": 1.0,  # Poisson process: one query per arrival
    },
    "analytic": {
        "queries": ("Q3", "Q9", "Q18", "Q7", "Q12"),
        "weights": (0.3, 0.25, 0.2, 0.15, 0.1),
        "mean_interarrival": 90.0,
        "slo_factor": 4.0,
        "weight": 2.0,
        "burst_size_mean": 1.0,
    },
    "batch": {
        "queries": ("Q13", "Q10", "Q5", "Q21"),
        "weights": (0.4, 0.3, 0.2, 0.1),
        "mean_interarrival": 150.0,
        "slo_factor": 8.0,
        "weight": 1.0,
        # Bursty: each arrival event releases a geometric burst of
        # queries a few seconds apart (an ETL job fanning out).
        "burst_size_mean": 3.0,
    },
}

#: Order in which :func:`make_tenants` cycles the classes.
_CLASS_CYCLE = ("interactive", "analytic", "batch")

#: Substream id for the per-tenant arrival process (roster jitter uses 0).
#: Part of the workload's draw-order contract: changing it regenerates
#: every workload, so the fleet tests and bench baselines move with it.
_ARRIVAL_STREAM = 14


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's workload shape."""

    name: str
    klass: str
    queries: tuple[str, ...]
    query_weights: tuple[float, ...]
    mean_interarrival: float
    slo_factor: float
    weight: float
    burst_size_mean: float = 1.0

    @property
    def bursty(self) -> bool:
        return self.burst_size_mean > 1.0


@dataclass(frozen=True)
class QueryArrival:
    """One query instance entering the fleet at a point in virtual time."""

    name: str  # unique instance id, e.g. "t0-interactive:003:Q6"
    tenant: str
    tenant_class: str
    query: str  # TPC-H plan name (Q1..Q22)
    arrival_time: float
    interactive: bool
    slo_factor: float
    weight: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "tenant": self.tenant,
            "tenant_class": self.tenant_class,
            "query": self.query,
            "arrival_time": self.arrival_time,
            "interactive": self.interactive,
            "slo_factor": self.slo_factor,
            "weight": self.weight,
        }


def make_tenants(count: int, seed: int) -> list[TenantProfile]:
    """A deterministic roster of *count* tenants cycling the classes.

    Per-tenant rate jitter (±25%) keeps same-class tenants from moving in
    lockstep while staying a pure function of ``(count, seed)``.
    """
    if count <= 0:
        raise ValueError(f"tenant count must be positive, got {count}")
    tenants: list[TenantProfile] = []
    for index in range(count):
        klass = _CLASS_CYCLE[index % len(_CLASS_CYCLE)]
        spec = TENANT_CLASSES[klass]
        rng = np.random.default_rng(
            np.random.SeedSequence([derive_seed(seed, "workload", index), 0])
        )
        jitter = 0.75 + 0.5 * rng.random()
        tenants.append(
            TenantProfile(
                name=f"t{index}-{klass}",
                klass=klass,
                queries=tuple(spec["queries"]),
                query_weights=tuple(spec["weights"]),
                mean_interarrival=float(spec["mean_interarrival"]) * jitter,
                slo_factor=float(spec["slo_factor"]),
                weight=float(spec["weight"]),
                burst_size_mean=float(spec["burst_size_mean"]),
            )
        )
    return tenants


def _event_times(rng: np.random.Generator, mean: float, duration: float) -> np.ndarray:
    """Poisson event times over ``[0, duration)`` from batched draws.

    The exponential gaps are drawn in geometrically growing batches and
    cumulatively summed — O(1) Python calls per tenant instead of one
    ``rng.exponential`` round-trip per arrival.  The result is still a
    pure function of the generator state: batch boundaries only ever add
    *unused* tail draws, they never change the values kept.
    """
    batch = max(16, int(duration / mean * 1.25) + 16)
    gaps = rng.exponential(mean, size=batch)
    times = np.add.accumulate(gaps)
    while times[-1] < duration:
        gaps = rng.exponential(mean, size=batch)
        times = np.concatenate([times, times[-1] + np.add.accumulate(gaps)])
    return times[times < duration]


def _tenant_arrivals(
    tenant: TenantProfile, tenant_index: int, duration: float, seed: int
) -> list[QueryArrival]:
    """Arrival stream for one tenant over ``[0, duration)``.

    Vectorized end to end: gap cumsum, geometric burst sizes, repeated
    burst-member offsets, and one batched weighted query choice.  Member
    times within a burst increase by 2 s, so masking the flat member
    array against the horizon is equivalent to the per-burst early break
    of the scalar implementation.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [derive_seed(seed, "workload", tenant_index), _ARRIVAL_STREAM]
        )
    )
    weights = np.asarray(tenant.query_weights, dtype=np.float64)
    weights = weights / weights.sum()
    events = _event_times(rng, tenant.mean_interarrival, duration)
    if events.size == 0:
        return []
    if tenant.bursty:
        bursts = rng.geometric(1.0 / tenant.burst_size_mean, size=events.size)
    else:
        bursts = np.ones(events.size, dtype=np.int64)
    # Flat member array in event-major order: member k of event i lands
    # at events[i] + 2k.  positions = 0,1,..,b_i-1 per event.
    starts = np.add.accumulate(bursts) - bursts
    positions = np.arange(int(bursts.sum())) - np.repeat(starts, bursts)
    at_times = np.repeat(events, bursts) + 2.0 * positions
    at_times = at_times[at_times < duration]
    if at_times.size == 0:
        return []
    picks = rng.choice(len(tenant.queries), size=at_times.size, p=weights)
    queries = [tenant.queries[int(pick)] for pick in picks]
    name = tenant.name
    klass = tenant.klass
    interactive = klass == "interactive"
    slo_factor = tenant.slo_factor
    weight = tenant.weight
    return [
        QueryArrival(
            # No path separators: the name doubles as the snapshot
            # file stem on disk.
            name=f"{name}:{serial:03d}:{query}",
            tenant=name,
            tenant_class=klass,
            query=query,
            arrival_time=float(at_time),
            interactive=interactive,
            slo_factor=slo_factor,
            weight=weight,
        )
        for serial, (at_time, query) in enumerate(zip(at_times, queries))
    ]


def generate_workload(
    tenants: list[TenantProfile], duration: float, seed: int
) -> list[QueryArrival]:
    """Merged, time-ordered arrival list for the whole fleet.

    Ties on arrival time break on the instance name, so the ordering —
    and everything downstream of it — is a pure function of the inputs.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    merged: list[QueryArrival] = []
    for index, tenant in enumerate(tenants):
        merged.extend(_tenant_arrivals(tenant, index, duration, seed))
    merged.sort(key=lambda a: (a.arrival_time, a.name))
    return merged


def workload_to_jsonl(arrivals: list[QueryArrival]) -> str:
    """Canonical JSONL dump of a workload, one arrival per line.

    Keys are sorted and separators minimal, so the bytes are a pure
    function of the workload — the `--arrivals-out` contract used for
    inspection and twin calibration.
    """
    return "".join(
        canonical_json(arrival.to_json()) + "\n"
        for arrival in arrivals
    )
