"""Admission control and scheduling policies for the fleet cluster.

Admission happens once per arrival, *before* a query ever reaches a
worker: the controller sheds load when the ready queue is saturated and
rejects queries whose measured peak memory cannot fit any worker's
budget.  Rejections surface as :class:`FleetRejected` outcomes — they are
deterministic (a pure function of arrival order and queue state) and are
counted against SLO attainment, so a policy cannot look good by shedding.

The scheduling policy decides which admitted query a freed worker runs
next, and whether running analytics may be preempted (suspended through
the Riveter strategies) when interactive work arrives:

=================  ==========================================================
policy             behaviour
=================  ==========================================================
``fifo``           arrival order, run to completion; no suspensions — the
                   paper's non-adaptive baseline at fleet scale
``suspend-aware``  interactive queries first; running analytics suspend at
                   the next pipeline breaker when interactive work would
                   otherwise wait (Case 1, §II-B)
``fair-share``     weighted fair queueing across tenants (lowest
                   served-busy-time / weight first) with suspension-based
                   preemption
=================  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fleet.workload import QueryArrival
from repro.obs.handle import Obs

__all__ = [
    "FleetRejected",
    "AdmissionController",
    "SchedulingPolicy",
    "FifoPolicy",
    "SuspendAwarePolicy",
    "FairSharePolicy",
    "POLICIES",
    "make_policy",
]


@dataclass(frozen=True)
class FleetRejected:
    """A query shed at admission time."""

    name: str
    tenant: str
    query: str
    arrival_time: float
    reason: str  # "queue_full" | "memory"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "tenant": self.tenant,
            "query": self.query,
            "arrival_time": self.arrival_time,
            "reason": self.reason,
        }


class AdmissionController:
    """Queue-depth shedding plus a per-worker memory cap.

    ``peak_memory`` maps TPC-H plan names to the measured peak memory of
    a normal run (the cluster measures these once per distinct plan), so
    the memory check uses real engine accounting rather than the
    optimizer's cardinality guesses.

    Every verdict is journaled, counted and traced (an instant on the
    ``admission`` track) through *obs*.  One rule: a controller built
    without a handle reports through its cluster's — the whole handle, no
    per-sink backfill; one built with a handle keeps it.
    """

    def __init__(
        self,
        max_queue_depth: int = 16,
        memory_budget_bytes: int | None = None,
        peak_memory: dict[str, int] | None = None,
        *,
        obs: Obs | None = None,
    ):
        if max_queue_depth <= 0:
            raise ValueError(f"max_queue_depth must be positive, got {max_queue_depth}")
        self.max_queue_depth = max_queue_depth
        self.memory_budget_bytes = memory_budget_bytes
        self.peak_memory = peak_memory if peak_memory is not None else {}
        self.obs = Obs.of(obs)
        self.rejections: list[FleetRejected] = []

    def admit(self, arrival: QueryArrival, queue_depth: int) -> FleetRejected | None:
        """Admit *arrival* against the current queue depth.

        Returns ``None`` when admitted, else the recorded rejection.
        """
        reason = None
        if queue_depth >= self.max_queue_depth:
            reason = "queue_full"
        elif (
            self.memory_budget_bytes is not None
            and self.peak_memory.get(arrival.query, 0) > self.memory_budget_bytes
        ):
            reason = "memory"
        obs = self.obs
        if obs is not Obs.NONE:  # the untraced 100k-arrival loop pays one test
            obs.audit(
                "admission",
                arrival.name,
                arrival.arrival_time,
                tenant=arrival.tenant,
                plan=arrival.query,
                queue_depth=queue_depth,
                admitted=reason is None,
                reason=reason,
            )
            if reason is None:
                obs.count("fleet_admitted_total", tenant=arrival.tenant)
            else:
                obs.count("fleet_rejected_total", reason=reason)
            obs.instant(
                "fleet",
                f"{'admit' if reason is None else 'reject'}:{arrival.name}",
                arrival.arrival_time,
                track="admission",
                tenant=arrival.tenant,
                queue_depth=queue_depth,
                reason=reason,
            )
        if reason is None:
            return None
        rejected = FleetRejected(
            name=arrival.name,
            tenant=arrival.tenant,
            query=arrival.query,
            arrival_time=arrival.arrival_time,
            reason=reason,
        )
        self.rejections.append(rejected)
        return rejected


class SchedulingPolicy:
    """Order the ready queue; decide whether analytics are preemptible."""

    name: str = "abstract"
    #: whether running non-interactive queries should be suspended when
    #: interactive work would otherwise wait
    preemptive: bool = False
    #: static per-query heap key (a callable): the cluster keeps its ready
    #: set in this order.  A policy declares this or :attr:`fair_share`.
    order_key = None
    #: marks the weighted-fair-queueing order (two-level ready set keyed by
    #: each tenant's busy time divided by its weight, then arrival, name)
    fair_share: bool = False


class FifoPolicy(SchedulingPolicy):
    """Arrival order, run to completion (the non-adaptive baseline)."""

    name = "fifo"
    preemptive = False

    @staticmethod
    def order_key(query):
        return (query.arrival.arrival_time, query.arrival.name)


class SuspendAwarePolicy(SchedulingPolicy):
    """Interactive first; analytics are suspended to make room (Case 1)."""

    name = "suspend-aware"
    preemptive = True

    @staticmethod
    def order_key(query):
        return (
            not query.arrival.interactive,
            query.arrival.arrival_time,
            query.arrival.name,
        )


class FairSharePolicy(SchedulingPolicy):
    """Weighted fair queueing across tenants, with preemption."""

    name = "fair-share"
    preemptive = True
    fair_share = True


POLICIES: dict[str, type[SchedulingPolicy]] = {
    FifoPolicy.name: FifoPolicy,
    SuspendAwarePolicy.name: SuspendAwarePolicy,
    FairSharePolicy.name: FairSharePolicy,
}


def make_policy(name: str) -> SchedulingPolicy:
    if name not in POLICIES:
        raise KeyError(f"unknown policy {name!r}; expected one of {sorted(POLICIES)}")
    return POLICIES[name]()
