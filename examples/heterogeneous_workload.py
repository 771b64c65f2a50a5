#!/usr/bin/env python3
"""Case 1 (§II-B): heterogeneous workloads on a shared worker.

A long-running analytic query (Q21) occupies the only worker while short
interactive queries (Q6) arrive.  Without suspension the short queries
wait for the long one to finish; with Riveter the long query is suspended
at pipeline breakers, the short queries drain, and the long query resumes
from its snapshot — "converting a long-running query into a series of
short-running ones".

The scheduler is the fleet simulator with one worker and no availability
trace (``duration=0.0``: the worker never gets reclaimed).

Run:  python examples/heterogeneous_workload.py
"""

import tempfile

from repro.fleet import FleetCluster, make_policy
from repro.fleet.workload import QueryArrival
from repro.harness.report import format_table
from repro.tpch import generate_catalog


def arrival(name: str, query: str, at: float, interactive: bool = False) -> QueryArrival:
    return QueryArrival(
        name=name,
        tenant="interactive" if interactive else "analytic",
        tenant_class="interactive" if interactive else "analytic",
        query=query,
        arrival_time=at,
        interactive=interactive,
        slo_factor=3.0,
        weight=1.0,
    )


def schedule(catalog, policy: str, arrivals: list[QueryArrival]) -> dict:
    cluster = FleetCluster(
        catalog,
        make_policy(policy),
        workers=1,
        snapshot_dir=tempfile.mkdtemp(prefix="riveter-sched-"),
    )
    result = cluster.run(arrivals, duration=0.0)
    return {c.name: c for c in result.completions}


def mean_latency(completions: dict, names: set[str]) -> float:
    return sum(completions[name].latency for name in names) / len(names)


def main() -> None:
    print("Generating TPC-H data...")
    catalog = generate_catalog(0.01)

    # One long analytic query at t=0; three interactive queries arrive
    # while it runs.
    arrivals = [
        arrival("long:Q21", "Q21", 0.0),
        arrival("short:Q6 #1", "Q6", 5.0, interactive=True),
        arrival("short:Q6 #2", "Q6", 12.0, interactive=True),
        arrival("short:Q6 #3", "Q6", 20.0, interactive=True),
    ]

    print("Scheduling with run-to-completion (FIFO)...")
    fifo = schedule(catalog, "fifo", arrivals)
    print("Scheduling with Riveter suspension-aware preemption...")
    preemptive = schedule(catalog, "suspend-aware", arrivals)

    rows = []
    for query in arrivals:
        before = fifo[query.name]
        after = preemptive[query.name]
        rows.append(
            [
                query.name,
                f"{query.arrival_time:.0f}s",
                f"{before.latency:.1f}s",
                f"{after.latency:.1f}s",
                after.suspensions,
            ]
        )
    print()
    print(
        format_table(
            ["query", "arrives", "FIFO latency", "preemptive latency", "suspensions"],
            rows,
        )
    )

    short_names = {a.name for a in arrivals if a.interactive}
    fifo_short = mean_latency(fifo, short_names)
    preemptive_short = mean_latency(preemptive, short_names)
    print(
        f"\nMean interactive latency: {fifo_short:.1f}s (FIFO) → "
        f"{preemptive_short:.1f}s (suspension-aware), "
        f"{fifo_short / max(preemptive_short, 1e-9):.1f}× better"
    )
    long_name = "long:Q21"
    print(
        f"Long query latency: {fifo[long_name].latency:.1f}s → "
        f"{preemptive[long_name].latency:.1f}s "
        "(pays the suspension overhead)"
    )


if __name__ == "__main__":
    main()
