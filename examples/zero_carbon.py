#!/usr/bin/env python3
"""Zero-carbon cloud (§I): finishing a query across renewable-power windows.

A zero-carbon data center only has capacity while the sun shines (or the
wind blows), in forecastable windows.  A query longer than one window must
be suspended before each outage and resumed in the next — the paper's
multiple-suspensions scenario (§VI).  This example runs the query on a
one-worker fleet over the forecast, once per scheduling policy:

* ``fifo`` never suspends, so a window shorter than the query loses its
  progress and the next one starts over (redo);
* ``suspend-aware`` suspends at a pipeline breaker ahead of each outage
  and resumes from the snapshot in the next window.

Past the last forecast window the worker stays available, so every run
finishes; "after the forecast" marks a finish the windows did not cover.

Run:  python examples/zero_carbon.py
"""

import tempfile

from repro.cloud.availability import AvailabilityTrace
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.fleet import FleetCluster, QueryArrival, make_policy
from repro.harness.report import format_table
from repro.tpch import build_query, generate_catalog

QUERIES = ("Q9", "Q21")


def run_query(catalog, profile: HardwareProfile, query: str) -> None:
    normal = QueryExecutor(catalog, build_query(query), profile=profile, query_name=query).run()
    duration = normal.stats.duration
    print(f"{query} needs {duration:.1f}s of simulated compute.")

    # Power windows of ~45% of the query, separated by outages.
    trace = AvailabilityTrace.periodic(
        on_seconds=duration * 0.45, off_seconds=duration * 0.5, count=10
    )
    forecast_end = trace.windows[-1].end
    print(
        f"Forecast: {len(trace.windows)} power windows of "
        f"{trace.windows[0].duration:.1f}s each, "
        f"{duration * 0.5:.1f}s outages between them.\n"
    )

    arrival = QueryArrival(query, "green", "analytic", query, 0.0, False, 1.0, 1.0)
    rows = []
    for policy in ("fifo", "suspend-aware"):
        cluster = FleetCluster(
            catalog,
            make_policy(policy),
            workers=1,
            profile=profile,
            snapshot_dir=tempfile.mkdtemp(prefix="riveter-zc-"),
            morsel_size=4096,
        )
        result = cluster.run([arrival], forecast_end, availability=[trace])
        done = result.completions[0]
        rows.append(
            [
                policy,
                "yes" if done.finished_at <= forecast_end else "after the forecast",
                f"{done.finished_at:.0f}s",
                f"{result.workers[0].busy_seconds:.1f}s",
                done.suspensions,
                done.lost_segments,
            ]
        )

    print(
        format_table(
            ["policy", "within forecast", "wall-clock finish", "compute used", "suspensions", "lost windows"],
            rows,
        )
    )
    print()


def main() -> None:
    print("Generating TPC-H data...")
    catalog = generate_catalog(0.01)
    profile = HardwareProfile()
    for query in QUERIES:
        run_query(catalog, profile, query)
    print(
        "FIFO loses every window shorter than the query.  Suspend-aware keeps "
        "what each window finished up to its last breaker, so Q21 finishes "
        "inside the forecast; a window shorter than Q9's dominating pipeline "
        "reaches no breaker in time, and Q9 waits for the forecast to end."
    )


if __name__ == "__main__":
    main()
