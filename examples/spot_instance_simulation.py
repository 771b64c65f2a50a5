#!/usr/bin/env python3
"""Case 3 (§II-B): query execution on ephemeral spot capacity.

A spot instance may be revoked inside an announced time window.  This
example runs a TPC-H query under that threat with each fixed strategy and
with Riveter's adaptive selection, then compares the busy time (execution
plus suspension work, excluding the away-gap).  Part two swaps revocations
for price spikes: a one-worker fleet runs only inside the windows an
hourly budget can afford, against paying through every spike.

Run:  python examples/spot_instance_simulation.py
"""

import tempfile

from repro.cloud import EphemeralEnvironment, PriceTrace, QueryRunner
from repro.costmodel import AdaptiveStrategySelector, TerminationProfile
from repro.costmodel.optimizer_est import OptimizerSizeEstimator
from repro.fleet import FleetCluster, QueryArrival, make_policy
from repro.fleet.slo import dollars_for_slices
from repro.harness.report import format_table
from repro.tpch import build_query, generate_catalog

QUERY = "Q9"
WINDOW = (0.4, 0.7)  # revocation window as fractions of execution time
PROBABILITY = 0.9


def main() -> None:
    print("Setting up the spot environment and TPC-H data...")
    catalog = generate_catalog(0.01)
    environment = EphemeralEnvironment("spot-us-east", seed=11)
    runner = QueryRunner(
        catalog, environment.profile, snapshot_dir=tempfile.mkdtemp(prefix="riveter-spot-")
    )
    plan = build_query(QUERY)
    normal = runner.measure_normal(plan, QUERY)
    normal_time = normal.stats.duration
    print(f"{QUERY} runs in {normal_time:.1f}s of simulated time when undisturbed.")

    termination = TerminationProfile.from_fractions(
        normal_time, WINDOW[0], WINDOW[1], PROBABILITY
    )
    print(
        f"Revocation threat: window [{termination.t_start:.0f}s, {termination.t_end:.0f}s], "
        f"probability {PROBABILITY:.0%}"
    )
    sampled = environment.sample_termination(termination, run_index=0)
    print(f"This run's sampled revocation: "
          f"{'none' if sampled is None else f'{sampled:.1f}s'}")

    rows = []
    for strategy in ("redo", "pipeline", "process"):
        outcome = runner.run_forced(
            plan, QUERY, strategy, normal_time, sampled, termination.t_start
        )
        rows.append(
            [
                strategy,
                f"{outcome.busy_time:.1f}s",
                f"{outcome.overhead:.1f}s",
                "yes" if outcome.suspended else "no",
                "yes" if outcome.terminated else "no",
            ]
        )

    estimator = OptimizerSizeEstimator(catalog)
    selector = AdaptiveStrategySelector(
        profile=environment.profile,
        termination=termination,
        process_size_estimator=lambda fraction: estimator.estimate_bytes(plan, fraction),
        estimated_total_time=normal_time,
    )
    adaptive = runner.run_adaptive(plan, QUERY, selector, normal_time, sampled)
    rows.append(
        [
            f"adaptive→{adaptive.strategy}",
            f"{adaptive.busy_time:.1f}s",
            f"{adaptive.overhead:.1f}s",
            "yes" if adaptive.suspended else "no",
            "yes" if adaptive.terminated else "no",
        ]
    )

    print()
    print(format_table(["strategy", "busy time", "overhead", "suspended", "killed"], rows))
    if adaptive.decision is not None:
        print("\nAlgorithm 1 cost estimates at the decision point:")
        for name, cost in adaptive.decision.costs.items():
            print(f"  {name:9s} expected cost {cost.cost:10.2f}s")

    price = environment.prices.price_at(termination.t_start)
    print(f"\nSpot price at the window start: ${price:.2f}/h "
          f"({'spiked' if price > environment.prices.base_price else 'normal'})")

    # Part two: price spikes instead of revocations (§I's 200–400× surges).
    # A budget turns the price trace into the windows a worker may run in;
    # the pay-through baseline is the same one-worker fleet with no trace.
    print("\nPrice-aware execution through 300× spot-price spikes:")
    spiky = PriceTrace(
        base_price=1.0, spike_multiplier=300.0, spike_probability=0.4,
        segment_seconds=normal_time / 5.0, seed=9,
    )
    horizon = normal_time * 10.0
    arrival = QueryArrival(QUERY, "spot", "analytic", QUERY, 0.0, False, 1.0, 1.0)
    runs = {}
    for label, availability, duration in (
        ("budget-aware", [spiky.affordable(10.0, horizon)], horizon),
        ("pay-through", None, 0.0),
    ):
        cluster = FleetCluster(
            catalog, make_policy("suspend-aware"), workers=1,
            profile=environment.profile,
            snapshot_dir=tempfile.mkdtemp(prefix="riveter-prices-"),
            morsel_size=4096,
        )
        result = cluster.run([arrival], duration, availability=availability)
        dollars = dollars_for_slices(result.workers[0].run_slices, spiky)
        runs[label] = (result.completions[0], dollars)
    baseline, baseline_dollars = runs["pay-through"]
    budgeted, budgeted_dollars = runs["budget-aware"]
    print(
        f"  pay-through baseline: ${baseline_dollars:.4f}, "
        f"finishes at t={baseline.finished_at:.0f}s"
    )
    print(
        f"  budget-aware (suspend in spikes): ${budgeted_dollars:.4f} "
        f"({baseline_dollars / max(budgeted_dollars, 1e-12):.0f}× cheaper), "
        f"finishes at t={budgeted.finished_at:.0f}s "
        f"after {budgeted.suspensions} suspension(s), "
        f"{budgeted.lost_segments} lost window(s)"
    )

if __name__ == "__main__":
    main()
