"""Fleet policy benchmark: suspend-aware scheduling vs run-to-completion.

Simulates the same seeded multi-tenant workload under every scheduling
policy and records, per policy, the interactive latency percentiles, SLO
attainment, suspension/snapshot totals, and dollar cost.  The paper's
Case 1 claim at fleet scale is asserted directly by ``--check``:
suspension-aware scheduling must beat FIFO on interactive p95 latency and
on overall SLO attainment.

Everything rides the virtual clock, so the output is exactly reproducible
at a fixed seed — ``benchmarks/baselines/fleet.scale-0.002.json`` keeps
the checked-in baseline that ``bench_compare.py --check`` diffs against
in CI (gated leaves: ``p95_latency``, ``slo_misses``, plus the shared
snapshot-byte suffixes).

A ``timeline`` lane re-runs the suspend-aware policy with the full
observability stack attached (tracer, timeline recorder, SLO monitor)
and reports the record volume plus the wall-clock overhead against the
uninstrumented run.  The record count (``events_recorded``) is a pure
function of the seed and is gated; the wall numbers are host-dependent
and reported only.  The overhead ratio is the median of interleaved
plain/instrumented repetitions
(:func:`repro.harness.bench.median_overhead_ratio`) — a single pair is
noise-dominated at this scale.

Standalone on purpose (argparse, engine-only imports)::

    PYTHONPATH=src python benchmarks/bench_fleet.py --check
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.fleet import (
    AdmissionController,
    FleetCluster,
    SLOMonitor,
    fleet_prices,
    fleet_report,
    generate_workload,
    make_policy,
    make_tenants,
    record_fleet_timeline,
)
from repro.harness.bench import bench_payload, median_overhead_ratio, write_bench
from repro.obs.handle import Obs
from repro.obs.timeline import TimelineRecorder
from repro.obs.trace import Tracer
from repro.seeding import derive_seed
from repro.tpch import generate_catalog

POLICY_NAMES = ("fifo", "suspend-aware", "fair-share")

#: Fixed fleet shape: small enough for CI, loaded enough that interactive
#: queries queue behind analytics under FIFO.
DEFAULTS = {
    "tenants": 3,
    "workers": 2,
    "duration": 600.0,
    "seed": 42,
    "queue_depth": 8,
    "mean_on": 180.0,
    "mean_off": 30.0,
}


def run_fleet_bench(scale: float, params: dict | None = None) -> dict:
    """Run every policy over one workload; returns the ``metrics`` tree."""
    params = {**DEFAULTS, **(params or {})}
    seed = int(params["seed"])
    catalog = generate_catalog(scale, seed=derive_seed(seed, "dbgen"))
    tenants = make_tenants(int(params["tenants"]), seed)
    arrivals = generate_workload(tenants, float(params["duration"]), seed)
    prices = fleet_prices(seed)
    metrics: dict = {"params": dict(params), "arrivals": len(arrivals), "policies": {}}
    for policy_name in POLICY_NAMES:
        cluster = FleetCluster(
            catalog,
            make_policy(policy_name),
            workers=int(params["workers"]),
            seed=seed,
            admission=AdmissionController(max_queue_depth=int(params["queue_depth"])),
            mean_on_seconds=float(params["mean_on"]),
            mean_off_seconds=float(params["mean_off"]),
        )
        result = cluster.run(arrivals, float(params["duration"]))
        report = fleet_report(result, prices)
        metrics["policies"][policy_name] = {
            "completed": report["totals"]["completed"],
            "rejected": report["totals"]["rejected"],
            "suspensions": report["totals"]["suspensions"],
            "lost_segments": report["totals"]["lost_segments"],
            "snapshot_bytes": report["totals"]["persisted_bytes"],
            "reclamations": report["totals"]["reclamations"],
            "dollars": report["totals"]["dollars"],
            "slo_attainment": report["slo"]["attainment"],
            "slo_misses": report["slo"]["missed"],
            "interactive": {
                "p50_latency": report["interactive_latency"]["p50"],
                "p95_latency": report["interactive_latency"]["p95"],
                "p99_latency": report["interactive_latency"]["p99"],
            },
            "overall": {
                "p50_latency": report["latency"]["p50"],
                "p95_latency": report["latency"]["p95"],
            },
        }
    metrics["timeline"] = timeline_overhead(catalog, arrivals, params)
    return metrics


def timeline_overhead(catalog, arrivals, params: dict) -> dict:
    """Cost of the full observability stack on the suspend-aware run.

    ``events_recorded`` (samples + spans + completions + alerts in the
    artifact) rides the virtual clock and is gated by ``bench_compare``;
    the wall-clock seconds are host noise, reported but never gated.
    The overhead ratio is the median over interleaved repetitions so a
    single scheduler hiccup cannot swing it.
    """
    seed = int(params["seed"])
    duration = float(params["duration"])

    def run_once(instrumented: bool):
        tracer = Tracer() if instrumented else None
        recorder = TimelineRecorder() if instrumented else None
        obs = Obs(tracer=tracer, recorder=recorder)
        cluster = FleetCluster(
            catalog,
            make_policy("suspend-aware"),
            workers=int(params["workers"]),
            seed=seed,
            admission=AdmissionController(max_queue_depth=int(params["queue_depth"])),
            mean_on_seconds=float(params["mean_on"]),
            mean_off_seconds=float(params["mean_off"]),
            obs=obs,
            slo=SLOMonitor(obs=obs) if instrumented else None,
        )
        start = time.perf_counter()
        result = cluster.run(arrivals, duration)
        wall = time.perf_counter() - start
        return result, recorder, tracer, wall

    captured: dict = {}

    def plain() -> float:
        return run_once(False)[3]

    def instrumented() -> float:
        result, recorder, tracer, wall = run_once(True)
        # Every instrumented repetition records the same virtual-clock
        # artifact; keep the last one for the deterministic counts.
        captured.update(result=result, recorder=recorder, tracer=tracer)
        return wall

    overhead = median_overhead_ratio(plain, instrumented, repetitions=3)
    record_fleet_timeline(captured["recorder"], captured["result"])
    counts = captured["recorder"].header(
        dropped_events=captured["tracer"].dropped
    )["counts"]
    return {
        "events_recorded": sum(counts.values()),
        "spans": counts["spans"],
        "samples": counts["samples"],
        "alerts": counts["alerts"],
        "trace_events": len(captured["tracer"]),
        "wall_seconds_plain": overhead["plain_seconds_median"],
        "wall_seconds_instrumented": overhead["instrumented_seconds_median"],
        "wall_overhead_ratio": overhead["ratio"],
        "wall_repetitions": overhead["repetitions"],
    }


def check_case1(metrics: dict) -> list[str]:
    """The paper's Case 1 claim at fleet scale; returns failure messages."""
    fifo = metrics["policies"]["fifo"]
    adaptive = metrics["policies"]["suspend-aware"]
    failures = []
    if not adaptive["interactive"]["p95_latency"] < fifo["interactive"]["p95_latency"]:
        failures.append(
            "suspend-aware interactive p95 "
            f"({adaptive['interactive']['p95_latency']:.3f}s) is not below "
            f"fifo ({fifo['interactive']['p95_latency']:.3f}s)"
        )
    if not adaptive["slo_attainment"] > fifo["slo_attainment"]:
        failures.append(
            f"suspend-aware SLO attainment ({adaptive['slo_attainment']:.3f}) "
            f"is not above fifo ({fifo['slo_attainment']:.3f})"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.002, help="TPC-H scale factor")
    parser.add_argument("--seed", type=int, default=DEFAULTS["seed"], help="master seed")
    parser.add_argument(
        "--duration", type=float, default=DEFAULTS["duration"],
        help="arrival horizon in virtual seconds",
    )
    parser.add_argument("--out", default="BENCH_fleet.json", help="JSON output path")
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless suspend-aware beats fifo on interactive p95 and SLO",
    )
    args = parser.parse_args(argv)

    metrics = run_fleet_bench(
        args.scale, {"seed": args.seed, "duration": args.duration}
    )
    write_bench(args.out, bench_payload("fleet", args.scale, metrics))
    print(f"wrote {args.out}")
    for name in POLICY_NAMES:
        entry = metrics["policies"][name]
        print(
            f"{name}: interactive p95 {entry['interactive']['p95_latency']:.2f}s, "
            f"SLO {entry['slo_attainment']:.1%}, "
            f"{entry['suspensions']} suspension(s), "
            f"{entry['snapshot_bytes']} snapshot bytes, "
            f"${entry['dollars']:.4f}"
        )
    timeline = metrics["timeline"]
    print(
        f"timeline: {timeline['events_recorded']} record(s) "
        f"({timeline['spans']} spans, {timeline['samples']} samples), "
        f"wall overhead x{timeline['wall_overhead_ratio']:.2f} "
        f"({timeline['wall_seconds_plain']:.2f}s -> "
        f"{timeline['wall_seconds_instrumented']:.2f}s)"
    )
    if args.check:
        failures = check_case1(metrics)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("case-1 check passed: suspend-aware beats fifo on p95 and SLO")
    return 0


if __name__ == "__main__":
    sys.exit(main())
