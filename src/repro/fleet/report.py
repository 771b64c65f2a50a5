"""Fleet run reports: canonical JSON, human text, trace export.

The JSON report is the fleet's determinism contract: it contains only
virtual-clock values and seed-derived data (no wall time, no paths, no
environment), is serialized with sorted keys and fixed separators, and is
asserted byte-identical across same-seed runs by the test suite and the
CI smoke job.
"""

from __future__ import annotations

import os

from repro.cloud.environment import PriceTrace
from repro.fleet.cluster import FleetResult
from repro.fleet.slo import (
    class_breakdown,
    dollars_for_slices,
    latency_stats,
    slo_attainment,
    tenant_breakdown,
    worker_utilization,
)
from repro.harness.report import format_table
from repro.obs.export import canonical_json
from repro.seeding import derive_seed

__all__ = [
    "REPORT_FORMAT",
    "fleet_prices",
    "fleet_report",
    "report_to_json",
    "write_report",
    "format_fleet_report",
    "record_fleet_timeline",
]

REPORT_FORMAT = "riveter-fleet/1"


def fleet_prices(seed: int) -> PriceTrace:
    """The fleet's price trace, derived from the master seed."""
    return PriceTrace(seed=derive_seed(seed, "prices"))


def fleet_report(result: FleetResult, prices: PriceTrace | None = None) -> dict:
    """Structured summary of one fleet run (JSON-serializable)."""
    if prices is None:
        prices = fleet_prices(result.seed)
    completions = result.completions
    latencies = [c.latency for c in completions]
    interactive = [c.latency for c in completions if c.interactive]
    attained = sum(1 for c in completions if c.slo_attained)
    total = len(completions) + len(result.rejections)
    slices = [s for worker in result.workers for s in worker.run_slices]
    utilization = worker_utilization(result)
    return {
        "format": REPORT_FORMAT,
        "policy": result.policy,
        "seed": result.seed,
        "duration": result.duration,
        "totals": {
            "arrivals": total,
            "completed": len(completions),
            "rejected": len(result.rejections),
            "suspensions": sum(c.suspensions for c in completions),
            "lost_segments": sum(c.lost_segments for c in completions),
            "persisted_bytes": sum(c.persisted_bytes for c in completions),
            "reclamations": sum(w.reclamations for w in result.workers),
            "busy_seconds": sum(w.busy_seconds for w in result.workers),
            "dollars": dollars_for_slices(slices, prices),
        },
        "slo": {
            "attainment": slo_attainment(attained, total),
            "attained": attained,
            "missed": total - attained,
        },
        "latency": latency_stats(latencies),
        "interactive_latency": latency_stats(interactive),
        "classes": class_breakdown(result),
        "tenants": tenant_breakdown(result),
        "workers": [
            dict(w.to_json(), utilization=utilization[w.worker])
            for w in result.workers
        ],
        "completions": [c.to_json() for c in completions],
        "rejections": [r.to_json() for r in result.rejections],
    }


def report_to_json(report: dict) -> str:
    """Canonical (byte-stable) serialization of a fleet report."""
    return canonical_json(report) + "\n"


def write_report(report: dict, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(report_to_json(report))


def format_fleet_report(report: dict) -> str:
    """Human-readable roll-up of a fleet report."""
    totals = report["totals"]
    slo = report["slo"]
    latency = report["latency"]
    interactive = report["interactive_latency"]
    lines = [
        f"== fleet: policy={report['policy']} seed={report['seed']} "
        f"duration={report['duration']:.0f}s ==",
        f"arrivals         : {totals['arrivals']} "
        f"({totals['completed']} completed, {totals['rejected']} rejected)",
        f"SLO attainment   : {slo['attainment']:.1%} ({slo['missed']} missed)",
        f"latency          : p50={latency['p50']:.2f}s p95={latency['p95']:.2f}s "
        f"p99={latency['p99']:.2f}s",
        f"interactive      : p50={interactive['p50']:.2f}s "
        f"p95={interactive['p95']:.2f}s p99={interactive['p99']:.2f}s",
        f"suspensions      : {totals['suspensions']} "
        f"({totals['persisted_bytes']} snapshot bytes)",
        f"reclamations     : {totals['reclamations']} "
        f"({totals['lost_segments']} lost segments)",
        f"cost             : ${totals['dollars']:.4f} "
        f"({totals['busy_seconds']:.1f}s busy)",
    ]
    rows = []
    for klass in sorted(report["classes"]):
        entry = report["classes"][klass]
        stats = entry["latency"]
        rows.append(
            (
                klass,
                stats["count"],
                entry["rejected"],
                f"{stats['p50']:.2f}",
                f"{stats['p95']:.2f}",
                f"{entry['slo_attainment']:.1%}",
                entry["suspensions"],
            )
        )
    lines.append("")
    lines.append(
        format_table(
            ("class", "done", "shed", "p50", "p95", "SLO", "susp"), rows
        )
    )
    worker_rows = []
    for w in report["workers"]:
        util = w.get("utilization", {})
        worker_rows.append(
            (
                f"W{w['worker']}",
                len(w["run_slices"]),
                f"{w['busy_seconds']:.1f}",
                w["reclamations"],
                f"{util.get('busy_fraction', 0.0):.1%}",
                f"{util.get('suspended_fraction', 0.0):.1%}",
                f"{util.get('idle_fraction', 0.0):.1%}",
            )
        )
    lines.append("")
    lines.append(
        format_table(
            ("worker", "slices", "busy", "reclaims", "busy%", "susp%", "idle%"),
            worker_rows,
        )
    )
    return "\n".join(lines)


def record_fleet_timeline(recorder, result: FleetResult, prices: PriceTrace | None = None) -> None:
    """Fold run-level context into the timeline *recorder*.

    Stamps the artifact header with the run's identity, and samples the
    spot price once per recorder window across the horizon — the price
    trace is piecewise-constant on its own segment grid, so window-start
    sampling reproduces it exactly.
    """
    if prices is None:
        prices = fleet_prices(result.seed)
    recorder.set_meta(
        policy=result.policy,
        seed=result.seed,
        duration=result.duration,
        workers=len(result.workers),
    )
    ts = 0.0
    while ts < result.duration:
        recorder.sample("spot_price", ts, prices.price_at(ts))
        ts += recorder.window_seconds
