"""Compare two BENCH JSON documents and gate on regressions.

Usage::

    PYTHONPATH=src python benchmarks/bench_compare.py --check BASE.json HEAD.json

Both inputs must use the shared ``riveter-bench/1`` envelope (see
:mod:`repro.harness.bench`).  The comparison flattens each document's
``metrics`` tree to dotted-path numeric leaves and, with ``--check``,
fails when a *gated* leaf regressed by more than ``--max-regress``
(default 10%).  Gated leaves are the suspend/resume core costs (persist/
reload latency, snapshot/file bytes) plus the optimizer's work metrics
(rows scanned, bytes materialized); higher is worse for all of them.
*Exact* leaves are seed-deterministic counts (fleet completions and
suspensions) where any drift in either direction is a behavioural
change — they fail on the slightest delta, no noise band.  Everything
else is reported but never fails the gate.

The gate is two-sided for costs: a gated cost that is non-zero in the
base and *exactly* 0 in the head also fails.  On the virtual clock a
vanished persist/reload latency or byte count is dropped accounting, not
a speed-up (``slo_misses`` is a failure count, so it may reach 0).

Because every gated quantity rides the simulated clock, two runs of the
same code at the same scale produce identical numbers — any delta is a
real behavioural change, not noise.  Wall-clock measurements
(``wall_seconds``, emitted by ``bench_parallel.py``) are the deliberate
exception: they are machine-dependent, so the suffix allowlist leaves
them reported-only — they show up in the diff but can never fail the
gate, and baselines are generated without them (``--no-wall``).
"""

from __future__ import annotations

import argparse
import sys

from repro.harness.bench import flatten_metrics, read_bench

GATED_SUFFIXES = (
    "persist_latency",
    "reload_latency",
    "snapshot_bytes",
    "intermediate_bytes",
    "file_bytes",
    "encoded_bytes",
    "rows_scanned",
    "bytes_materialized",
    # Fleet serving quality (bench_fleet.py): tail latency and SLO misses
    # are higher-is-worse like every other gated leaf.  Attainment ratios
    # (higher is better) are deliberately not gated.
    "p95_latency",
    "slo_misses",
    # Timeline observability volume (bench_fleet.py): the artifact's
    # record count is seed-deterministic; unbounded growth is an
    # instrumentation leak.  Wall-clock overhead is host noise and stays
    # ungated.
    "events_recorded",
    # Sharded execution (bench_shards.py): the exchange transfer volume
    # is the near-data lever's output; more bytes over the wire is a
    # pushdown regression.  The no-pushdown control arm uses a different
    # suffix and stays reported-only.
    "bytes_shuffled",
)

#: Leaves that are pure functions of the seed (everything rides the
#: virtual clock): no noise band applies, so *any* change — up or down —
#: fails the gate.  Used by the fleet lanes (bench_fleet.py,
#: bench_fleet_scale.py) for scheduling-outcome counts.
EXACT_SUFFIXES = (
    "completions",
    "suspensions",
)

#: Gated leaves that may legitimately improve to exactly zero.
MAY_VANISH_SUFFIXES = ("slo_misses",)


def _suffix(path: str) -> str:
    return path.rsplit(".", 1)[-1]


def is_gated(path: str) -> bool:
    """Whether a metric leaf participates in the regression gate."""
    return _suffix(path) in GATED_SUFFIXES


def is_exact(path: str) -> bool:
    """Whether a metric leaf must match the baseline exactly."""
    return _suffix(path) in EXACT_SUFFIXES


def compare(base: dict, head: dict, max_regress: float) -> tuple[list[str], list[str]]:
    """Return ``(report_lines, failures)`` for two BENCH payloads."""
    if base.get("name") != head.get("name"):
        raise ValueError(
            f"comparing different benches: {base.get('name')!r} vs {head.get('name')!r}"
        )
    if float(base.get("scale", 0)) != float(head.get("scale", 0)):
        raise ValueError(
            f"comparing different scales: {base.get('scale')} vs {head.get('scale')}"
        )
    if base.get("shards") != head.get("shards"):
        # Sharded lanes stamp their shard-count axis into the envelope;
        # diffing runs with different axes would silently compare
        # different transfer volumes, so fail loudly instead.
        raise ValueError(
            f"comparing different shard axes: {base.get('shards')} vs {head.get('shards')}"
        )
    base_flat = flatten_metrics(base)
    head_flat = flatten_metrics(head)
    report: list[str] = []
    failures: list[str] = []
    for path in sorted(set(base_flat) | set(head_flat)):
        old = base_flat.get(path)
        new = head_flat.get(path)
        if old is None:
            report.append(f"+ {path} = {new} (new metric)")
            continue
        if new is None:
            line = f"- {path} (metric disappeared; base {old})"
            report.append(line)
            if is_gated(path) or is_exact(path):
                failures.append(line)
            continue
        if new == old:
            continue
        delta = (new - old) / abs(old) if old else float("inf")
        line = f"  {path}: {old} -> {new} ({delta:+.1%})"
        report.append(line)
        if is_exact(path):
            failures.append(
                f"{path} drifted (deterministic count): {old} -> {new}"
            )
        elif (
            is_gated(path) and old > 0 and new == 0
            and _suffix(path) not in MAY_VANISH_SUFFIXES
        ):
            failures.append(
                f"{path} vanished (dropped accounting, not a speed-up): {old} -> {new}"
            )
        elif is_gated(path) and old > 0 and delta > max_regress:
            failures.append(
                f"{path} regressed {delta:+.1%} (> {max_regress:.0%}): {old} -> {new}"
            )
    return report, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="baseline BENCH JSON (riveter-bench/1)")
    parser.add_argument("head", help="candidate BENCH JSON (riveter-bench/1)")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when a gated metric regresses past --max-regress",
    )
    parser.add_argument(
        "--max-regress", type=float, default=0.10, metavar="FRACTION",
        help="allowed relative regression for gated metrics (default: 0.10)",
    )
    args = parser.parse_args(argv)

    base = read_bench(args.base)
    head = read_bench(args.head)
    report, failures = compare(base, head, args.max_regress)

    print(
        f"bench {base['name']} @ scale {base['scale']}: "
        f"base rev {base.get('git_rev', '?')} vs head rev {head.get('git_rev', '?')}"
    )
    if not report:
        print("no metric differences")
    for line in report:
        print(line)
    if args.check:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
