"""Backend/kernel benchmark: wall-clock and virtual time per lane.

Runs every TPC-H query under four execution lanes —

* ``simulated_scalar`` — inline backend, row-at-a-time reference kernels;
* ``simulated_numpy``  — inline backend, vectorized kernels (the default);
* ``parallel_numpy``   — multiprocessing worker backend, vectorized kernels;
* ``parallel_numpy_profiled`` — the parallel lane with the opt-in
  wall-clock profiler attached, proving profiling never perturbs results
  or virtual time

— and records for each lane:

* ``wall_seconds``    — real elapsed time (``time.perf_counter``).  This
  is the one machine-dependent number the bench suite emits; it is
  *reported, never gated* (``bench_compare.py`` only gates leaves whose
  suffix is in its ``GATED_SUFFIXES`` allowlist).  ``--no-wall`` omits it
  entirely, which is how the checked-in baseline is generated.
* ``virtual_seconds`` — simulated-clock time, identical across lanes by
  construction (the coordinator owns the clock and replays per-morsel
  costs in morsel order regardless of backend);
* ``rows_scanned``    — deterministic work measure, gated against the
  baseline.

``--check`` additionally asserts the correctness contract inline: all
lanes (including the profiled one) must return bit-identical results
with identical virtual time, every profiled lane's envelope must pass
``validate_profile``, and at scale >= 0.01 the numpy kernels must beat
the scalar reference on wall time for the join/aggregate-heavy queries
Q3, Q9, Q18.

With wall timing on, the bench also reports ``profile_overhead_ratio``
— profiled vs plain parallel wall time on Q3/Q9, the median of three
interleaved repetitions (:func:`repro.harness.bench.median_overhead_ratio`).
Like every wall number it is disclosed, never gated.

Standalone on purpose (argparse, engine-only imports)::

    PYTHONPATH=src python benchmarks/bench_parallel.py --scale 0.002 --check
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.engine.executor import QueryExecutor
from repro.harness.bench import bench_payload, median_overhead_ratio, write_bench
from repro.obs.profile import QueryProfiler, validate_profile
from repro.optimizer import optimize_plan
from repro.tpch import QUERY_NAMES, build_query, generate_catalog

#: (backend, kernels) lanes, keyed as ``{backend}_{kernels}`` in metrics.
LANES = (
    ("simulated", "scalar"),
    ("simulated", "numpy"),
    ("parallel", "numpy"),
)

#: The parallel lane re-run with the wall-clock profiler attached.
PROFILED_LANE = "parallel_numpy_profiled"

#: Queries timed for the profiling-overhead disclosure (join/aggregate
#: heavy, so both kernels and the worker queues see real traffic).
OVERHEAD_QUERIES = ("Q3", "Q9")

#: Queries whose numpy-vs-scalar wall-time win is asserted under --check
#: at scale >= 0.01 (join/aggregate heavy, so kernel cost dominates).
SPEEDUP_QUERIES = ("Q3", "Q9", "Q18")
SPEEDUP_MIN_SCALE = 0.01


def _rows_scanned(stats) -> int:
    return sum(
        op.rows
        for pipeline in stats.pipelines
        for op in pipeline.operators
        if op.kind == "scan"
    )


def _run_lane(catalog, plan, query, backend, kernels, morsel_size, profiler=None):
    started = time.perf_counter()
    result = QueryExecutor(
        catalog,
        plan,
        query_name=query,
        lazy_filters=True,
        select_operators=True,
        backend=backend,
        kernels=kernels,
        morsel_size=morsel_size,
        profiler=profiler,
    ).run()
    wall = time.perf_counter() - started
    return result, wall


def _identical(left, right) -> bool:
    if left.schema.names != right.schema.names:
        return False
    for a, b in zip(left.arrays(), right.arrays()):
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return False
    return True


def run_parallel_bench(
    scale: float,
    queries: list[str] | None = None,
    check: bool = False,
    wall: bool = True,
    morsel_size: int | None = None,
) -> dict:
    """Run the benchmark; returns the ``metrics`` tree."""
    queries = queries or list(QUERY_NAMES)
    catalog = generate_catalog(scale)
    metrics: dict = {"queries": {}, "totals": {}}

    plans: dict = {}
    for query in queries:
        opt = optimize_plan(catalog, build_query(query), query_name=query)
        plans[query] = opt.plan
        cells: dict = {}
        results: dict = {}
        for backend, kernels in LANES:
            lane = f"{backend}_{kernels}"
            result, lane_wall = _run_lane(
                catalog, opt.plan, query, backend, kernels, morsel_size
            )
            results[lane] = result
            cells[lane] = {
                "virtual_seconds": result.stats.duration,
                "rows_scanned": _rows_scanned(result.stats),
            }
            if wall:
                cells[lane]["wall_seconds"] = round(lane_wall, 4)

        profiler = QueryProfiler()
        result, lane_wall = _run_lane(
            catalog, opt.plan, query, "parallel", "numpy", morsel_size,
            profiler=profiler,
        )
        results[PROFILED_LANE] = result
        cells[PROFILED_LANE] = {
            "virtual_seconds": result.stats.duration,
            "rows_scanned": _rows_scanned(result.stats),
        }
        if wall:
            cells[PROFILED_LANE]["wall_seconds"] = round(lane_wall, 4)
        if check:
            validate_profile(profiler.to_json())

        if check:
            reference = results["simulated_numpy"]
            for lane, result in results.items():
                if not _identical(reference.chunk, result.chunk):
                    raise SystemExit(f"{query}: lane {lane} result differs")
                if result.stats.duration != reference.stats.duration:
                    raise SystemExit(
                        f"{query}: lane {lane} virtual time "
                        f"{result.stats.duration} != {reference.stats.duration}"
                    )
        metrics["queries"][query] = cells

    for lane in [f"{backend}_{kernels}" for backend, kernels in LANES] + [PROFILED_LANE]:
        cells = [metrics["queries"][q][lane] for q in queries]
        totals = {
            "virtual_seconds": round(sum(c["virtual_seconds"] for c in cells), 6),
            "rows_scanned": sum(c["rows_scanned"] for c in cells),
        }
        if wall:
            totals["wall_seconds"] = round(sum(c["wall_seconds"] for c in cells), 4)
        metrics["totals"][lane] = totals

    if check and wall and scale >= SPEEDUP_MIN_SCALE:
        for query in SPEEDUP_QUERIES:
            if query not in metrics["queries"]:
                continue
            cells = metrics["queries"][query]
            scalar = cells["simulated_scalar"]["wall_seconds"]
            numpy_ = cells["simulated_numpy"]["wall_seconds"]
            if numpy_ >= scalar:
                raise SystemExit(
                    f"{query}: numpy kernels did not beat scalar on wall time "
                    f"({numpy_:.4f}s vs {scalar:.4f}s) at scale {scale}"
                )

    if wall:
        overhead_queries = [q for q in OVERHEAD_QUERIES if q in plans]
        if overhead_queries:

            def plain() -> float:
                started = time.perf_counter()
                for query in overhead_queries:
                    _run_lane(
                        catalog, plans[query], query, "parallel", "numpy", morsel_size
                    )
                return time.perf_counter() - started

            def profiled() -> float:
                started = time.perf_counter()
                for query in overhead_queries:
                    _run_lane(
                        catalog, plans[query], query, "parallel", "numpy",
                        morsel_size, profiler=QueryProfiler(),
                    )
                return time.perf_counter() - started

            overhead = median_overhead_ratio(plain, profiled, repetitions=3)
            metrics["totals"]["profile_overhead"] = {
                "queries": list(overhead_queries),
                "repetitions": overhead["repetitions"],
                "plain_seconds_median": round(overhead["plain_seconds_median"], 4),
                "profiled_seconds_median": round(
                    overhead["instrumented_seconds_median"], 4
                ),
                "profile_overhead_ratio": round(overhead["ratio"], 4),
            }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.002, help="TPC-H scale factor")
    parser.add_argument(
        "--queries", nargs="+", default=list(QUERY_NAMES), help="queries to benchmark"
    )
    parser.add_argument("--out", default="BENCH_parallel.json", help="JSON output path")
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless all lanes agree bit-for-bit with identical virtual "
        "time (and, at scale >= 0.01, numpy beats scalar on Q3/Q9/Q18 wall time)",
    )
    parser.add_argument(
        "--no-wall", action="store_true",
        help="omit wall_seconds leaves (used to generate the deterministic baseline)",
    )
    parser.add_argument(
        "--morsel-size", type=int, default=None, metavar="ROWS",
        help="rows per morsel (default: 16384)",
    )
    args = parser.parse_args(argv)

    metrics = run_parallel_bench(
        args.scale,
        args.queries,
        check=args.check,
        wall=not args.no_wall,
        morsel_size=args.morsel_size,
    )
    write_bench(args.out, bench_payload("parallel", args.scale, metrics))
    print(f"wrote {args.out}")
    for query in args.queries:
        cells = metrics["queries"][query]
        line = f"{query}: virtual {cells['simulated_numpy']['virtual_seconds']:.2f}s"
        if not args.no_wall:
            walls = " ".join(
                f"{lane}={cells[lane]['wall_seconds']:.3f}s" for lane in cells
            )
            line += f" | wall {walls}"
        print(line)
    if not args.no_wall:
        totals = metrics["totals"]
        print(
            "total wall: "
            + " ".join(
                f"{lane}={cell['wall_seconds']:.2f}s"
                for lane, cell in totals.items()
                if "wall_seconds" in cell
            )
        )
        overhead = totals.get("profile_overhead")
        if overhead:
            print(
                f"profiling overhead on {'+'.join(overhead['queries'])}: "
                f"x{overhead['profile_overhead_ratio']:.2f} "
                f"({overhead['plain_seconds_median']:.2f}s -> "
                f"{overhead['profiled_seconds_median']:.2f}s, "
                f"median of {overhead['repetitions']}; reported, never gated)"
            )
    if args.check:
        print("correctness check passed: all lanes bit-identical, virtual time equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
