#!/usr/bin/env python3
"""Quickstart: run a TPC-H query, suspend it mid-flight, resume it.

Demonstrates the core Riveter loop on the pipeline-level strategy:

1. generate a TPC-H catalog and run Q3 normally;
2. re-run it with a suspension requested at ~50% of execution time —
   the engine suspends at the next pipeline breaker and persists the
   live global states;
3. resume from the snapshot in a fresh executor and verify the result
   matches the uninterrupted run byte for byte.

Steps 2 and 3 go through one :class:`repro.suspend.QuerySession` — the
same slice driver behind the runner, the fleet (with one worker, the
Case 1 scheduler) and the CLI: run a slice, persist, commit, reload, run
the next slice.

Run:  python examples/quickstart.py
"""

import tempfile

import numpy as np

from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.suspend import PipelineLevelStrategy, QuerySession
from repro.tpch import build_query, generate_catalog


def main() -> None:
    print("Generating TPC-H data (local scale factor 0.01 ≈ paper SF-10)...")
    catalog = generate_catalog(0.01)
    profile = HardwareProfile()
    plan = build_query("Q3")

    print("Running Q3 normally...")
    normal = QueryExecutor(catalog, plan, profile=profile, query_name="Q3").run()
    print(f"  rows={normal.chunk.num_rows}  simulated time={normal.stats.duration:.1f}s  "
          f"pipelines={normal.stats.completed_pipeline_count}")

    print("\nRe-running with a suspension request at 50% of execution time...")
    strategy = PipelineLevelStrategy(profile)
    controller = strategy.make_request_controller(normal.stats.duration * 0.5)
    snapshot_dir = tempfile.mkdtemp(prefix="riveter-quickstart-")
    session = QuerySession(catalog, plan, "Q3", snapshot_dir, profile, strategy=strategy)
    piece = session.run_slice(controller)
    if piece.kind != "suspend":
        raise SystemExit("query finished before the suspension point — unexpected")
    outcome = session.persist(piece)
    # Nothing races this suspension, so the snapshot is committed: the
    # next slice resumes from it.  (A driver whose persist lost a race
    # with a kill skips the commit and the snapshot is never used.)
    session.commit(piece)
    print(f"  suspended at t={outcome.suspended_at:.1f}s "
          f"(lag after request: {controller.lag:.2f}s)")
    print(f"  persisted {outcome.intermediate_bytes} bytes of live global state "
          f"to {outcome.snapshot_path}")
    print(f"  persist latency on the simulated timeline: {outcome.persist_latency:.2f}s")

    print("\nResuming from the snapshot in a fresh executor...")
    reload_latency = session.reload()
    final = session.run_slice().result
    print(f"  reload latency on the simulated timeline: {reload_latency:.2f}s")
    print(f"  resumed execution finished in {final.stats.duration:.1f}s of simulated time")

    matches = all(
        np.allclose(normal.chunk.column(c), final.chunk.column(c))
        if normal.chunk.column(c).dtype.kind == "f"
        else (normal.chunk.column(c) == final.chunk.column(c)).all()
        for c in normal.chunk.schema.names
    )
    print(f"\nResult identical to the uninterrupted run: {matches}")
    print("\nTop rows:")
    for i in range(min(3, final.chunk.num_rows)):
        print("  ", {k: v for k, v in zip(final.chunk.schema.names,
                                          (col[i] for col in final.chunk.columns))})


if __name__ == "__main__":
    main()
