#!/usr/bin/env python3
"""Case 2 (§II-B): migrating a single query between machines.

Instead of live-migrating a whole database, Riveter suspends one query on
the source node, ships only the (small) pipeline-level snapshot plus the
ingested data location, and resumes on a destination node — even one with
a different worker count, which pipeline-level resumption permits.

The two "nodes" here are separate catalog instances rebuilt from the same
persisted ``.rcol`` files, executing with different hardware profiles.

Run:  python examples/migration.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.storage import Catalog
from repro.suspend import PipelineLevelStrategy, QuerySession
from repro.tpch import build_query, generate_catalog

QUERY = "Q10"


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="riveter-migration-"))
    data_dir = workdir / "shared-storage"

    print("Source node: ingesting TPC-H data and persisting to shared storage...")
    source_catalog = generate_catalog(0.01)
    sizes = source_catalog.persist_directory(data_dir)
    print(f"  wrote {len(sizes)} .rcol tables, {sum(sizes.values()) / 1e6:.1f} MB")

    source_profile = HardwareProfile(name="source-node", num_threads=4)
    plan = build_query(QUERY)
    normal = QueryExecutor(
        source_catalog, plan, profile=source_profile, query_name=QUERY
    ).run()
    print(f"  {QUERY} takes {normal.stats.duration:.1f}s simulated on the source node")

    print("\nSource node: executing and suspending for migration at ~40%...")
    strategy = PipelineLevelStrategy(source_profile)
    source = QuerySession(
        source_catalog, plan, QUERY, workdir, source_profile, strategy=strategy
    )
    piece = source.run_slice(
        strategy.make_request_controller(normal.stats.duration * 0.4)
    )
    if piece.kind != "suspend":
        raise SystemExit("query finished before migration point")
    outcome = source.persist(piece)
    source.commit(piece)
    print(
        f"  suspended at t={outcome.suspended_at:.1f}s; migrating a "
        f"{outcome.intermediate_bytes}-byte snapshot (vs {sum(sizes.values())} bytes "
        "for the full database)"
    )

    print("\nDestination node: rebuilding the environment from shared storage...")
    destination_catalog = Catalog()
    destination_catalog.ingest_directory(data_dir)
    destination_profile = HardwareProfile(name="destination-node", num_threads=8)
    destination = QuerySession(
        destination_catalog, plan, QUERY, workdir, destination_profile,
        strategy=PipelineLevelStrategy(destination_profile),
    )
    destination.adopt(outcome.snapshot_path)
    destination.reload()
    print(
        f"  pipeline-level resumption accepts the different configuration "
        f"({source_profile.num_threads} → {destination_profile.num_threads} workers)"
    )

    final = destination.run_slice().result
    print(f"  destination finished the remaining work in {final.stats.duration:.1f}s")

    matches = all(
        np.allclose(normal.chunk.column(c), final.chunk.column(c))
        if normal.chunk.column(c).dtype.kind == "f"
        else (normal.chunk.column(c) == final.chunk.column(c)).all()
        for c in normal.chunk.schema.names
    )
    print(f"\nMigrated result identical to the source-only run: {matches}")


if __name__ == "__main__":
    main()
