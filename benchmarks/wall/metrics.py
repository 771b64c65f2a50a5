"""Metric catalogue of the wall benchmark: names, units, directions, bounds.

``kind`` says which clock a number rides: ``h`` is host wall time (noisy,
compared through bounds and spreads), ``v`` is the simulated clock or an
exact count (a pure function of the seed: two runs of one commit at one
seed must agree exactly, and a change meant only to speed the program up
must leave it bit-identical).  The two are never mixed in one metric.

``END_TO_END`` is what ``BENCHMARK.json`` gates: every workload reports each
of them, none is ever 0.  ``FAMILY`` metrics exist only for the workloads
that exercise them (a TPC-H power run persists nothing, so it has no
``persist_ms``); they are printed, stored in the result document and judged
by ``compare.py`` with the same rules.  ``PER_LAYER`` comes from the traced
run and has no bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Metric", "END_TO_END", "FAMILY", "PER_LAYER", "QUERY_NAMES", "by_name"]

QUERY_NAMES = [f"Q{i}" for i in range(1, 23)]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the parent's median by which the metric may worsen
    bound: float | None
    kind: str  # "h" host wall | "v" virtual clock / exact count
    definition: str


END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25, "h",
           "imports + median of the repeated set-up (dbgen, plans, reference runs, "
           "fleet workload generation and macro calibration)"),
    Metric("round_wall_s", "s", "lower", 0.10, "h",
           "median over measured rounds of the sum of the round's op walls "
           "(22 queries | 7 suspend->resume cycles | 1 fleet simulation)"),
    Metric("op_geomean_ms", "ms", "lower", 0.10, "h",
           "geometric mean over the round's distinct ops of each op's median wall"),
    Metric("op_p95_ms", "ms", "lower", 0.15, "h",
           "median over measured rounds of the round's nearest-rank p95 op wall "
           "(the second-slowest of 22 queries | the slowest cycle | the simulation)"),
    # Exact at one seed (compare.py insists on equality); the bound only has
    # to cover how far ten different seeds spread the fleet workloads.
    Metric("virtual_s", "s", "lower", 0.10, "v",
           "simulated-clock seconds of one round (sum of stats.duration | busy time "
           "of the cycles | fleet busy_seconds); identical in every round"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, "h", "ru_maxrss of the benchmark process at exit"),
]

FAMILY = [
    Metric("persist_ms", "ms", "lower", 0.10, "h",
           "suspend_*: median over rounds of sum(strategy.persist + store.register) "
           "- the time that must fit before the kill"),
    Metric("reload_ms", "ms", "lower", 0.10, "h",
           "suspend_*: median over rounds of sum(store.materialize + strategy.prepare_resume)"),
    Metric("snapshot_file_bytes", "bytes", "lower", 0.0, "v",
           "suspend_*: bytes on disk of all snapshots and deltas of a round; "
           "fleet_*: persisted_bytes of the report"),
    Metric("virtual_overhead_s", "s", "lower", 0.0, "v",
           "suspend_*: sum(busy - normal) on the simulated clock, the paper's overhead"),
    Metric("sim_arrivals_per_s", "1/s", "higher", 0.10, "h",
           "fleet_*: arrivals / median wall of construct + run + fleet_report"),
    Metric("slo_attainment", "fraction", "higher", 0.0, "v",
           "fleet_*: overall SLO attainment of the fleet report"),
    Metric("interactive_p95_virtual_s", "s", "lower", 0.0, "v",
           "fleet_*: interactive-class p95 latency on the virtual clock"),
]


def _layer(name: str, unit: str, better: str, definition: str) -> Metric:
    kind = "v" if unit in ("count", "bytes") else "h"
    return Metric(name, unit, better, None, kind, definition)


PER_LAYER = [
    _layer("tpch.dbgen_s", "s", "lower", "generate_catalog at the workload's scale"),
    _layer("tpch.dbgen_rows_per_s", "1/s", "higher", "rows of all tables / dbgen seconds"),
    _layer("tpch.build_query_ms", "ms", "lower", "sum of build_query over the 22 plans"),
    _layer("storage.rcol_write_mb_per_s", "MB/s", "higher", "Catalog.persist_directory"),
    _layer("storage.rcol_read_mb_per_s", "MB/s", "higher", "Catalog.ingest_directory"),
    _layer("storage.rcol_read_columns_ms", "ms", "lower", "rcol.read_columns, 4 of lineitem's 16"),
    _layer("storage.codec_encode_mb_per_s", "MB/s", "higher",
           "adaptive codec over the Q21/Q9 live states, raw MB per encode second"),
    _layer("storage.codec_decode_mb_per_s", "MB/s", "higher", "same states, decode"),
    _layer("storage.codec_ratio", "ratio", "higher", "raw bytes / adaptive bytes of those states"),
    _layer("storage.serialize_mb_per_s", "MB/s", "higher",
           "write_named_arrays + read_named_arrays of lineitem columns, no codec"),
    _layer("sql.plan_ms", "ms", "lower", "plan_sql over the 22 SQL_TEXTS"),
    _layer("optimizer.optimize_ms", "ms", "lower", "sum of optimize_plan over the 22 plans"),
    _layer("engine.pipeline_build_ms", "ms", "lower", "sum of QueryExecutor construction, 22 plans"),
    *[
        _layer(f"engine.query_ms.{q}", "ms", "lower", f"median wall of run() alone, {q}")
        for q in QUERY_NAMES
    ],
    _layer("engine.rows_scanned", "count", "lower", "scan-operator rows of one TPC-H round"),
    _layer("engine.morsels", "count", "lower", "morsels processed in one TPC-H round"),
    _layer("engine.parallel_ms", "ms", "lower", "Q1+Q9+Q18 with backend='parallel', nproc workers"),
    _layer("engine.parallel_over_inline", "ratio", "lower", "that wall / the inline backend's"),
    _layer("engine.scalar_over_numpy", "ratio", "higher", "Q6 at SF-0.002, scalar / NumPy kernels"),
    _layer("suspend.run_to_suspend_ms", "ms", "lower", "sum of run() segments that end suspended"),
    _layer("suspend.persist_ms.pipeline", "ms", "lower", "sum of strategy.persist, pipeline cells"),
    _layer("suspend.persist_ms.process", "ms", "lower", "sum of strategy.persist, process cells"),
    _layer("suspend.register_ms", "ms", "lower", "sum of SnapshotStore.register"),
    _layer("suspend.materialize_ms", "ms", "lower", "sum of SnapshotStore.materialize"),
    _layer("suspend.prepare_resume_ms.pipeline", "ms", "lower", "sum of prepare_resume, pipeline"),
    _layer("suspend.prepare_resume_ms.process", "ms", "lower", "sum of prepare_resume, process"),
    _layer("suspend.resume_finish_ms", "ms", "lower", "sum of run() segments that finish"),
    _layer("suspend.file_bytes.pipeline", "bytes", "lower", "store bytes of the pipeline cells"),
    _layer("suspend.file_bytes.process", "bytes", "lower", "store bytes of the process cells"),
    _layer("suspend.delta_reuse_ratio", "ratio", "higher",
           "1 - delta file bytes / bytes the same snapshots hold in full"),
    _layer("suspend.store_open_ms", "ms", "lower", "reopen every store of the round"),
    _layer("costmodel.decide_ms", "ms", "lower", "sum of AdaptiveStrategySelector.decide"),
    _layer("costmodel.decisions", "count", "lower", "calls of decide over the adaptive cells"),
    _layer("cloud.run_forced_ms", "ms", "lower", "QueryRunner.run_forced over the cells"),
    _layer("cloud.run_adaptive_ms", "ms", "lower", "QueryRunner.run_adaptive over the cell queries"),
    _layer("fleet.workload_gen_ms", "ms", "lower", "make_tenants + generate_workload"),
    _layer("fleet.calibrate_ms", "ms", "lower", "macro calibration of every tenant query"),
    _layer("fleet.run_s", "s", "lower", "median wall of FleetCluster.run"),
    _layer("fleet.events_per_s", "1/s", "higher", "(admission verdicts + run slices) / run wall"),
    _layer("fleet.report_ms", "ms", "lower", "fleet_report + report_to_json"),
    _layer("fleet.slices", "count", "lower", "run slices of one simulation"),
    _layer("fleet.suspensions", "count", "lower", "suspensions of one simulation"),
    _layer("fleet.reclamations", "count", "lower", "spot reclamations of one simulation"),
    _layer("fleet.persisted_bytes", "bytes", "lower", "persisted_bytes of one simulation"),
    _layer("dist.partition_ms", "ms", "lower", "partition_catalog at 2 shards"),
    _layer("dist.run_ms", "ms", "lower", "split_plan + Coordinator.run, Q3 + Q12"),
    _layer("dist.bytes_shuffled", "bytes", "lower", "bytes shuffled by those two runs"),
    _layer("obs.tracer_overhead_ratio", "ratio", "lower", "Q9 with Tracer+MetricsRegistry / plain"),
    _layer("obs.profiler_overhead_ratio", "ratio", "lower", "Q9 with QueryProfiler / plain"),
    _layer("cli.import_ms", "ms", "lower", "subprocess: import repro.__main__"),
    _layer("cli.query_cold_ms", "ms", "lower", "subprocess: python -m repro query Q6, SF-0.002"),
    _layer("bench.trace_overhead_ratio", "ratio", "lower", "traced / untraced round wall"),
    _layer("bench.engine_run_share", "fraction", "lower",
           "self time of engine run() spans / op wall, native traced rounds"),
    _layer("bench.spans", "count", "lower", "spans recorded by the traced run"),
]


def by_name() -> dict[str, Metric]:
    return {metric.name: metric for metric in END_TO_END + FAMILY + PER_LAYER}
