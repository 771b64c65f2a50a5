"""repro.dist: sharded execution, near-data pushdown, per-shard suspension.

The load-bearing guarantee is bit-identity: every TPC-H query executed
through the partition → fragment → gather-exchange → upper-plan path
must return byte-for-byte the chunk the unsharded executor produces —
at every shard count, under both partition schemes, with pushdown on or
off, and straight through a per-shard suspend→resume cycle.
"""

import numpy as np
import pytest

from repro.dist import (
    PARTITION_KEYS,
    REPLICATED_TABLES,
    ROWID_COLUMN,
    Coordinator,
    ShardSuspension,
    partition_catalog,
    split_plan,
)
from repro.dist.partition import hash_shard, range_boundaries, range_shard
from repro.engine.executor import QueryExecutor
from repro.obs.audit import DecisionJournal
from repro.obs.handle import Obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.optimizer import optimize_plan
from repro.suspend import SnapshotStore
from repro.tpch import QUERY_NAMES, build_query

_SHARDED_CACHE: dict = {}
_BASELINE_CACHE: dict = {}
_OPTIMIZED_CACHE: dict = {}


def _sharded(catalog, shards, scheme):
    key = (id(catalog), shards, scheme)
    if key not in _SHARDED_CACHE:
        _SHARDED_CACHE[key] = partition_catalog(catalog, shards, scheme=scheme)
    return _SHARDED_CACHE[key]


def _baseline(catalog, query):
    key = (id(catalog), query)
    if key not in _BASELINE_CACHE:
        plan = _optimized(catalog, query)
        _BASELINE_CACHE[key] = QueryExecutor(
            catalog, plan, query_name=query, select_operators=True
        ).run()
    return _BASELINE_CACHE[key]


def _optimized(catalog, query):
    key = (id(catalog), query)
    if key not in _OPTIMIZED_CACHE:
        _OPTIMIZED_CACHE[key] = optimize_plan(catalog, build_query(query)).plan
    return _OPTIMIZED_CACHE[key]


def _run_sharded(
    catalog, query, shards, scheme="hash", pushdown=True, suspend=None, **kwargs
):
    sharded = _sharded(catalog, shards, scheme)
    dist = split_plan(sharded, _optimized(catalog, query), pushdown=pushdown)
    coordinator = Coordinator(sharded, select_operators=True, **kwargs)
    return coordinator.run(dist, query, suspend=suspend), dist, coordinator


def assert_bit_identical(left, right):
    assert left.schema.names == right.schema.names
    for a, b in zip(left.arrays(), right.arrays()):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestPartitioning:
    def test_assignment_is_deterministic(self, tpch_tiny):
        first = partition_catalog(tpch_tiny, 4)
        second = partition_catalog(tpch_tiny, 4)
        assert first.shard_rows == second.shard_rows
        for table in first.partitioned_tables:
            for k in range(4):
                left = first.catalog_for(k).get(table).arrays()
                right = second.catalog_for(k).get(table).arrays()
                assert list(left) == list(right)
                for name in left:
                    assert left[name].tobytes() == right[name].tobytes()

    @pytest.mark.parametrize("scheme", ["hash", "range"])
    def test_partitions_cover_every_row(self, tpch_tiny, scheme):
        sharded = _sharded(tpch_tiny, 3, scheme)
        for table in PARTITION_KEYS:
            base = tpch_tiny.get(table)
            assert sum(sharded.shard_rows[table]) == base.num_rows
            rowids = np.concatenate(
                [
                    sharded.catalog_for(k).get(table).array(ROWID_COLUMN)
                    for k in range(3)
                ]
            )
            assert np.array_equal(np.sort(rowids), np.arange(base.num_rows))

    @pytest.mark.parametrize("scheme", ["hash", "range"])
    def test_join_keys_are_co_partitioned(self, tpch_tiny, scheme):
        """Same key value → same shard, across tables of one family."""
        sharded = _sharded(tpch_tiny, 4, scheme)
        shard_of = {}
        for table in ("orders", "lineitem"):
            key = PARTITION_KEYS[table]
            for k in range(4):
                values = sharded.catalog_for(k).get(table).array(key)
                for value in np.unique(values):
                    assert shard_of.setdefault(int(value), k) == k

    def test_replicated_tables_shared_by_reference(self, tpch_tiny):
        sharded = _sharded(tpch_tiny, 2, "hash")
        for table in REPLICATED_TABLES:
            assert sharded.catalog_for(0).get(table) is tpch_tiny.get(table)
            assert sharded.catalog_for(1).get(table) is tpch_tiny.get(table)

    def test_hash_and_range_are_pure_functions(self):
        values = np.arange(1, 2000, 7, dtype=np.int64)
        assert np.array_equal(hash_shard(values, 4), hash_shard(values.copy(), 4))
        bounds = range_boundaries(values, 4)
        assigned = range_shard(values, bounds)
        assert assigned.min() >= 0 and assigned.max() <= 3

    def test_invalid_arguments_rejected(self, tpch_tiny):
        with pytest.raises(ValueError):
            partition_catalog(tpch_tiny, 0)
        with pytest.raises(ValueError):
            partition_catalog(tpch_tiny, 2, scheme="round-robin")


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("query", QUERY_NAMES)
    def test_all_queries_identical_hash(self, tpch_tiny, query, shards):
        baseline = _baseline(tpch_tiny, query)
        result, _, _ = _run_sharded(tpch_tiny, query, shards)
        assert_bit_identical(baseline.chunk, result.chunk)

    @pytest.mark.parametrize("query", ["Q1", "Q3", "Q6", "Q9", "Q12", "Q18", "Q21"])
    def test_range_scheme_identical(self, tpch_tiny, query):
        baseline = _baseline(tpch_tiny, query)
        result, _, _ = _run_sharded(tpch_tiny, query, 3, scheme="range")
        assert_bit_identical(baseline.chunk, result.chunk)

    @pytest.mark.parametrize("query", ["Q1", "Q3", "Q6", "Q12", "Q18"])
    def test_pushdown_off_identical(self, tpch_tiny, query):
        baseline = _baseline(tpch_tiny, query)
        result, _, _ = _run_sharded(tpch_tiny, query, 2, pushdown=False)
        assert_bit_identical(baseline.chunk, result.chunk)


class TestNearDataPushdown:
    @pytest.mark.parametrize("query", ["Q3", "Q4", "Q6", "Q12"])
    def test_pushdown_shuffles_fewer_bytes(self, tpch_tiny, query):
        """Selective queries ship only survivors below the exchange."""
        on, _, _ = _run_sharded(tpch_tiny, query, 2, pushdown=True)
        off, _, _ = _run_sharded(tpch_tiny, query, 2, pushdown=False)
        assert on.bytes_shuffled < off.bytes_shuffled
        assert_bit_identical(on.chunk, off.chunk)

    def test_q12_sinks_co_partitioned_join(self, tpch_tiny):
        _, dist, _ = _run_sharded(tpch_tiny, "Q12", 2)
        assert len(dist.exchanges) == 1
        spec = dist.exchanges[0]
        assert spec.base_table == "orders"
        assert spec.placements == ["hash:orderkey:lineitem"]
        assert spec.sunk_operators.get("join") == 1

    def test_pushdown_off_cuts_at_bare_scans(self, tpch_tiny):
        _, dist, _ = _run_sharded(tpch_tiny, "Q12", 2, pushdown=False)
        assert len(dist.exchanges) == 2  # orders and lineitem ship raw
        for spec in dist.exchanges:
            assert spec.placements == []

    def test_metrics_journal_and_trace(self, tpch_tiny):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        journal = DecisionJournal()
        sharded = _sharded(tpch_tiny, 2, "hash")
        dist = split_plan(
            sharded, _optimized(tpch_tiny, "Q6"), journal=journal, query_name="Q6"
        )
        result = Coordinator(
            sharded, obs=Obs(tracer=tracer, metrics=metrics), select_operators=True
        ).run(dist, "Q6")
        counter = metrics.counter("exchange_bytes_shuffled_total", mode="gather")
        assert counter.value == result.bytes_shuffled > 0
        lanes = {e.track for e in tracer.by_category("exchange")}
        assert lanes == {"shard0", "shard1", "coordinator"}
        rewrites = [r for r in journal.records if r.kind == "rewrite"]
        assert any(r.payload["rule"] == "dist_exchange" for r in rewrites)
        placements = [r for r in journal.records if r.kind == "placement"]
        assert placements and placements[0].payload["shards"] == 2


class TestPerShardSuspension:
    @pytest.mark.parametrize("strategy", ["pipeline", "process"])
    def test_only_victim_suspends_and_resumes(self, tpch_tiny, tmp_path, strategy):
        store = SnapshotStore(tmp_path, incremental=True)
        journal = DecisionJournal()
        result, dist, _ = _run_sharded(
            tpch_tiny,
            "Q12",
            2,
            suspend=ShardSuspension(strategy=strategy, suspend_at=0.5),
            obs=Obs(journal=journal),
            store=store,
            snapshot_dir=tmp_path,
        )
        assert_bit_identical(_baseline(tpch_tiny, "Q12").chunk, result.chunk)
        suspended = [f for f in result.fragments if f.suspended]
        assert len(suspended) == 1
        victim_frag = suspended[0]
        assert victim_frag.shard == result.victim
        assert victim_frag.strategy == strategy
        assert victim_frag.label == f"Q12.x0.s{result.victim}"
        assert result.victim_outcome.suspended
        assert victim_frag.intermediate_bytes > 0
        # Only the reclaimed shard persisted anything.
        labels = {record.query_name for record in store.records()}
        assert labels == {victim_frag.label}
        kinds = {record.kind for record in journal.records}
        assert {"suspend", "resume", "outcome"} <= kinds

    def test_second_suspension_reuses_delta(self, tpch_tiny, tmp_path):
        """Re-suspending the same shard stores a delta of the first snapshot."""
        store = SnapshotStore(tmp_path, incremental=True)
        suspend = ShardSuspension(strategy="pipeline", suspend_at=0.5)
        _run_sharded(
            tpch_tiny, "Q12", 2, suspend=suspend, store=store, snapshot_dir=tmp_path
        )
        result, _, _ = _run_sharded(
            tpch_tiny, "Q12", 2, suspend=suspend, store=store, snapshot_dir=tmp_path
        )
        assert_bit_identical(_baseline(tpch_tiny, "Q12").chunk, result.chunk)
        records = sorted(store.records(), key=lambda r: r.sequence)
        assert len(records) == 2
        assert not records[0].is_delta
        assert records[1].is_delta and records[1].delta_of == records[0].sequence

    def test_explicit_victim_and_range_checks(self, tpch_tiny, tmp_path):
        result, _, _ = _run_sharded(
            tpch_tiny,
            "Q12",
            2,
            suspend=ShardSuspension(victim=0, suspend_at=0.5),
            snapshot_dir=tmp_path,
        )
        assert result.victim == 0
        assert_bit_identical(_baseline(tpch_tiny, "Q12").chunk, result.chunk)
        sharded = _sharded(tpch_tiny, 2, "hash")
        coordinator = Coordinator(sharded)
        with pytest.raises(ValueError):
            coordinator.pick_victim(ShardSuspension(victim=7))


class TestVirtualTime:
    def test_composed_time_includes_shuffle(self, tpch_tiny):
        result, _, coordinator = _run_sharded(tpch_tiny, "Q6", 2)
        assert result.shuffle_time == pytest.approx(
            coordinator.profile.shuffle_latency(result.bytes_shuffled)
        )
        slowest = max(f.busy_time for f in result.fragments)
        assert result.virtual_time >= slowest + result.shuffle_time


class TestDistCli:
    def test_query_with_shards(self, capsys):
        from repro.__main__ import main

        code = main(["query", "--scale", "0.002", "--name", "Q6", "--shards", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "2 shard(s)" in output and "bytes shuffled" in output

    def test_query_sharded_suspension(self, capsys, tmp_path):
        from repro.__main__ import main

        code = main([
            "query", "--scale", "0.002", "--name", "Q12", "--shards", "2",
            "--partition-scheme", "range", "--suspend-at", "0.5", "--analyze",
            "--snapshot-dir", str(tmp_path),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "reclaimed" in output and "per-shard fragments" in output

    def test_why_with_shards(self, capsys, tmp_path):
        from repro.__main__ import main

        code = main([
            "why", "Q12", "--scale", "0.002", "--shards", "2",
            "--snapshot-dir", str(tmp_path), "--replay",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "sharded over 2 shard(s)" in output
        assert "victim" in output
