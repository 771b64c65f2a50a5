"""Incremental snapshot store: delta reuse, reading deltas, and GC safety.

The tentpole invariants: a second suspension of the same query persists
only changed states (delta files are a fraction of full snapshots), a
delta is read where it lies, resolving its references beside it, with no
second copy written, and pruning never orphans a base file that a live
delta chain references.
"""

import pytest

from repro.engine.clock import SimulatedClock
from repro.engine.errors import QuerySuspended
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.suspend import (
    PipelineLevelStrategy,
    ProcessLevelStrategy,
    SnapshotError,
    SnapshotFile,
    SnapshotStore,
)
from repro.suspend.snapshot import Snapshot
from repro.tpch import build_query

from tests.conftest import assert_chunks_equal
from tests.test_suspension import run_normal, suspend


def _suspend_twice(catalog, query, strategy, tmp_path, fractions=(0.25, 0.05)):
    """Suspend, resume, suspend the resumed run again; returns both outcomes
    plus the executors that produced them and the normal result."""
    profile = strategy.profile
    normal = run_normal(catalog, query)
    executor, capture, _ = suspend(
        catalog, query, strategy, fractions[0], normal.stats.duration, profile=profile
    )
    if capture is None:
        pytest.skip("query finished before the first suspension")
    # Separate directories: both persists would otherwise write the same
    # {query}.{strategy}.snapshot path.
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    first_dir.mkdir()
    second_dir.mkdir()
    first = strategy.persist(capture, first_dir)
    resumed = strategy.prepare_resume(
        first.snapshot_path, executor.pipelines, executor.plan_fingerprint
    )
    controller = strategy.make_request_controller(normal.stats.duration * fractions[1])
    second_exec = QueryExecutor(
        catalog,
        build_query(query),
        profile=profile,
        controller=controller,
        query_name=query,
        resume=resumed.resume_state,
    )
    try:
        second_exec.run()
        pytest.skip("resumed run finished before the second suspension")
    except QuerySuspended as exc:
        second = strategy.persist(exc.capture, second_dir)
    return normal, first, second, executor, second_exec


class TestDeltaRegistration:
    def test_second_suspension_stored_as_delta(self, tpch_tiny, tmp_path):
        strategy = PipelineLevelStrategy(HardwareProfile())
        normal, first, second, _, second_exec = _suspend_twice(
            tpch_tiny, "Q9", strategy, tmp_path
        )
        store = SnapshotStore(tmp_path / "store", incremental=True)
        record1 = store.register(first, "Q9")
        assert not record1.is_delta
        full_bytes = second.snapshot_path.stat().st_size
        record2 = store.register(second, "Q9")
        assert record2.is_delta
        assert record2.delta_of == record1.sequence
        # Delta reuse: referenced states are not re-persisted, so the delta
        # file is smaller than the full snapshot it replaced.
        assert record2.file_bytes < full_bytes
        with SnapshotFile(store.path_of(record2)) as stored:
            assert stored.kind == "delta"
            assert stored.header["refs"]

        # The strategy resumes from the delta itself.
        full = store.materialize(record2)
        resumed = strategy.prepare_resume(
            full, second_exec.pipelines, second_exec.plan_fingerprint
        )
        final = QueryExecutor(
            tpch_tiny,
            build_query("Q9"),
            profile=strategy.profile,
            clock=SimulatedClock(),
            query_name="Q9",
            resume=resumed.resume_state,
        ).run()
        assert_chunks_equal(normal.chunk, final.chunk)

    def test_same_point_delta_reuses_everything(self, tpch_tiny, tmp_path):
        """Suspending the same deterministic run at the same point twice
        reuses every state: the delta is a small fraction of the full file
        (the paper-facing < 50% delta-reuse guarantee, by a wide margin)."""
        strategy = PipelineLevelStrategy(HardwareProfile())
        normal = run_normal(tpch_tiny, "Q9")
        store = SnapshotStore(tmp_path / "store", incremental=True)
        records = []
        for attempt in ("first", "second"):
            directory = tmp_path / attempt
            directory.mkdir()
            _, capture, _ = suspend(
                tpch_tiny, "Q9", strategy, 0.4, normal.stats.duration,
                profile=strategy.profile,
            )
            if capture is None:
                pytest.skip("query finished before the suspension point")
            outcome = strategy.persist(capture, directory)
            records.append(store.register(outcome, "Q9"))
        first, second = records
        assert second.is_delta
        assert second.file_bytes < first.file_bytes * 0.5

    def test_process_level_deltas(self, tpch_tiny, tmp_path):
        strategy = ProcessLevelStrategy(HardwareProfile())
        normal, first, second, _, second_exec = _suspend_twice(
            tpch_tiny, "Q9", strategy, tmp_path, fractions=(0.3, 0.3)
        )
        store = SnapshotStore(tmp_path / "store", incremental=True)
        record1 = store.register(first, "Q9")
        record2 = store.register(second, "Q9")
        if not record2.is_delta:
            pytest.skip("no completed state was reusable at these points")
        full = store.materialize(record2)
        resumed = strategy.prepare_resume(
            full, second_exec.pipelines, second_exec.plan_fingerprint
        )
        final = QueryExecutor(
            tpch_tiny,
            build_query("Q9"),
            profile=strategy.profile,
            query_name="Q9",
            resume=resumed.resume_state,
        ).run()
        assert_chunks_equal(normal.chunk, final.chunk)

    def test_non_incremental_store_keeps_full_snapshots(self, tpch_tiny, tmp_path):
        strategy = PipelineLevelStrategy(HardwareProfile())
        _, first, second, _, _ = _suspend_twice(tpch_tiny, "Q9", strategy, tmp_path)
        store = SnapshotStore(tmp_path / "store", incremental=False)
        record1 = store.register(first, "Q9")
        record2 = store.register(second, "Q9")
        assert not record1.is_delta and not record2.is_delta

    def test_manifest_round_trip(self, tpch_tiny, tmp_path):
        strategy = PipelineLevelStrategy(HardwareProfile())
        _, first, second, _, _ = _suspend_twice(tpch_tiny, "Q9", strategy, tmp_path)
        store = SnapshotStore(tmp_path / "store", incremental=True)
        store.register(first, "Q9")
        record2 = store.register(second, "Q9")
        reopened = SnapshotStore(tmp_path / "store", incremental=True)
        latest = reopened.latest("Q9")
        assert latest == record2
        assert latest.segments
        # References resolve after reopen.
        assert Snapshot.read(reopened.materialize(latest), "pipeline").state_blobs

    def test_hash_verification_detects_corruption(self, tpch_tiny, tmp_path):
        strategy = PipelineLevelStrategy(HardwareProfile())
        _, first, second, _, second_exec = _suspend_twice(
            tpch_tiny, "Q9", strategy, tmp_path
        )
        store = SnapshotStore(tmp_path / "store", incremental=True)
        record1 = store.register(first, "Q9")
        record2 = store.register(second, "Q9")
        if not record2.is_delta:
            pytest.skip("second snapshot was not a delta")
        # Corrupt the base file the delta references.
        base_path = store.path_of(record1)
        payload = bytearray(base_path.read_bytes())
        payload[-3] ^= 0xFF
        base_path.write_bytes(bytes(payload))
        path = store.materialize(record2)
        with pytest.raises(SnapshotError, match="hash"):
            strategy.prepare_resume(
                path, second_exec.pipelines, second_exec.plan_fingerprint
            )


class TestPruningNeverOrphans:
    def test_prune_keeps_referenced_base_file(self, tpch_tiny, tmp_path):
        """keep=1 drops the base *record* but its file survives while the
        delta references it — the delta still resumes."""
        strategy = PipelineLevelStrategy(HardwareProfile())
        _, first, second, _, second_exec = _suspend_twice(
            tpch_tiny, "Q9", strategy, tmp_path
        )
        store = SnapshotStore(tmp_path / "store", incremental=True)
        record1 = store.register(first, "Q9")
        record2 = store.register(second, "Q9")
        assert record2.is_delta
        base_file = store.path_of(record1)

        removed = store.prune_query("Q9", keep=1)
        assert removed == 1
        assert store.latest("Q9") == record2
        # The base record is gone but its referenced file is retained.
        assert base_file.exists()
        full = store.materialize(record2)
        resumed = strategy.prepare_resume(
            full, second_exec.pipelines, second_exec.plan_fingerprint
        )
        assert resumed.resume_state is not None

    def test_retained_file_swept_when_unreferenced(self, tpch_tiny, tmp_path):
        strategy = PipelineLevelStrategy(HardwareProfile())
        _, first, second, _, _ = _suspend_twice(tpch_tiny, "Q9", strategy, tmp_path)
        store = SnapshotStore(tmp_path / "store", incremental=True)
        record1 = store.register(first, "Q9")
        record2 = store.register(second, "Q9")
        base_file = store.path_of(record1)
        delta_file = store.path_of(record2)

        store.prune_query("Q9", keep=1)
        assert base_file.exists()  # still referenced by the delta
        store.prune_query("Q9", keep=0)
        # Nothing references the base anymore: both files are gone.
        assert not delta_file.exists()
        assert not base_file.exists()
        assert store.records("Q9") == []

    def test_retention_policy_applies_on_register(self, tpch_tiny, tmp_path):
        strategy = PipelineLevelStrategy(HardwareProfile())
        _, first, second, _, _ = _suspend_twice(tpch_tiny, "Q9", strategy, tmp_path)
        store = SnapshotStore(tmp_path / "store", incremental=True, keep_per_query=1)
        store.register(first, "Q9")
        record2 = store.register(second, "Q9")
        # Retention kicked in immediately, yet the delta still reads.
        assert [r.sequence for r in store.records("Q9")] == [record2.sequence]
        assert Snapshot.read(store.materialize(record2), "pipeline").state_blobs
