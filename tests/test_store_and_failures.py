"""Snapshot store, SQL-text registry, and failure-injection tests."""

import numpy as np
import pytest

from repro.engine.clock import SimulatedClock
from repro.engine.errors import QuerySuspended
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.sql import execute_sql
from repro.suspend import (
    PipelineLevelStrategy,
    ProcessLevelStrategy,
    RedoStrategy,
    Snapshot,
    SnapshotError,
)
from repro.suspend.store import SnapshotStore
from repro.tpch import build_query
from repro.tpch.sql_texts import SQL_TEXTS, sql_text

from tests.conftest import assert_chunks_equal


def suspend_once(catalog, query, strategy, directory, fraction=0.5):
    from pathlib import Path

    Path(directory).mkdir(parents=True, exist_ok=True)
    profile = strategy.profile
    normal = QueryExecutor(catalog, build_query(query), profile=profile, query_name=query).run()
    controller = strategy.make_request_controller(normal.stats.duration * fraction)
    executor = QueryExecutor(
        catalog, build_query(query), profile=profile, controller=controller, query_name=query
    )
    try:
        executor.run()
        return None, executor
    except QuerySuspended as exc:
        return strategy.persist(exc.capture, directory), executor


class TestSnapshotStore:
    def test_register_moves_file(self, tpch_tiny, tmp_path):
        strategy = PipelineLevelStrategy(HardwareProfile())
        outcome, _ = suspend_once(tpch_tiny, "Q3", strategy, tmp_path / "staging")
        store = SnapshotStore(tmp_path / "store")
        record = store.register(outcome, "Q3")
        assert store.path_of(record).exists()
        assert not outcome.snapshot_path.exists()
        assert record.file_bytes > 0

    def test_latest_and_ordering(self, tpch_tiny, tmp_path):
        strategy = PipelineLevelStrategy(HardwareProfile())
        store = SnapshotStore(tmp_path / "store")
        for fraction in (0.3, 0.5, 0.7):
            outcome, _ = suspend_once(
                tpch_tiny, "Q3", strategy, tmp_path / "staging", fraction
            )
            if outcome is not None:
                store.register(outcome, "Q3")
        latest = store.latest("Q3")
        assert latest is not None
        assert latest.sequence == max(r.sequence for r in store.records("Q3"))

    def test_retention_prunes_old(self, tpch_tiny, tmp_path):
        strategy = PipelineLevelStrategy(HardwareProfile())
        store = SnapshotStore(tmp_path / "store", keep_per_query=2)
        for _ in range(4):
            outcome, _ = suspend_once(tpch_tiny, "Q3", strategy, tmp_path / "staging")
            store.register(outcome, "Q3")
        assert len(store.records("Q3")) == 2
        snapshot_files = [
            p for p in (tmp_path / "store").iterdir() if p.suffix == ".snapshot"
        ]
        assert len(snapshot_files) == 2

    def test_manifest_survives_reopen(self, tpch_tiny, tmp_path):
        strategy = PipelineLevelStrategy(HardwareProfile())
        store = SnapshotStore(tmp_path / "store")
        outcome, _ = suspend_once(tpch_tiny, "Q3", strategy, tmp_path / "staging")
        record = store.register(outcome, "Q3")
        reopened = SnapshotStore(tmp_path / "store")
        assert reopened.latest("Q3").file_name == record.file_name
        assert reopened.total_bytes == store.total_bytes

    def test_redo_outcome_rejected(self, tpch_tiny, tmp_path):
        strategy = ProcessLevelStrategy(HardwareProfile())
        outcome, _ = suspend_once(tpch_tiny, "Q3", strategy, tmp_path / "staging")
        redo = RedoStrategy(HardwareProfile())
        fake = redo.persist(None if outcome is None else _dummy_capture(tpch_tiny), tmp_path)
        store = SnapshotStore(tmp_path / "store")
        with pytest.raises(ValueError, match="no snapshot"):
            store.register(fake, "Q3")

    def test_stored_snapshot_still_resumable(self, tpch_tiny, tmp_path):
        profile = HardwareProfile()
        strategy = PipelineLevelStrategy(profile)
        normal = QueryExecutor(tpch_tiny, build_query("Q3"), profile=profile).run()
        outcome, executor = suspend_once(tpch_tiny, "Q3", strategy, tmp_path / "staging")
        store = SnapshotStore(tmp_path / "store")
        record = store.register(outcome, "Q3")
        resumed = strategy.prepare_resume(
            store.path_of(record), executor.pipelines, executor.plan_fingerprint
        )
        final = QueryExecutor(
            tpch_tiny,
            build_query("Q3"),
            profile=profile,
            clock=SimulatedClock(),
            resume=resumed.resume_state,
        ).run()
        assert_chunks_equal(normal.chunk, final.chunk)

    def test_prune_all(self, tpch_tiny, tmp_path):
        strategy = PipelineLevelStrategy(HardwareProfile())
        store = SnapshotStore(tmp_path / "store")
        outcome, _ = suspend_once(tpch_tiny, "Q3", strategy, tmp_path / "staging")
        store.register(outcome, "Q3")
        removed = store.prune_query("Q3", keep=0)
        assert removed == 1
        assert store.latest("Q3") is None


def _dummy_capture(catalog):
    """Minimal process capture for redo.persist (which ignores contents)."""
    from repro.engine.executor import ExecutionCapture
    from repro.engine.stats import QueryStats

    return ExecutionCapture(
        kind="process",
        query_name="Q3",
        plan_fingerprint="x",
        clock_time=1.0,
        num_threads=4,
        morsel_size=16384,
        completed_states={},
        stats=QueryStats(),
        memory_bytes=0,
    )


class TestSqlTexts:
    def test_registry_contents(self):
        assert set(SQL_TEXTS) == {"Q1", "Q3", "Q5", "Q6", "Q10", "Q12", "Q14", "Q19"}

    def test_unknown_query_hint(self):
        with pytest.raises(KeyError, match="build_query"):
            sql_text("Q21")

    @pytest.mark.parametrize("name", sorted(SQL_TEXTS))
    def test_all_texts_run_and_match_builtin(self, tpch_tiny, name):
        sql_result = execute_sql(tpch_tiny, sql_text(name)).chunk
        builtin = QueryExecutor(tpch_tiny, build_query(name), query_name=name).run().chunk
        assert set(sql_result.schema.names) == set(builtin.schema.names)
        assert sql_result.num_rows == builtin.num_rows
        for column in builtin.schema.names:
            got, want = sql_result.column(column), builtin.column(column)
            assert got.dtype == want.dtype, column
            if want.dtype.kind == "f":
                # Q19's SUM over no rows is NaN at the tiny scale.
                np.testing.assert_allclose(
                    got, want, rtol=1e-9, equal_nan=True, err_msg=column
                )
            else:
                np.testing.assert_array_equal(got, want, err_msg=column)


class TestFailureInjection:
    def _snapshot_path(self, tpch_tiny, tmp_path):
        strategy = PipelineLevelStrategy(HardwareProfile())
        outcome, executor = suspend_once(tpch_tiny, "Q3", strategy, tmp_path)
        return outcome.snapshot_path, executor, strategy

    def test_truncated_snapshot_detected(self, tpch_tiny, tmp_path):
        path, executor, strategy = self._snapshot_path(tpch_tiny, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(Exception):
            strategy.prepare_resume(path, executor.pipelines, executor.plan_fingerprint)

    def test_corrupted_magic_detected(self, tpch_tiny, tmp_path):
        path, executor, strategy = self._snapshot_path(tpch_tiny, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError):
            strategy.prepare_resume(path, executor.pipelines, executor.plan_fingerprint)

    def test_resume_against_different_plan_rejected(self, tpch_tiny, tmp_path):
        path, executor, strategy = self._snapshot_path(tpch_tiny, tmp_path)
        other = QueryExecutor(tpch_tiny, build_query("Q1"))
        with pytest.raises(SnapshotError, match="different query plan"):
            strategy.prepare_resume(path, other.pipelines, other.plan_fingerprint)

    def test_pipeline_snapshot_reader_rejects_process_image(self, tpch_tiny, tmp_path):
        strategy = ProcessLevelStrategy(HardwareProfile())
        outcome, _ = suspend_once(tpch_tiny, "Q3", strategy, tmp_path)
        with pytest.raises(SnapshotError, match="bad magic"):
            Snapshot.read(outcome.snapshot_path, "pipeline")
