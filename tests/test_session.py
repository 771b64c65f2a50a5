"""The slice driver: one QuerySession behind every run loop.

The chain test asserts ROADMAP aim 3's invariant directly — across any
chain of suspensions, committed or dropped, the query returns the
uninterrupted result, never re-runs a pipeline a committed snapshot
already finished, and never resumes from a snapshot that was persisted
but not committed.
"""

import argparse
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import _execute, _execution_config
from repro.cloud.availability import AvailabilityTrace
from repro.cloud.environment import PriceTrace
from repro.cloud.runner import QueryRunner
from repro.costmodel.selector import AdaptiveStrategySelector
from repro.costmodel.termination import TerminationProfile
from repro.engine.chunk import chunk_digest
from repro.engine.controller import Action, ExecutionController
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.fleet import (
    FleetCluster,
    QueryArrival,
    fleet_report,
    generate_workload,
    make_policy,
    make_tenants,
)
from repro.obs.handle import Obs
from repro.optimizer import OptimizerFlags
from repro.suspend import (
    CompositeController,
    PipelineLevelStrategy,
    QuerySession,
    SnapshotStore,
    make_strategy,
)
from repro.suspend.session import STAGING_DIR
from repro.tpch import build_query

MORSEL = 1024  # fine morsels keep "anytime" suspension granular at SF-0.002


class _Probe(ExecutionController):
    """Records where a slice started and which pipelines it finished."""

    def __init__(self):
        self.start = None
        self.finished: list[int] = []

    def on_morsel_boundary(self, context):
        if self.start is None:
            self.start = (context.pipeline_pos, context.morsel_index)
        return Action.CONTINUE

    def on_pipeline_breaker(self, context):
        if self.start is None:
            self.start = (context.pipeline_pos, -1)
        self.finished.append(context.pipeline_id)
        return Action.CONTINUE


def _committed_files(directory: Path) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in directory.iterdir()
        if path.is_file() and path.name != "manifest.json"
    }


@pytest.fixture(scope="module")
def uninterrupted(tpch_tiny):
    profile = HardwareProfile()
    results = {}
    for query in ("Q3", "Q9", "Q18"):
        results[query] = QueryExecutor(
            tpch_tiny, build_query(query), profile=profile, morsel_size=MORSEL
        ).run()
    return results


class TestSuspensionChain:
    @settings(max_examples=100, deadline=None)
    @given(
        query=st.sampled_from(["Q3", "Q9", "Q18"]),
        level=st.sampled_from(["pipeline", "process"]),
        codec=st.sampled_from(["raw", "adaptive"]),
        incremental=st.booleans(),
        steps=st.lists(
            st.tuples(st.floats(0.02, 0.45), st.booleans()), min_size=1, max_size=4
        ),
    )
    def test_chain_invariant(
        self, tpch_tiny, uninterrupted, query, level, codec, incremental, steps
    ):
        profile = HardwareProfile()
        normal = uninterrupted[query]
        strategy = make_strategy(level, profile, codec=codec)
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            store = SnapshotStore(directory, incremental=True) if incremental else None
            session = QuerySession(
                tpch_tiny, build_query(query), query, directory, profile,
                strategy=strategy, store=store, morsel_size=MORSEL,
            )
            committed_finished: set[int] = set()
            commits = 0
            dropped_start = None  # start of the last slice whose snapshot was dropped
            piece = None
            for fraction, commit in steps:
                probe = _Probe()
                request = strategy.make_request_controller(fraction * normal.stats.duration)
                piece = session.run_slice(CompositeController([probe, request]))
                # PR 9's bug class: an Nth-generation resume must not re-run
                # what a committed snapshot already finished.
                assert committed_finished.isdisjoint(probe.finished)
                if dropped_start is not None:
                    # The dropped snapshot was not the resume point: this
                    # slice began exactly where the dropped one began.
                    assert probe.start == dropped_start
                if piece.kind == "complete":
                    break
                before = _committed_files(directory)
                session.persist(piece)
                assert piece.persisted.snapshot_path.parent.name == STAGING_DIR
                assert _committed_files(directory) == before
                if commit:
                    session.commit(piece)
                    commits += 1
                    committed_finished.update(probe.finished)
                    dropped_start = None
                else:
                    dropped_start = probe.start
                assert session.has_snapshot == (commits > 0)
            if piece.kind != "complete":
                probe = _Probe()
                piece = session.run_slice(probe)
                assert committed_finished.isdisjoint(probe.finished)
                if dropped_start is not None:
                    assert probe.start == dropped_start
            assert piece.kind == "complete"
            assert chunk_digest(piece.result.chunk) == chunk_digest(normal.chunk)
            if store is not None:
                assert len(store.records(query)) == min(commits, store.keep_per_query)


def _runner_forced(catalog, plan, normal, directory):
    runner = QueryRunner(catalog, snapshot_dir=directory, morsel_size=MORSEL)
    outcome = runner.run_forced(plan, "Q9", "pipeline", normal, None, normal * 0.4)
    return outcome.result, int(outcome.suspended)


def _runner_adaptive(catalog, plan, normal, directory):
    profile = HardwareProfile()
    selector = AdaptiveStrategySelector(
        profile=profile,
        termination=TerminationProfile.from_fractions(normal, 0.5, 0.75, 1.0),
        process_size_estimator=lambda fraction: 64 * 1024**2,
        estimated_total_time=normal,
    )
    runner = QueryRunner(catalog, profile, snapshot_dir=directory, morsel_size=MORSEL)
    outcome = runner.run_adaptive(plan, "Q9", selector, normal, normal * 0.9)
    return outcome.result, int(outcome.suspended)


def _cli(catalog, plan, normal, directory):
    args = argparse.Namespace(
        suspend_at=0.4, strategy="pipeline", codec="raw", incremental=False,
        snapshot_dir=str(directory), backend=None, kernels=None, morsel_size=MORSEL,
    )
    config = _execution_config(args, OptimizerFlags())
    result = _execute(
        catalog, plan, "Q9", HardwareProfile(), args, config, Obs.NONE, verbose=False
    )
    return result, len(list(Path(directory).glob("Q9.*")))


class TestEveryDriver:
    @pytest.mark.parametrize(
        "drive",
        [_runner_forced, _runner_adaptive, _cli],
    )
    def test_returns_the_uninterrupted_result(self, tpch_tiny, uninterrupted, tmp_path, drive):
        normal = uninterrupted["Q9"]
        result, suspensions = drive(
            tpch_tiny, build_query("Q9"), normal.stats.duration, tmp_path / "snapshots"
        )
        assert suspensions >= 1
        assert chunk_digest(result.chunk) == chunk_digest(normal.chunk)

    @pytest.mark.parametrize(
        "trace",
        [
            AvailabilityTrace.periodic(1.3, 2.0, 8),
            PriceTrace(
                base_price=1.0, spike_multiplier=300.0, spike_probability=0.5,
                segment_seconds=1.5, seed=3,
            ).affordable(10.0, 60.0),
        ],
        ids=["periodic", "affordable"],
    )
    def test_fleet_over_a_trace_checks_the_uninterrupted_result(
        self, tpch_tiny, tmp_path, trace
    ):
        """The fleet digests every completion's final slice and counts any
        that differs from the uninterrupted run's result."""
        cluster = FleetCluster(
            tpch_tiny, make_policy("suspend-aware"), workers=1,
            snapshot_dir=tmp_path / "snapshots", morsel_size=MORSEL,
        )
        arrival = QueryArrival("Q9", "t", "analytic", "Q9", 0.0, False, 1.0, 1.0)
        result = cluster.run([arrival], trace.windows[-1].end, availability=[trace])
        assert result.completions[0].suspensions >= 1
        assert result.result_mismatches == 0


class TestMigration:
    def test_adopted_snapshot_resumes_on_another_node(self, tpch_tiny, uninterrupted, tmp_path):
        """Case 2: a second session, other worker count, finishes the query."""
        normal = uninterrupted["Q3"]
        source_profile = HardwareProfile(num_threads=4)
        strategy = PipelineLevelStrategy(source_profile)
        source = QuerySession(
            tpch_tiny, build_query("Q3"), "Q3", tmp_path, source_profile,
            strategy=strategy, morsel_size=MORSEL,
        )
        piece = source.run_slice(strategy.make_request_controller(normal.stats.duration * 0.4))
        source.persist(piece)
        source.commit(piece)
        destination_profile = HardwareProfile(num_threads=8)
        destination = QuerySession(
            tpch_tiny, build_query("Q3"), "Q3", tmp_path, destination_profile,
            strategy=PipelineLevelStrategy(destination_profile), morsel_size=MORSEL,
        )
        destination.adopt(piece.persisted.snapshot_path)
        assert destination.reload() > 0
        probe = _Probe()
        final = destination.run_slice(probe)
        assert final.kind == "complete" and probe.start[0] > 0
        assert chunk_digest(final.result.chunk) == chunk_digest(normal.chunk)


class TestFleetTwinUnderMissedWindows:
    def test_missed_persist_is_never_the_resume_point(self, tpch_tiny):
        """Engine and macro agree when snapshots miss their windows.

        A disk slow enough that persists regularly lose the race with the
        reclamation exercises the commit rule in both fidelities: a
        missed-window snapshot is dropped, not resumed from.
        """
        profile = HardwareProfile(disk_write_bandwidth=2 * 1024.0)
        arrivals = generate_workload(make_tenants(3, 11), 400.0, 11)
        reports = {}
        for fidelity in ("engine", "macro"):
            cluster = FleetCluster(
                tpch_tiny, make_policy("suspend-aware"), workers=2, seed=11,
                profile=profile, mean_on_seconds=40.0, mean_off_seconds=10.0,
                fidelity=fidelity,
            )
            reports[fidelity] = fleet_report(cluster.run(arrivals, 400.0))
        assert reports["engine"] == reports["macro"]
        assert reports["engine"]["totals"]["lost_segments"] > 0
