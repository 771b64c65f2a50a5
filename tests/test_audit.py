"""The decision audit journal: durability, replay, and persistence."""

from __future__ import annotations

import pytest

from repro.cloud.runner import QueryRunner
from repro.costmodel.optimizer_est import OptimizerSizeEstimator
from repro.costmodel.selector import AdaptiveStrategySelector
from repro.costmodel.termination import TerminationProfile
from repro.obs.audit import (
    AUDIT_KINDS,
    DecisionJournal,
    ReplayMismatch,
    replay_journal,
    resolve_adaptive_action,
)
from repro.obs.handle import Obs
from repro.suspend.store import SnapshotStore
from repro.tpch import build_query


REPLAY_QUERIES = ["Q1", "Q3", "Q6", "Q17"]


def _adaptive_journal(catalog, profile, directory, queries, kill_fraction=0.9):
    """Run *queries* adaptively with a journal + store; returns the journal.

    The sampled kill lands at *kill_fraction* of the window end, late
    enough that pipeline/process choices actually suspend and resume.
    """
    journal = DecisionJournal()
    store = SnapshotStore(directory / "store")
    runner = QueryRunner(
        catalog, profile, snapshot_dir=directory, obs=Obs(journal=journal), store=store
    )
    estimator = OptimizerSizeEstimator(catalog)
    for query in queries:
        plan = build_query(query)
        normal = runner.measure_normal(plan, query).stats.duration
        termination = TerminationProfile.from_fractions(normal, 0.5, 0.75, 1.0)
        selector = AdaptiveStrategySelector(
            profile=profile,
            termination=termination,
            process_size_estimator=lambda f, p=plan: estimator.estimate_bytes(p, f),
            estimated_total_time=normal,
            obs=runner.obs,
            estimator_label="optimizer",
        )
        runner.run_adaptive(plan, query, selector, normal, termination.t_end * kill_fraction)
    return journal


class TestJournal:
    def test_append_assigns_sequence_and_validates_kind(self):
        journal = DecisionJournal()
        first = journal.append("decision", "Q1", 0.5, chosen="redo")
        second = journal.append("outcome", "Q1", 1.0, strategy="redo")
        assert (first.seq, second.seq) == (0, 1)
        with pytest.raises(ValueError):
            journal.append("bogus", "Q1", 0.0)

    def test_kinds_cover_the_deliberation_lifecycle(self):
        for required in ("decision", "action", "suspend", "resume", "outcome",
                         "termination", "counterfactual", "placement"):
            assert required in AUDIT_KINDS

    def test_jsonl_round_trip_is_byte_identical(self):
        journal = DecisionJournal()
        journal.append("decision", "Q3", 0.25, chosen="pipeline", cost=1.5)
        journal.append("suspend", "Q3", 0.5, mode="pipeline", lag=0.0)
        text = journal.to_jsonl()
        reloaded = DecisionJournal.from_jsonl(text)
        assert reloaded.to_jsonl() == text
        assert [r.kind for r in reloaded.records] == ["decision", "suspend"]

    def test_loaded_journal_continues_sequence_numbering(self):
        journal = DecisionJournal()
        journal.append("decision", "Q1", 0.1, chosen="redo")
        journal.append("outcome", "Q1", 0.2, strategy="redo")
        reloaded = DecisionJournal.from_jsonl(journal.to_jsonl())
        appended = reloaded.append("resume", "Q1", 0.3)
        assert appended.seq == 2

    def test_accessors_filter_by_kind_and_query(self):
        journal = DecisionJournal()
        journal.append("decision", "Q1", 0.1, chosen="redo")
        journal.append("decision", "Q2", 0.2, chosen="process")
        journal.append("outcome", "Q1", 0.3, strategy="redo")
        assert len(journal.by_kind("decision")) == 2
        assert [r.query for r in journal.for_query("Q1")] == ["Q1", "Q1"]
        assert [r.payload["chosen"] for r in journal.decisions("Q2")] == ["process"]


class TestResolveAction:
    def test_pipeline_at_breaker_suspends_else_arms(self):
        assert resolve_adaptive_action("pipeline", True, 1.0, None) == "suspend_pipeline"
        assert resolve_adaptive_action("pipeline", False, 1.0, None) == "arm_pipeline"

    def test_process_fires_at_planned_time(self):
        assert resolve_adaptive_action("process", True, 2.0, 1.5) == "suspend_process"
        assert resolve_adaptive_action("process", True, 1.0, 1.5) == "defer_process"
        assert resolve_adaptive_action("process", False, 1.0, None) == "suspend_process"

    def test_redo_continues(self):
        assert resolve_adaptive_action("redo", True, 1.0, None) == "continue"


class TestAdaptiveReplay:
    def test_replay_reproduces_live_decisions_bit_for_bit(self, tpch_tiny, profile, tmp_path):
        journal = _adaptive_journal(tpch_tiny, profile, tmp_path, REPLAY_QUERIES)
        decisions = journal.by_kind("decision")
        assert decisions, "no decisions were journaled"
        results = replay_journal(journal, strict=True)
        assert len(results) == len(decisions)
        assert all(r.matches for r in results)

    def test_replay_covers_resumed_queries(self, tpch_tiny, profile, tmp_path):
        journal = _adaptive_journal(tpch_tiny, profile, tmp_path, ["Q3", "Q17"])
        # The late kill pushes these queries into an actual suspend → resume
        # cycle; their post-resumption history must replay too.
        assert journal.by_kind("suspend") and journal.by_kind("resume")
        replay_journal(journal, strict=True)

    def test_exports_are_byte_identical_across_runs(self, tpch_tiny, profile, tmp_path):
        first = _adaptive_journal(tpch_tiny, profile, tmp_path / "a", ["Q3", "Q6"])
        second = _adaptive_journal(tpch_tiny, profile, tmp_path / "b", ["Q3", "Q6"])
        assert first.to_jsonl() == second.to_jsonl()
        assert first.to_jsonl().encode("utf-8") == second.to_jsonl().encode("utf-8")

    def test_tampered_journal_fails_replay(self, tpch_tiny, profile, tmp_path):
        journal = _adaptive_journal(tpch_tiny, profile, tmp_path, ["Q3"])
        record = journal.by_kind("decision")[0]
        record.payload["inputs"]["pipeline_state_bytes"] += 10_000_000
        with pytest.raises(ReplayMismatch):
            replay_journal(journal, strict=True)


@pytest.mark.parametrize("incremental", [False, True], ids=["full", "incremental"])
@pytest.mark.parametrize("strategy", ["redo", "pipeline", "process"])
class TestJournalDurability:
    def test_journal_survives_suspend_resume(
        self, tpch_tiny, profile, tmp_path, strategy, incremental
    ):
        journal = DecisionJournal()
        store = SnapshotStore(tmp_path / "store", incremental=incremental)
        runner = QueryRunner(
            tpch_tiny, profile, snapshot_dir=tmp_path, obs=Obs(journal=journal), store=store
        )
        plan = build_query("Q3")
        normal = runner.measure_normal(plan, "Q3").stats.duration
        outcome = runner.run_forced(plan, "Q3", strategy, normal, None, normal * 0.5)
        assert outcome.completed

        # A fresh store over the same directory must see the same history.
        reopened = SnapshotStore(tmp_path / "store", incremental=incremental)
        loaded = reopened.load_journal("Q3")
        assert loaded is not None
        assert loaded.to_jsonl() == journal.to_jsonl()
        kinds = {r.kind for r in loaded.records}
        assert "outcome" in kinds
        if strategy != "redo":
            assert outcome.suspended
            assert {"suspend", "resume"} <= kinds
        # The persisted history keeps numbering monotonic on resume.
        appended = loaded.append("counterfactual", "Q3", normal)
        assert appended.seq == max(r.seq for r in journal.records) + 1

    def test_missing_journal_loads_none(
        self, tpch_tiny, profile, tmp_path, strategy, incremental
    ):
        store = SnapshotStore(tmp_path / "store", incremental=incremental)
        assert store.load_journal(f"absent-{strategy}") is None


class TestEstimatorAccuracy:
    def test_accuracy_report_pairs_estimates_with_actuals(
        self, tpch_tiny, profile, tmp_path
    ):
        from repro.harness.report import estimator_accuracy, format_estimator_accuracy

        journal = _adaptive_journal(tpch_tiny, profile, tmp_path, ["Q3", "Q17"])
        accuracy = estimator_accuracy(journal)
        assert accuracy, "expected at least one query with paired estimates"
        for kinds in accuracy.values():
            for stats in kinds.values():
                assert stats["samples"]
                assert stats["summary"]["max"] >= stats["summary"]["min"] >= 0.0
        table = format_estimator_accuracy(accuracy)
        assert "total_time" in table
