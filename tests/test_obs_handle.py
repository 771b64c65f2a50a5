"""repro.obs.Obs: the one observability handle.

The handle declares the five sinks once, travels as one value and owns
routing (bound lifecycle tree vs flat tracer track) and absence (every
emitter is a no-op without its sink).  These tests pin the value
semantics, the exact events both routes produce, and — by spying on every
constructor that takes a handle — that one handle pushed into a driver
reaches everything the driver builds.
"""

import os
from collections import defaultdict

import pytest

from repro.cloud.runner import QueryRunner
from repro.costmodel.optimizer_est import OptimizerSizeEstimator
from repro.costmodel.selector import AdaptiveStrategySelector
from repro.costmodel.termination import TerminationProfile
from repro.dist import Coordinator, ShardSuspension, partition_catalog, split_plan
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.fleet import (
    AdmissionController,
    FleetCluster,
    SLOMonitor,
    generate_workload,
    make_policy,
    make_tenants,
)
from repro.obs import (
    DecisionJournal,
    MetricsRegistry,
    Obs,
    QueryProfiler,
    TimelineRecorder,
    TraceEvent,
    Tracer,
    derive_span_id,
    derive_trace_id,
)
from repro.optimizer import optimize_plan
from repro.suspend import QuerySession
from repro.suspend.controller import SuspensionRequestController
from repro.suspend.criu import SimulatedCriu
from repro.suspend.strategy import SuspensionStrategy
from repro.tpch import build_query
from tests.test_parallel_backend import HAVE_FORK, TEST_MORSEL_SIZE

SINKS = ("tracer", "metrics", "journal", "recorder")


def full_handle() -> Obs:
    metrics = MetricsRegistry()
    return Obs(
        tracer=Tracer(metrics=metrics),
        metrics=metrics,
        journal=DecisionJournal(),
        recorder=TimelineRecorder(),
    )


def assert_same_sinks(component, handle: Obs) -> None:
    for sink in SINKS:
        assert getattr(component.obs, sink) is getattr(handle, sink), (component, sink)


@pytest.fixture()
def built(monkeypatch):
    """Every handle-taking object constructed during the test, by class."""
    seen = defaultdict(list)
    for cls in (
        QueryExecutor,
        QuerySession,
        SuspensionStrategy,
        SimulatedCriu,
        SuspensionRequestController,
    ):
        def spy(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            _init(self, *args, **kwargs)
            seen[_cls].append(self)

        monkeypatch.setattr(cls, "__init__", spy)
    return seen


class TestValueSemantics:
    def test_of_returns_the_handle_itself(self):
        handle = Obs(tracer=Tracer())
        assert Obs.of(handle) is handle
        assert Obs.of(handle, metrics=None) is handle
        assert Obs.of(None) is Obs.NONE
        assert Obs.of() is Obs.NONE

    def test_of_replaces_given_sinks_only(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        handle = Obs(tracer=tracer)
        derived = Obs.of(handle, metrics=metrics)
        assert derived is not handle
        assert derived.tracer is tracer and derived.metrics is metrics
        assert handle.metrics is None  # frozen: the original is untouched

    def test_unknown_sink_is_a_type_error(self):
        with pytest.raises(TypeError, match="tracers"):
            Obs.of(None, tracers=Tracer())
        with pytest.raises(TypeError):
            Obs(tracers=Tracer())

    def test_flags_follow_the_sinks(self):
        assert not (Obs.NONE.tracing or Obs.NONE.recording or Obs.NONE.profiling)
        handle = Obs(tracer=Tracer(), recorder=TimelineRecorder(), profiler=QueryProfiler())
        assert handle.tracing and handle.recording and handle.profiling
        assert not Obs.of(Obs.NONE, metrics=MetricsRegistry()).tracing

    def test_none_methods_are_noops_returning_none(self):
        none = Obs.NONE
        assert none.span("query", "q", 0.0, 1.0, rows=1) is None
        assert none.instant("suspend", "s", 0.5, track="suspend") is None
        assert none.count("queries_total") is None
        assert none.count("bytes_total", 10, strategy="pipeline") is None
        assert none.observe("lag_seconds", 0.1) is None
        assert none.audit("suspend", "Q1", 0.5, strategy="pipeline") is None
        assert none.open_lifecycle("Q1", 0.0, category="cloud", strategy="x") is None
        assert none.bound(None) is none

    def test_emitters_reach_their_sinks(self):
        handle = full_handle()
        handle.count("bytes_total", 10, strategy="pipeline")
        handle.count("bytes_total", 5, strategy="pipeline")
        handle.observe("lag_seconds", 0.25)
        record = handle.audit("suspend", "Q1", 0.5, strategy="pipeline")
        assert handle.metrics.counter("bytes_total", strategy="pipeline").value == 15
        assert handle.metrics.histogram("lag_seconds").count == 1
        assert record is handle.journal.records[0] and record.kind == "suspend"

    def test_executor_defaults_to_the_shared_disabled_handle(self, tpch_tiny):
        executor = QueryExecutor(tpch_tiny, build_query("Q6"))
        assert executor.obs is Obs.NONE  # fleet_engine builds one per slice

    def test_executor_folds_its_legacy_keywords_through_of(self, tpch_tiny):
        tracer, metrics, profiler = Tracer(), MetricsRegistry(), QueryProfiler()
        journal = DecisionJournal()
        executor = QueryExecutor(
            tpch_tiny, build_query("Q6"), obs=Obs(journal=journal, tracer=Tracer()),
            tracer=tracer, metrics=metrics, profiler=profiler,
        )
        assert executor.obs.tracer is tracer  # the keyword overrides
        assert executor.obs.metrics is metrics and executor.obs.profiler is profiler
        assert executor.obs.journal is journal
        handle = Obs(tracer=tracer)
        assert QueryExecutor(tpch_tiny, build_query("Q6"), obs=handle).obs is handle


class TestRouting:
    ARGS = dict(strategy="pipeline", bytes=10)

    def test_unbound_span_lands_on_the_callers_flat_track(self):
        tracer = Tracer()
        handle = Obs(tracer=tracer)
        handle.span("persist", "persist:pipeline", 1.0, 3.0, track="suspend", **self.ARGS)
        handle.instant("suspend", "request:pipeline", 0.5, track="suspend", mode="pipeline")
        assert tracer.events == (
            TraceEvent(
                ts=1.0, category="persist", name="persist:pipeline", phase="X",
                dur=2.0, track="suspend", args=self.ARGS,
            ),
            TraceEvent(
                ts=0.5, category="suspend", name="request:pipeline", track="suspend",
                args={"mode": "pipeline"},
            ),
        )

    def test_bound_span_joins_the_tree_on_the_lifecycles_track(self):
        tracer, recorder = Tracer(), TimelineRecorder()
        handle = Obs(tracer=tracer, recorder=recorder)
        lifecycle = handle.open_lifecycle("Q3", 0.0, category="cloud", strategy="pipeline")
        bound = handle.bound(lifecycle)
        assert bound.lifecycle is lifecycle and bound.tracer is tracer
        assert bound.bound(None) == handle and handle.bound(None) is handle
        bound.span("persist", "persist:pipeline", 1.0, 3.0, track="suspend", **self.ARGS)
        bound.instant("suspend", "suspend", 1.0, track="suspend")
        trace_id = derive_trace_id("Q3")
        assert tracer.events == (
            TraceEvent(
                ts=1.0, category="persist", name="persist:pipeline", phase="X",
                dur=2.0, track="query:Q3", args=self.ARGS, trace_id=trace_id,
                span_id=derive_span_id(trace_id, 1), parent_id=lifecycle.root_id,
            ),
            TraceEvent(
                ts=1.0, category="suspend", name="suspend", track="query:Q3",
                args={}, trace_id=trace_id, span_id=derive_span_id(trace_id, 2),
                parent_id=lifecycle.root_id,
            ),
        )
        assert [span["name"] for span in recorder.spans] == ["persist:pipeline", "suspend"]

    def test_open_lifecycle_needs_a_tracer_or_a_recorder(self):
        assert Obs(metrics=MetricsRegistry(), journal=DecisionJournal()).open_lifecycle(
            "Q1", 0.0
        ) is None
        recorder = TimelineRecorder()
        lifecycle = Obs(recorder=recorder).open_lifecycle(
            "Q1", 2.0, trace_label="Q1@3", query="Q1", tenant="t0"
        )
        assert lifecycle.trace_id == derive_trace_id("Q1@3")
        lifecycle.finish(5.0)
        root = recorder.spans[-1]
        assert root["args"] == {"query": "Q1", "tenant": "t0"} and root["ts"] == 2.0


class TestRemovedKeywords:
    """No public constructor takes a sink positionally or by its old name."""

    @pytest.mark.parametrize("sink", SINKS)
    def test_drivers_reject_the_old_sink_keywords(self, tpch_tiny, tmp_path, sink):
        value = {sink: getattr(full_handle(), sink)}
        with pytest.raises(TypeError):
            AdmissionController(**value)
        with pytest.raises(TypeError):
            SLOMonitor(**value)
        with pytest.raises(TypeError):
            QueryRunner(tpch_tiny, snapshot_dir=tmp_path, **value)
        with pytest.raises(TypeError):
            Coordinator(partition_catalog(tpch_tiny, 2), snapshot_dir=tmp_path, **value)
        with pytest.raises(TypeError):
            FleetCluster(tpch_tiny, make_policy("fifo"), snapshot_dir=tmp_path, **value)

    def test_handles_are_keyword_only(self, tpch_tiny, tmp_path):
        handle = full_handle()
        with pytest.raises(TypeError):
            QueryRunner(tpch_tiny, HardwareProfile(), tmp_path, handle)
        with pytest.raises(TypeError):
            AdmissionController(4, None, None, handle)
        with pytest.raises(TypeError):
            SLOMonitor(0.95, 120.0, 2.0, handle)


class TestOneHandleReachesEverything:
    def test_runner_forced(self, tpch_tiny, tmp_path, built):
        handle = full_handle()
        runner = QueryRunner(tpch_tiny, snapshot_dir=tmp_path, obs=handle)
        plan = build_query("Q3")
        normal = runner.measure_normal(plan, "Q3").stats.duration
        for strategy in ("pipeline", "process"):
            outcome = runner.run_forced(plan, "Q3", strategy, normal, None, normal * 0.5)
            assert outcome.suspended
        assert len(built[QueryExecutor]) == 5  # measure + 2 x (suspended, resumed)
        assert len(built[SuspensionStrategy]) == 2 and len(built[SimulatedCriu]) == 1
        assert len(built[SuspensionRequestController]) == 2
        for cls in built:
            for component in built[cls]:
                assert_same_sinks(component, handle)
        # Only persist/reload spans join the per-run tree; executors,
        # controllers and CRIU report on the flat handle.
        for strategy in built[SuspensionStrategy]:
            assert strategy.obs.lifecycle is not None
        for cls in (QueryExecutor, SuspensionRequestController, SimulatedCriu):
            assert all(component.obs.lifecycle is None for component in built[cls])
        labels = {s.obs.lifecycle.trace_id for s in built[SuspensionStrategy]}
        assert labels == {derive_trace_id("Q3@0"), derive_trace_id("Q3@1")}

    def test_runner_adaptive(self, tpch_tiny, tmp_path, built):
        handle = full_handle()
        runner = QueryRunner(tpch_tiny, snapshot_dir=tmp_path, obs=handle)
        plan = build_query("Q17")
        normal = runner.measure_normal(plan, "Q17").stats.duration
        termination = TerminationProfile.from_fractions(normal, 0.5, 0.75, 1.0)
        estimator = OptimizerSizeEstimator(tpch_tiny)
        selector = AdaptiveStrategySelector(
            profile=runner.profile,
            termination=termination,
            process_size_estimator=lambda f: estimator.estimate_bytes(plan, f),
            estimated_total_time=normal,
            obs=handle,
        )
        outcome = runner.run_adaptive(plan, "Q17", selector, normal, termination.t_end * 0.9)
        assert outcome.suspended and selector.decisions
        assert_same_sinks(selector, handle)
        assert built[SuspensionStrategy], "the session derives the strategy"
        for cls in built:
            for component in built[cls]:
                assert_same_sinks(component, handle)
        kinds = {record.kind for record in handle.journal.records}
        assert {"decision", "action", "suspend", "resume", "outcome"} <= kinds
        assert handle.metrics.histogram("estimator_error_seconds").count == 1

    def test_coordinator_with_shard_suspension(self, tpch_tiny, tmp_path, built):
        handle = full_handle()
        sharded = partition_catalog(tpch_tiny, 2)
        dist = split_plan(sharded, optimize_plan(tpch_tiny, build_query("Q12")).plan)
        coordinator = Coordinator(
            sharded, obs=handle, snapshot_dir=tmp_path, select_operators=True
        )
        result = coordinator.run(
            dist, "Q12", suspend=ShardSuspension(strategy="pipeline", suspend_at=0.5)
        )
        assert result.victim_outcome.suspended
        for runner in coordinator.runners:
            assert runner.obs is handle
        assert built[SuspensionStrategy] and built[SuspensionRequestController]
        for cls in built:
            for component in built[cls]:
                assert_same_sinks(component, handle)
        assert {e.track for e in handle.tracer.by_category("exchange")} == {
            "shard0", "shard1", "coordinator"
        }

    @pytest.mark.parametrize("fidelity", ["engine", "macro"])
    def test_fleet_cluster(self, tpch_tiny, tmp_path, built, fidelity):
        handle = full_handle()
        admission = AdmissionController(max_queue_depth=8)
        cluster = FleetCluster(
            tpch_tiny,
            make_policy("suspend-aware"),
            workers=2,
            seed=7,
            admission=admission,
            snapshot_dir=tmp_path,
            mean_on_seconds=180.0,
            mean_off_seconds=30.0,
            obs=handle,
            slo=SLOMonitor(obs=handle),
            fidelity=fidelity,
        )
        arrivals = generate_workload(make_tenants(3, 7), 600.0, 7)
        result = cluster.run(arrivals, 600.0)
        assert result.completions
        assert cluster.obs is handle and cluster.slo.obs is handle
        assert admission.obs is handle
        # The shared strategy counts suspensions but stays off the trace, and
        # slices run unobserved: macro fidelity could replay neither.
        assert built[SuspensionStrategy] == [cluster.strategy]
        assert cluster.strategy.obs == Obs(metrics=handle.metrics)
        for controller in built[SuspensionRequestController]:
            assert controller.obs == Obs(metrics=handle.metrics)
        assert all(executor.obs is Obs.NONE for executor in built[QueryExecutor])
        assert all(session.obs is Obs.NONE for session in built[QuerySession])
        assert (fidelity == "engine") == bool(built[QuerySession])
        assert not any(
            event.name.startswith(("request:", "suspend:", "persist:"))
            for event in handle.tracer.events
            if event.trace_id is None
        )
        assert handle.journal.by_kind("admission") and handle.journal.by_kind("placement")


class TestFleetAdmissionHandle:
    def arrival(self):
        return generate_workload(make_tenants(3, 7), 600.0, 7)[0]

    def test_cluster_level_journal_reaches_admission_verdicts(self, tpch_tiny, tmp_path):
        """Regression: the cluster used to backfill the tracer only."""
        journal, metrics = DecisionJournal(), MetricsRegistry()
        cluster = FleetCluster(
            tpch_tiny,
            make_policy("suspend-aware"),
            admission=AdmissionController(max_queue_depth=8),
            snapshot_dir=tmp_path,
            obs=Obs(journal=journal, metrics=metrics),
            fidelity="macro",
        )
        arrivals = generate_workload(make_tenants(3, 7), 300.0, 7)
        cluster.run(arrivals, 300.0)
        assert len(journal.by_kind("admission")) == len(arrivals)
        assert journal.by_kind("placement")
        admitted = sum(
            metric.value for key, metric in metrics.items()
            if key.startswith("fleet_admitted_total")
        )
        assert admitted == len(arrivals) - len(cluster.admission.rejections)

    def test_an_admission_controller_built_with_a_handle_keeps_it(self, tpch_tiny, tmp_path):
        own, cluster_journal = DecisionJournal(), DecisionJournal()
        admission = AdmissionController(max_queue_depth=8, obs=Obs(journal=own))
        cluster = FleetCluster(
            tpch_tiny,
            make_policy("fifo"),
            admission=admission,
            snapshot_dir=tmp_path,
            obs=Obs(journal=cluster_journal, tracer=Tracer()),
            fidelity="macro",
        )
        assert admission.obs.journal is own and admission.obs.tracer is None
        cluster.run(generate_workload(make_tenants(3, 7), 300.0, 7), 300.0)
        assert own.by_kind("admission") and not cluster_journal.by_kind("admission")


@pytest.mark.skipif(not HAVE_FORK, reason="parallel backend requires fork")
def test_forked_workers_report_through_the_inherited_profiler(tpch_tiny):
    profiler = QueryProfiler()
    QueryExecutor(
        tpch_tiny,
        build_query("Q1"),
        query_name="Q1",
        backend="parallel",
        morsel_size=TEST_MORSEL_SIZE,
        obs=Obs(profiler=profiler),
    ).run()
    envelope = profiler.to_json()
    forked = [worker for worker in envelope["workers"] if worker["pid"] != os.getpid()]
    assert forked, "forked workers must report wall telemetry"
    assert sum(worker["morsels"] for worker in forked) > 0
