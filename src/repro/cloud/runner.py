"""Query runner: executes queries under termination threats.

Orchestrates the interplay the paper evaluates in §IV-B:

* **forced-strategy runs** (Fig. 10): the strategy is fixed, the
  suspension is requested when the threat window opens, and a sampled
  termination may kill the query before the suspension completes;
* **adaptive runs** (Fig. 11, Table III, Fig. 12): Algorithm 1 is
  evaluated at pipeline breakers as the window approaches and the chosen
  strategy is executed.

The runner measures *busy time* — execution plus suspension/resumption
work, excluding the suspended away-gap — so ``overhead = busy − normal``
matches the paper's overhead metric.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from pathlib import Path

from repro.costmodel.selector import AdaptiveStrategySelector, SelectorDecision
from repro.engine.config import ExecutionConfig
from repro.engine.controller import Action, BoundaryContext, ExecutionController
from repro.engine.executor import QueryResult
from repro.engine.plan import PlanNode
from repro.engine.profile import HardwareProfile
from repro.obs.audit import resolve_adaptive_action
from repro.obs.handle import Obs
from repro.suspend.controller import CompositeController, TerminationController
from repro.suspend.session import QuerySession, make_strategy
from repro.suspend.store import SnapshotStore
from repro.suspend.strategy import SuspensionStrategy
from repro.storage.catalog import Catalog

__all__ = ["RunOutcome", "QueryRunner", "AdaptiveController", "make_strategy"]


@dataclass
class RunOutcome:
    """Measured outcome of one execution under a termination threat."""

    query_name: str
    strategy: str
    normal_time: float
    busy_time: float
    completed: bool = True
    suspended: bool = False
    suspension_failed: bool = False
    terminated: bool = False
    termination_time: float | None = None
    suspended_at: float | None = None
    intermediate_bytes: int = 0
    persist_latency: float = 0.0
    reload_latency: float = 0.0
    decision: SelectorDecision | None = None
    result: QueryResult | None = None

    @property
    def overhead(self) -> float:
        """Extra busy time caused by the threat (the paper's Fig. 10 metric)."""
        return self.busy_time - self.normal_time


class AdaptiveController(ExecutionController):
    """Runs Algorithm 1's selection loop during execution.

    Following the paper's proactive design (Fig. 5, Algorithm 1 line 3),
    the cost model is re-evaluated at *every* pipeline breaker while the
    threat window is ahead or open; a ``redo`` outcome simply defers the
    question to the next breaker.  Queries dominated by one long pipeline
    may not reach a breaker before the window — for those the controller
    also evaluates at morsel boundaries once the window start is within
    the selector's decision lead (a pipeline-level choice made there is
    armed and fires at the next breaker).
    """

    def __init__(self, selector: AdaptiveStrategySelector):
        self.selector = selector
        self.decision: SelectorDecision | None = None
        self.pending_process_time: float | None = None
        self.pipeline_armed = False
        self.suspended_at: float | None = None
        self._lead: float | None = None
        self._next_morsel_decision = 0.0

    @property
    def committed(self) -> bool:
        """Whether a suspension has been scheduled."""
        return self.pipeline_armed or self.pending_process_time is not None

    def _window_relevant(self, now: float) -> bool:
        return now <= self.selector.termination.t_end

    def _act(self, context: BoundaryContext, at_breaker: bool) -> Action:
        decision = self.selector.decide(context)
        self.decision = decision
        now = context.clock_now
        planned = decision.planned_suspension_time
        # The journal's resolver is the single source of truth for how a
        # chosen strategy maps to an executor action, so `repro why --replay`
        # re-derives the exact same behaviour from the journaled decision.
        resolved = resolve_adaptive_action(decision.chosen, at_breaker, now, planned)
        self.selector.obs.audit(
            "action",
            context.executor.query_name,
            now,
            decision_seq=decision.audit_seq,
            at_breaker=at_breaker,
            planned_suspension_time=planned,
            action=resolved,
        )
        if resolved == "suspend_pipeline":
            self.suspended_at = now
            return Action.SUSPEND_PIPELINE
        if resolved == "arm_pipeline":
            self.pipeline_armed = True
            return Action.CONTINUE
        if resolved in ("suspend_process", "defer_process"):
            self.pending_process_time = now if planned is None else max(now, planned)
            if resolved == "suspend_process":
                self.suspended_at = now
                return Action.SUSPEND_PROCESS
        return Action.CONTINUE  # redo: keep going, re-evaluate later

    def on_morsel_boundary(self, context: BoundaryContext) -> Action:
        now = context.clock_now
        if self.pending_process_time is not None and now >= self.pending_process_time:
            self.suspended_at = now
            return Action.SUSPEND_PROCESS
        if self.committed or not self._window_relevant(now):
            return Action.CONTINUE
        if self._lead is None:
            self._lead = self.selector.decision_lead()
        if now < self.selector.termination.t_start - self._lead:
            return Action.CONTINUE
        if now < self._next_morsel_decision:
            return Action.CONTINUE
        # Re-evaluating at every morsel would be wasteful; throttle redo
        # re-decisions to the cost model's probe step.
        self._next_morsel_decision = now + max(
            0.25, self.selector.probe_step or self.selector.termination.width / 20.0
        )
        return self._act(context, at_breaker=False)

    def on_pipeline_breaker(self, context: BoundaryContext) -> Action:
        now = context.clock_now
        if context.pipeline_pos == context.total_pipelines - 1:
            return Action.CONTINUE  # final pipeline: the query is done
        if self.pipeline_armed:
            self.suspended_at = now
            return Action.SUSPEND_PIPELINE
        if self.pending_process_time is not None:
            if now >= self.pending_process_time:
                self.suspended_at = now
                return Action.SUSPEND_PROCESS
            return Action.CONTINUE
        if not self._window_relevant(now):
            return Action.CONTINUE
        return self._act(context, at_breaker=True)


class QueryRunner:
    """Runs queries under simulated terminations with a chosen strategy."""

    def __init__(
        self,
        catalog: Catalog,
        profile: HardwareProfile | None = None,
        snapshot_dir: str | os.PathLike = ".riveter-snapshots",
        *,
        obs: Obs | None = None,
        store: "SnapshotStore | None" = None,
        exchange_inputs: dict | None = None,
        config: ExecutionConfig | None = None,
        **options,
    ):
        self.catalog = catalog
        self.profile = profile if profile is not None else HardwareProfile()
        self.snapshot_dir = Path(snapshot_dir)
        #: The forced, adaptive, and resumed runs all share one execution
        #: configuration so snapshots stay compatible.
        self.config = ExecutionConfig.of(config, **options)
        #: Where every session, executor and strategy this runner builds
        #: reports.  With a tracer or recorder each run grows a causal
        #: lifecycle tree on the busy timeline; to the journal (shared with
        #: the selector in adaptive runs) the runner adds the lifecycle
        #: records (suspend/resume/outcome/...).
        self.obs = Obs.of(obs)
        self._runs = itertools.count()
        #: Optional durable home for snapshots *and* the journal, so a
        #: resumed query keeps its full decision history.
        self.store = store
        #: Gather-exchange inputs for plans containing ShuffleRead leaves
        #: (repro.dist): supplied to every executor this runner builds,
        #: including the fresh executor a resume constructs.
        self.exchange_inputs = exchange_inputs

    # -- lifecycle ------------------------------------------------------------
    def _open(self, query_name: str, strategy_name: str) -> Obs:
        """The handle of the run about to start, bound to its causal span tree.

        Roots are on the *busy* timeline (virtual zero at query start).
        The trace label carries a per-runner sequence number so a sweep
        that runs the same query repeatedly still yields unique,
        deterministic trace ids.  Unobserved, this is ``self.obs``.
        """
        return self.obs.bound(
            self.obs.open_lifecycle(
                query_name,
                0.0,
                category="cloud",
                trace_label=f"{query_name}@{next(self._runs)}",
                strategy=strategy_name,
            )
        )

    # -- baselines -----------------------------------------------------------
    def measure_normal(self, plan: PlanNode, query_name: str) -> QueryResult:
        """Run without any threat; the paper's "normal execution time"."""
        return self._session(plan, query_name, self.obs, None).run_slice().result

    # -- forced strategy -------------------------------------------------------
    def run_forced(
        self,
        plan: PlanNode,
        query_name: str,
        strategy_name: str,
        normal_time: float,
        termination_time: float | None,
        request_time: float,
    ) -> RunOutcome:
        """Fixed strategy; suspension requested at *request_time*.

        ``termination_time`` is the sampled kill time (``None`` when the
        probabilistic termination does not occur).
        """
        obs = self._open(query_name, strategy_name)
        strategy = make_strategy(strategy_name, self.profile, obs=obs, config=self.config)
        controllers: list[ExecutionController] = [TerminationController(termination_time)]
        request = strategy.make_request_controller(request_time)
        if request is not None:
            controllers.append(request)
        return self._drive(
            plan,
            RunOutcome(query_name, strategy_name, normal_time, 0.0, termination_time=termination_time),
            obs,
            strategy,
            CompositeController(controllers),
        )

    # -- adaptive ---------------------------------------------------------------
    def run_adaptive(
        self,
        plan: PlanNode,
        query_name: str,
        selector: AdaptiveStrategySelector,
        normal_time: float,
        termination_time: float | None,
    ) -> RunOutcome:
        """Algorithm 1 decides if/when/how to suspend."""
        adaptive = AdaptiveController(selector)
        return self._drive(
            plan,
            RunOutcome(query_name, "adaptive", normal_time, 0.0, termination_time=termination_time),
            self._open(query_name, "adaptive"),
            None,
            CompositeController([TerminationController(termination_time), adaptive]),
            adaptive,
        )

    # -- internals -------------------------------------------------------------
    def _session(
        self, plan: PlanNode, query_name: str, obs: Obs, strategy: SuspensionStrategy | None
    ) -> QuerySession:
        return QuerySession(
            self.catalog,
            plan,
            query_name,
            self.snapshot_dir,
            self.profile,
            strategy=strategy,
            store=self.store,
            obs=obs,
            exchange_inputs=self.exchange_inputs,
            config=self.config,
        )

    def _save_journal(self, query_name: str) -> None:
        """Persist the journal next to the snapshots (when both exist)."""
        if self.store is not None and self.obs.journal is not None:
            self.store.save_journal(query_name, self.obs.journal)

    def _drive(
        self,
        plan: PlanNode,
        outcome: RunOutcome,
        obs: Obs,
        strategy: SuspensionStrategy | None,
        controller: ExecutionController | None,
        adaptive: AdaptiveController | None = None,
    ) -> RunOutcome:
        """The one run loop: a slice under *controller*, then threat-free ones.

        Busy time keeps clock origin 0 per slice and accumulates
        ``persist end + reload + slice clock`` left to right.  The kill
        beats a snapshot whose persist finishes at or after it
        (``>=``): the suspension failed and the run restarts from
        scratch, because the slice is never committed.  *obs* is this
        run's handle (:meth:`_open`) and *strategy* was built with it: its
        spans join the run's tree, and without a tree there is no tracer
        for them to fall back to.
        """
        query_name = outcome.query_name
        session = self._session(plan, query_name, obs, strategy)
        while True:
            base = outcome.busy_time
            piece = session.run_slice(controller)
            controller = None
            if adaptive is not None:
                outcome.decision = adaptive.decision
                if adaptive.decision is not None:
                    outcome.strategy = adaptive.decision.chosen
                if piece.kind != "terminate":
                    # How far off the total-time estimate Algorithm 1
                    # worked from was.
                    self.obs.observe(
                        "estimator_error_seconds",
                        abs(adaptive.selector.estimated_total_time - outcome.normal_time),
                    )
                adaptive = None
            if piece.kind == "terminate":
                return self._rerun_after_termination(outcome, session, piece.killed_at)
            outcome.busy_time += piece.end
            obs.span("cloud", "run:resumed" if outcome.suspended else "run", base, outcome.busy_time)
            if piece.kind == "complete":
                outcome.result = piece.result
                return self._record_outcome(outcome, obs.lifecycle)
            obs.instant("suspend", "suspend", outcome.busy_time, strategy=outcome.strategy)
            persisted = session.persist(piece)
            outcome.suspended = True
            outcome.suspended_at = persisted.suspended_at
            outcome.intermediate_bytes = max(
                outcome.intermediate_bytes, persisted.intermediate_bytes
            )
            outcome.persist_latency += persisted.persist_latency
            self.obs.audit(
                "suspend",
                query_name,
                outcome.busy_time,
                strategy=outcome.strategy,
                intermediate_bytes=persisted.intermediate_bytes,
                persist_latency=persisted.persist_latency,
                codec=persisted.codec,
            )
            outcome.busy_time += persisted.persist_latency
            termination_time = outcome.termination_time
            if termination_time is not None and outcome.busy_time >= termination_time:
                # The kill arrived before the snapshot hit stable storage.
                outcome.suspension_failed = True
                return self._rerun_after_termination(outcome, session, termination_time)
            session.commit(piece)
            # Persist the journal *at the suspension point*: if the process
            # goes away before resuming, the decision history survives with
            # the snapshot.
            self._save_journal(query_name)
            reload = session.reload()
            outcome.reload_latency += reload
            outcome.busy_time += reload
            self.obs.audit(
                "resume",
                query_name,
                outcome.busy_time,
                strategy=outcome.strategy,
                reload_latency=reload,
            )

    def _record_outcome(self, outcome: RunOutcome, lifecycle) -> RunOutcome:
        """Roll the finished run into the trace/metrics (accumulated cost)."""
        obs = self.obs
        obs.audit(
            "outcome",
            outcome.query_name,
            outcome.busy_time,
            strategy=outcome.strategy,
            normal_time=outcome.normal_time,
            busy_time=outcome.busy_time,
            overhead=outcome.overhead,
            completed=outcome.completed,
            suspended=outcome.suspended,
            suspension_failed=outcome.suspension_failed,
            terminated=outcome.terminated,
            termination_time=outcome.termination_time,
            suspended_at=outcome.suspended_at,
            intermediate_bytes=outcome.intermediate_bytes,
            persist_latency=outcome.persist_latency,
            reload_latency=outcome.reload_latency,
        )
        self._save_journal(outcome.query_name)
        obs.count("runs_total", strategy=outcome.strategy)
        obs.count("busy_seconds_total", outcome.busy_time)
        obs.count("overhead_seconds_total", max(0.0, outcome.overhead))
        if outcome.terminated:
            obs.count("terminations_total")
        if outcome.suspension_failed:
            obs.count("suspension_failures_total")
        obs.instant(
            "cloud",
            f"run:{outcome.query_name}:{outcome.strategy}",
            outcome.busy_time,
            track="cloud",
            strategy=outcome.strategy,
            busy_time=outcome.busy_time,
            overhead=outcome.overhead,
            suspended=outcome.suspended,
            terminated=outcome.terminated,
            suspension_failed=outcome.suspension_failed,
            intermediate_bytes=outcome.intermediate_bytes,
        )
        if lifecycle is not None:
            lifecycle.finish(
                outcome.busy_time,
                strategy=outcome.strategy,
                normal_time=outcome.normal_time,
                overhead=outcome.overhead,
                completed=outcome.completed,
                suspended=outcome.suspended,
                suspension_failed=outcome.suspension_failed,
                terminated=outcome.terminated,
            )
        if obs.recording:
            obs.recorder.add_completion(
                {
                    "name": outcome.query_name,
                    "strategy": outcome.strategy,
                    "arrival_time": 0.0,
                    "finished_at": outcome.busy_time,
                    "latency": outcome.busy_time,
                    "normal_time": outcome.normal_time,
                    "overhead": outcome.overhead,
                    "suspended": outcome.suspended,
                    "terminated": outcome.terminated,
                }
            )
        return outcome

    def _rerun_after_termination(
        self, outcome: RunOutcome, session: QuerySession, killed_at: float
    ) -> RunOutcome:
        """Progress lost at *killed_at*; re-run from scratch, threat-free."""
        query_name = outcome.query_name
        outcome.terminated = True
        self.obs.audit(
            "termination",
            query_name,
            killed_at,
            strategy=outcome.strategy,
            killed_at=killed_at,
            suspension_failed=outcome.suspension_failed,
        )
        self.obs.instant(
            "termination",
            f"kill:{query_name}",
            killed_at,
            track="cloud",
            strategy=outcome.strategy,
            suspension_failed=outcome.suspension_failed,
        )
        obs = session.obs  # the run's handle: these join its tree
        # The failed-suspension path already booked its run span up to the
        # suspension point; a plain kill loses the whole stretch.
        if not outcome.suspension_failed:
            obs.span("cloud", "run", 0.0, killed_at, lost=True)
        obs.instant(
            "termination", "termination", killed_at, suspension_failed=outcome.suspension_failed
        )
        # Nothing was committed, so the session starts over.
        piece = session.run_slice()
        outcome.busy_time = killed_at + piece.end
        outcome.result = piece.result
        obs.span("cloud", "rerun", killed_at, outcome.busy_time)
        return self._record_outcome(outcome, obs.lifecycle)
