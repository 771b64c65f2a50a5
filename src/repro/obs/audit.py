"""Decision audit journal: a replayable "why" log for adaptive suspension.

PR 1's tracer answers *what* happened on the virtual timeline; this module
answers *why*.  Every suspend/resume deliberation — an Algorithm 1
evaluation, the controller action it produced, a suspension, a
termination landing, a scheduler placement — is appended to a
:class:`DecisionJournal` as a structured :class:`AuditRecord`.

Two properties make the journal more than a log:

* **Determinism** — records carry only virtual-clock timestamps and the
  serializable inputs of each deliberation (never wall time), so
  :meth:`DecisionJournal.to_jsonl` is byte-identical across runs of the
  same seed;
* **Replayability** — a ``decision`` record stores the *complete*
  :class:`~repro.costmodel.model.CostInputs` of its Algorithm 1 run,
  including the process-size estimates sampled at every probed suspension
  point, so :func:`replay_decision` re-runs the cost model purely from the
  journal and asserts it reproduces the live choice bit-for-bit — no
  catalog, no workload, no estimator needed.

Record kinds (the ``kind`` field):

================  ==========================================================
kind              emitted by
================  ==========================================================
``decision``      :class:`~repro.costmodel.selector.AdaptiveStrategySelector`
                  — one record per Algorithm 1 evaluation with the full
                  cost-model inputs, per-strategy estimates, and the choice
``action``        :class:`~repro.cloud.runner.AdaptiveController` — the
                  executor-facing action each decision resolved to
``suspend``       runner — the actual suspension point, with the measured
                  persisted bytes and persist latency
``resume``        runner — a reload completing, with its modelled latency
``termination``   :class:`~repro.suspend.controller.TerminationController`
                  — a simulated kill landing
``outcome``       runner — the measured actuals of a finished run (busy
                  time, overhead, persisted bytes), closing the loop on the
                  estimates recorded at decision time
``counterfactual``  ``repro why`` — measured actuals of a forced run of a
                  strategy the selector did *not* choose
``placement``     :class:`~repro.fleet.cluster.FleetCluster` — a query's
                  placement steps (preempt / complete) under its policy
``admission``     :class:`~repro.fleet.admission.AdmissionController` — one
                  record per arrival with the admit/shed verdict and the
                  queue depth it was judged against
``reclamation``   :class:`~repro.fleet.cluster.FleetCluster` — a simulated
                  spot reclamation hitting a worker mid-query
================  ==========================================================
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.obs.export import canonical_json

__all__ = [
    "AUDIT_KINDS",
    "AuditRecord",
    "DecisionJournal",
    "ReplayMismatch",
    "ReplayResult",
    "replay_decision",
    "replay_journal",
    "resolve_adaptive_action",
    "time_key",
]

#: Every record kind instrumented code may emit; ``append`` rejects others.
AUDIT_KINDS = frozenset(
    {
        "decision",
        "action",
        "suspend",
        "resume",
        "termination",
        "outcome",
        "counterfactual",
        "placement",
        # Plan-time optimizer rewrite (rule, target, detail); stamped at
        # ts=0.0 since rewriting happens before execution starts.
        "rewrite",
        # Fleet admission verdicts and spot reclamations.
        "admission",
        "reclamation",
        # SLO burn-rate alerts (repro.fleet.slo.SLOMonitor): error budget
        # burning faster than the configured threshold for a tenant class.
        "alert",
    }
)


def time_key(at_time: float) -> str:
    """Canonical dict key for a probed suspension time.

    ``repr`` of a Python float is shortest-round-trip, so the key both
    survives JSON and reconstructs the exact float for replay.
    """
    return repr(float(at_time))


@dataclass(frozen=True)
class AuditRecord:
    """One journaled deliberation on the virtual timeline."""

    seq: int
    ts: float
    kind: str
    query: str
    payload: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "query": self.query,
            "payload": self.payload,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "AuditRecord":
        return cls(
            seq=int(payload["seq"]),
            ts=float(payload["ts"]),
            kind=payload["kind"],
            query=payload["query"],
            payload=payload.get("payload", {}),
        )


class DecisionJournal:
    """Append-only store of :class:`AuditRecord` entries.

    Sequence numbers are assigned at append time and survive round trips
    through JSONL, so a journal reloaded from a :class:`SnapshotStore`
    after a resume keeps appending where the suspended run left off.
    """

    def __init__(self, records: list[AuditRecord] | None = None):
        self._records: list[AuditRecord] = list(records or [])
        self._next_seq = (
            max(r.seq for r in self._records) + 1 if self._records else 0
        )

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return f"DecisionJournal(records={len(self._records)})"

    # -- recording -----------------------------------------------------------
    def append(self, kind: str, query: str, ts: float, **payload) -> AuditRecord:
        """Append one record stamped at virtual time *ts*."""
        if kind not in AUDIT_KINDS:
            raise ValueError(f"unknown audit record kind {kind!r}")
        record = AuditRecord(
            seq=self._next_seq, ts=float(ts), kind=kind, query=query, payload=payload
        )
        self._next_seq += 1
        self._records.append(record)
        return record

    # -- inspection ----------------------------------------------------------
    @property
    def records(self) -> tuple[AuditRecord, ...]:
        return tuple(self._records)

    def by_kind(self, kind: str) -> list[AuditRecord]:
        return [r for r in self._records if r.kind == kind]

    def for_query(self, query: str) -> list[AuditRecord]:
        return [r for r in self._records if r.query == query]

    def decisions(self, query: str | None = None) -> list[AuditRecord]:
        return [
            r
            for r in self._records
            if r.kind == "decision" and (query is None or r.query == query)
        ]

    # -- serialization -------------------------------------------------------
    def to_jsonl(self) -> str:
        """Canonical JSON lines; byte-identical across same-seed runs."""
        lines = [canonical_json(r.to_json()) for r in self._records]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: str | os.PathLike) -> int:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(self.to_jsonl())
        return len(self._records)

    @classmethod
    def from_jsonl(cls, text: str) -> "DecisionJournal":
        records = [
            AuditRecord.from_json(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ]
        return cls(records)


def resolve_adaptive_action(
    chosen: str, at_breaker: bool, now: float, planned: float | None
) -> str:
    """Executor-facing action a selector decision resolves to.

    The single source of truth shared by the live
    :class:`~repro.cloud.runner.AdaptiveController` and by
    :func:`replay_journal`, so a replayed decision also re-derives the
    controller's action.
    """
    if chosen == "pipeline":
        return "suspend_pipeline" if at_breaker else "arm_pipeline"
    if chosen == "process":
        fire_at = now if planned is None else max(now, planned)
        return "suspend_process" if now >= fire_at else "defer_process"
    return "continue"


class ReplayMismatch(AssertionError):
    """A replayed deliberation diverged from the journaled live one."""


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one journaled decision."""

    seq: int
    query: str
    live_chosen: str
    replayed_chosen: str
    live_costs: dict
    replayed_costs: dict

    @property
    def matches(self) -> bool:
        return (
            self.live_chosen == self.replayed_chosen
            and self.live_costs == self.replayed_costs
        )


def _lookup_estimator(samples: dict):
    """Size estimator backed by the journaled probe samples."""

    def estimate(at_time: float) -> float:
        key = time_key(at_time)
        if key not in samples:
            raise ReplayMismatch(
                f"replay probed process size at t={at_time!r}, which the live "
                f"run never sampled (journaled points: {sorted(samples)})"
            )
        return float(samples[key])

    return estimate


def replay_decision(record: AuditRecord) -> ReplayResult:
    """Re-run Algorithm 1 purely from a journaled ``decision`` record.

    Reconstructs :class:`~repro.costmodel.model.CostInputs` from the
    record's ``inputs`` payload (the process-size estimator becomes a
    lookup over the journaled probe samples) and evaluates
    :func:`~repro.costmodel.model.estimate_all`.  Floats survive the JSONL
    round trip exactly (shortest-round-trip repr), so a faithful replay
    reproduces every cost bit-for-bit.
    """
    # Imported lazily: obs must stay importable without costmodel.
    from repro.costmodel.io_model import IOModel
    from repro.costmodel.model import CostInputs, estimate_all
    from repro.costmodel.termination import TerminationProfile

    if record.kind != "decision":
        raise ValueError(f"can only replay 'decision' records, got {record.kind!r}")
    inputs = record.payload["inputs"]
    cost_inputs = CostInputs(
        current_time=float(inputs["current_time"]),
        available_memory=int(inputs["available_memory"]),
        pipeline_time_sum=float(inputs["pipeline_time_sum"]),
        pipeline_count=int(inputs["pipeline_count"]),
        termination=TerminationProfile.from_json(inputs["termination"]),
        pipeline_state_bytes=int(inputs["pipeline_state_bytes"]),
        process_size_estimator=_lookup_estimator(inputs["process_size_samples"]),
        io=IOModel(**inputs["io"]),
        probe_step=float(inputs["probe_step"]),
        breaker_delay=float(inputs["breaker_delay"]),
        pipeline_time_prior=float(inputs["pipeline_time_prior"]),
        proactive=bool(inputs["proactive"]),
    )
    costs = estimate_all(cost_inputs)
    chosen = min(costs, key=lambda name: costs[name].cost)
    replayed_costs = {
        name: cost_to_json(costs[name]) for name in sorted(costs)
    }
    return ReplayResult(
        seq=record.seq,
        query=record.query,
        live_chosen=record.payload["chosen"],
        replayed_chosen=chosen,
        live_costs=record.payload["costs"],
        replayed_costs=replayed_costs,
    )


def cost_to_json(cost) -> dict:
    """Stable dict form of a :class:`~repro.costmodel.model.StrategyCost`.

    Infinities (a strategy whose state no longer fits memory) are encoded
    as the string ``"inf"`` so the journal stays strict JSON.
    """

    def number(value):
        if value is None:
            return None
        value = float(value)
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return value

    return {
        "strategy": cost.strategy,
        "cost": number(cost.cost),
        "termination_probability": number(cost.termination_probability),
        "persist_latency": number(cost.persist_latency),
        "reload_latency": number(cost.reload_latency),
        "planned_suspension_time": number(cost.planned_suspension_time),
        "details": {k: number(v) for k, v in sorted(cost.details.items())},
    }


def replay_journal(journal: DecisionJournal, strict: bool = True) -> list[ReplayResult]:
    """Replay every ``decision`` record (and check each ``action`` record).

    With ``strict=True`` (the default) the first divergence raises
    :class:`ReplayMismatch`; otherwise mismatching results are returned for
    inspection.  ``action`` records are verified against
    :func:`resolve_adaptive_action` applied to the replayed decision, so
    the controller's executor-facing behaviour is reproduced too.
    """
    results: list[ReplayResult] = []
    replayed_by_seq: dict[int, ReplayResult] = {}
    for record in journal.records:
        if record.kind == "decision":
            result = replay_decision(record)
            replayed_by_seq[record.seq] = result
            results.append(result)
            if strict and not result.matches:
                raise ReplayMismatch(
                    f"decision seq={record.seq} ({record.query}): live chose "
                    f"{result.live_chosen!r} with costs {result.live_costs}, "
                    f"replay chose {result.replayed_chosen!r} with costs "
                    f"{result.replayed_costs}"
                )
        elif record.kind == "action":
            decision_seq = record.payload.get("decision_seq")
            replayed = replayed_by_seq.get(decision_seq)
            if replayed is None:
                continue  # action for a decision outside this journal slice
            planned = record.payload.get("planned_suspension_time")
            derived = resolve_adaptive_action(
                replayed.replayed_chosen,
                bool(record.payload["at_breaker"]),
                float(record.ts),
                None if planned is None else float(planned),
            )
            if strict and derived != record.payload["action"]:
                raise ReplayMismatch(
                    f"action seq={record.seq} ({record.query}): live action "
                    f"{record.payload['action']!r}, replay derived {derived!r}"
                )
    return results
