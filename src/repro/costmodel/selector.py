"""Adaptive strategy selection (the outer loop of Algorithm 1).

A selector is consulted at every pipeline breaker.  It observes the
current time ``C_t``, available memory ``M``, and the running time of
completed pipelines, measures the pipeline-level intermediate data size by
serializing the live global states (the step whose runtime Table V
reports), estimates process-image sizes at probed future suspension
points, and returns the strategy with the minimum expected cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.costmodel.io_model import IOModel
from repro.costmodel.model import CostInputs, StrategyCost, estimate_all
from repro.costmodel.termination import TerminationProfile
from repro.engine.controller import BoundaryContext
from repro.engine.profile import HardwareProfile
from repro.obs.audit import cost_to_json, time_key
from repro.obs.handle import Obs
from repro.storage import codec as codec_mod

__all__ = ["SelectorDecision", "AdaptiveStrategySelector"]


@dataclass
class SelectorDecision:
    """Outcome of one Algorithm 1 evaluation at a breaker."""

    chosen: str
    costs: dict[str, StrategyCost]
    decided_at: float
    runtime_seconds: float
    measured_state_bytes: int
    planned_suspension_time: float | None
    #: Journal sequence number of the matching ``decision`` record
    #: (``None`` when the selector runs without a journal attached).
    audit_seq: int | None = None


@dataclass
class AdaptiveStrategySelector:
    """Evaluates the cost model and picks a suspension strategy.

    ``process_size_estimator`` maps an execution-time fraction in ``[0,1]``
    to an estimated process-image size in bytes — typically the
    regression- or optimizer-based estimator bound to this query.
    ``estimated_total_time`` converts absolute probe times to fractions.
    """

    profile: HardwareProfile
    termination: TerminationProfile
    process_size_estimator: Callable[[float], float]
    estimated_total_time: float
    probe_step: float | None = None
    codec: str = "raw"
    obs: Obs = Obs.NONE
    #: Human-readable name of the bound size estimator ("regression",
    #: "optimizer", ...) recorded in journal entries.
    estimator_label: str = ""
    decisions: list[SelectorDecision] = field(default_factory=list)

    def decision_lead(self) -> float:
        """How far before the window decisions should start being considered.

        Long enough for a process-level suspension planned at the window
        start to persist before terminations become possible — Fig. 5's
        proactive evaluation.
        """
        total = max(self.estimated_total_time, 1e-9)
        fraction = min(1.0, self.termination.t_start / total)
        estimated = float(self.process_size_estimator(fraction))
        io = IOModel.from_profile(self.profile, codec=self.codec)
        return io.persist_latency(max(0.0, estimated)) * 1.5

    def decide(self, context: BoundaryContext) -> SelectorDecision:
        """Run Algorithm 1 at a pipeline breaker."""
        started = time.perf_counter()
        # Determining S^ppl requires serializing the live global states —
        # the dominant cost-model step for queries with large states
        # (Table V, Q17) — under the codec that would persist them, so
        # S^ppl shrinks with the encoded bytes (no-op for "raw").
        blobs, _ = codec_mod.serialize_all(
            list(context.executor.live_states().values()), self.codec
        )
        state_bytes = sum(len(blob) for blob in blobs)
        if not context.at_breaker and context.morsel_count:
            # A pipeline-level suspension planned from here fires at the
            # next breaker, where the in-flight pipeline's state has become
            # part of the live set — extrapolate its size to completion.
            progress = max(1, context.morsel_index) / context.morsel_count
            state_bytes += int(context.local_state_bytes / progress)

        available = max(0, self.profile.memory_bytes - context.memory_bytes)
        total = max(self.estimated_total_time, 1e-9)

        # Every probed (time → size) sample is recorded so the journal can
        # hand replays a lookup-backed estimator instead of the live one.
        size_samples: dict[str, float] = {}

        def estimate_process_bytes(at_time: float) -> float:
            estimated = float(self.process_size_estimator(min(1.0, at_time / total)))
            size_samples[time_key(at_time)] = estimated
            return estimated

        prior = total / max(1, context.total_pipelines)
        if context.at_breaker:
            breaker_delay = 0.0
        else:
            # Mid-pipeline proactive evaluation: extrapolate the wait until
            # the breaker from the current pipeline's own pace (elapsed time
            # over processed morsels), falling back to the plan prior.
            if context.stats.pipelines:
                pipeline_started = context.stats.pipelines[-1].finished_at
            else:
                pipeline_started = context.stats.started_at
            elapsed = max(0.0, context.clock_now - pipeline_started)
            if context.morsel_index > 0 and context.morsel_count > 0:
                remaining_morsels = context.morsel_count - context.morsel_index
                breaker_delay = elapsed * remaining_morsels / context.morsel_index
            else:
                breaker_delay = prior

        inputs = CostInputs(
            current_time=context.clock_now,
            available_memory=available,
            pipeline_time_sum=context.stats.total_pipeline_time,
            pipeline_count=context.stats.completed_pipeline_count,
            termination=self.termination,
            pipeline_state_bytes=state_bytes,
            process_size_estimator=estimate_process_bytes,
            io=IOModel.from_profile(self.profile, codec=self.codec),
            probe_step=self.probe_step
            if self.probe_step is not None
            else max(0.5, self.termination.width / 20.0),
            breaker_delay=breaker_delay,
            pipeline_time_prior=prior,
            proactive=not context.at_breaker,
        )
        costs = estimate_all(inputs)
        chosen = min(costs, key=lambda name: costs[name].cost)
        decision = SelectorDecision(
            chosen=chosen,
            costs=costs,
            decided_at=context.clock_now,
            runtime_seconds=time.perf_counter() - started,
            measured_state_bytes=state_bytes,
            planned_suspension_time=costs[chosen].planned_suspension_time,
        )
        self.decisions.append(decision)
        obs = self.obs
        if obs.journal is not None:
            # runtime_seconds is wall time and deliberately left out: journal
            # exports must stay byte-identical across runs of the same seed.
            record = obs.audit(
                "decision",
                context.executor.query_name,
                context.clock_now,
                chosen=chosen,
                costs={name: cost_to_json(costs[name]) for name in sorted(costs)},
                measured_state_bytes=state_bytes,
                planned_suspension_time=decision.planned_suspension_time,
                estimated_total_time=self.estimated_total_time,
                codec=self.codec,
                estimator=self.estimator_label,
                context={
                    "pipeline_id": context.pipeline_id,
                    "pipeline_pos": context.pipeline_pos,
                    "total_pipelines": context.total_pipelines,
                    "morsel_index": context.morsel_index,
                    "morsel_count": context.morsel_count,
                    "at_breaker": context.at_breaker,
                    "memory_bytes": context.memory_bytes,
                    "pipeline_state_bytes": context.pipeline_state_bytes,
                    "local_state_bytes": context.local_state_bytes,
                },
                inputs={
                    "current_time": inputs.current_time,
                    "available_memory": inputs.available_memory,
                    "pipeline_time_sum": inputs.pipeline_time_sum,
                    "pipeline_count": inputs.pipeline_count,
                    "termination": inputs.termination.to_json(),
                    "pipeline_state_bytes": inputs.pipeline_state_bytes,
                    "probe_step": inputs.probe_step,
                    "breaker_delay": inputs.breaker_delay,
                    "pipeline_time_prior": inputs.pipeline_time_prior,
                    "proactive": inputs.proactive,
                    "io": {
                        "write_bandwidth": inputs.io.write_bandwidth,
                        "read_bandwidth": inputs.io.read_bandwidth,
                        "fixed_overhead": inputs.io.fixed_overhead,
                        "codec": inputs.io.codec,
                        "codec_time_scale": inputs.io.codec_time_scale,
                    },
                    "process_size_samples": dict(sorted(size_samples.items())),
                },
            )
            decision.audit_seq = record.seq
        if obs.tracing:
            # runtime_seconds is wall time and deliberately left out: trace
            # exports must stay deterministic across runs.
            obs.instant(
                "decision",
                f"decide:{chosen}",
                context.clock_now,
                track="selector",
                chosen=chosen,
                costs={name: costs[name].cost for name in sorted(costs)},
                measured_state_bytes=state_bytes,
                planned_suspension_time=decision.planned_suspension_time,
                estimated_total_time=self.estimated_total_time,
                at_breaker=context.at_breaker,
                pipeline=context.pipeline_id,
            )
        obs.count("selector_decisions_total", strategy=chosen)
        obs.observe(
            "selector_state_bytes",
            state_bytes,
            buckets=(2.0**10, 2.0**15, 2.0**20, 2.0**25, 2.0**30),
        )
        return decision
