"""Experiment drivers — one per figure/table of the paper's evaluation.

Every ``run_*`` function regenerates the data behind a paper artifact:

========  ======================================================================
fig6      process-level image size, 22 queries × 3 SFs, suspend @50%
fig7      process-level image size vs suspension point (30/60/90%)
fig8      pipeline-level persisted size, 22 queries × 3 SFs, request @50%
fig9      time lag between suspension request and pipeline-level suspension
fig10     overhead distributions of the three strategies across windows, P=100%
fig11     adaptive selection success rate per window
fig12     optimizer-based estimation misleading Q17's strategy selection
table2    query characterization (core operators, table counts)
table3    adaptive selection per query configuration
table4    regression vs optimizer estimate vs ground truth
table5    cost-model running time
========  ======================================================================

Functions accept an :class:`ExperimentConfig`; the defaults reproduce the
paper's setup at laptop scale, while the benchmarks pass reduced settings
for quick regression runs.  All randomness is seeded; results are
deterministic for a given configuration.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cloud.events import sample_events
from repro.cloud.runner import QueryRunner, RunOutcome
from repro.costmodel.optimizer_est import OptimizerSizeEstimator
from repro.costmodel.regression import (
    RegressionSizeEstimator,
    TrainingSample,
    extract_features,
)
from repro.costmodel.selector import AdaptiveStrategySelector
from repro.costmodel.termination import TerminationProfile
from repro.engine.config import ExecutionConfig
from repro.engine.plan import count_operators, referenced_tables
from repro.engine.profile import HardwareProfile
from repro.storage.catalog import Catalog
from repro.suspend.controller import SuspensionRequestController
from repro.suspend.session import QuerySession
from repro.tpch.dbgen import generate_catalog
from repro.tpch.queries import QUERY_NAMES, build_query
from repro.tpch.scale import PAPER_SF_LABELS, ScalePolicy

__all__ = [
    "ExperimentConfig",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "train_regression_estimator",
    "HIGHLIGHT_QUERIES",
    "FIG10_WINDOWS",
]

HIGHLIGHT_QUERIES = ["Q1", "Q3", "Q17", "Q21"]
FIG10_WINDOWS = [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]

# Both simulated execution time and intermediate-data sizes scale linearly
# with the data ratio, so the persist-latency / execution-time ratio is kept
# faithful to the paper by ONE constant bandwidth stretch — the reference
# data ratio — independent of the scale chosen for a particular run.
IO_TIME_SCALE = 1.0 / 1000.0

# A real CRIU image carries a fixed process context worth well under a
# second of disk time; on the stretched timeline the context bytes are sized
# to cost the same ~0.5 s regardless of the data scale.
CONTEXT_PERSIST_SECONDS = 0.5

_CATALOG_CACHE: dict[tuple[float, int], Catalog] = {}
_NORMAL_CACHE: dict[tuple[float, str, ExecutionConfig], float] = {}


@dataclass
class ExperimentConfig:
    """Shared knobs for all experiment drivers."""

    scale_policy: ScalePolicy = field(default_factory=ScalePolicy)
    sf_labels: list[str] = field(default_factory=lambda: list(PAPER_SF_LABELS))
    queries: list[str] = field(default_factory=lambda: list(QUERY_NAMES))
    runs: int = 3
    profile: HardwareProfile | None = None
    snapshot_dir: str | None = None
    seed: int = 42
    #: execution configuration of every runner and session built here
    config: ExecutionConfig | None = None

    def __post_init__(self) -> None:
        self.config = ExecutionConfig.of(self.config)
        if self.profile is None:
            base = HardwareProfile()
            context = int(
                CONTEXT_PERSIST_SECONDS * base.disk_write_bandwidth * IO_TIME_SCALE
            )
            self.profile = replace(
                base,
                io_time_scale=IO_TIME_SCALE,
                process_context_bytes=max(context, 64 * 1024),
            )

    def catalog(self, sf_label: str) -> Catalog:
        """Catalog for a paper SF label, cached across experiments."""
        scale = self.scale_policy.local_scale(sf_label)
        key = (scale, 19940701)
        if key not in _CATALOG_CACHE:
            _CATALOG_CACHE[key] = generate_catalog(scale)
        return _CATALOG_CACHE[key]

    def runner(self, sf_label: str) -> QueryRunner:
        directory = self.snapshot_dir or tempfile.mkdtemp(prefix="riveter-")
        return QueryRunner(
            self.catalog(sf_label),
            self.profile,
            snapshot_dir=directory,
            config=self.config,
        )

    def normal_time(self, sf_label: str, query: str) -> float:
        """Normal (threat-free) execution time, cached."""
        scale = self.scale_policy.local_scale(sf_label)
        key = (scale, query, self.config)
        if key not in _NORMAL_CACHE:
            result = self.runner(sf_label).measure_normal(build_query(query), query)
            _NORMAL_CACHE[key] = result.stats.duration
        return _NORMAL_CACHE[key]


def _suspend_capture(
    config: ExperimentConfig, sf_label: str, query: str, fraction: float, mode: str
):
    """Run *query* and capture its state at *fraction* of execution time.

    Returns ``(capture, controller)``; ``capture`` is ``None`` when the
    query finished before the request could be honoured.
    """
    normal = config.normal_time(sf_label, query)
    controller = SuspensionRequestController(normal * fraction, mode=mode)
    # The capture is measured, never persisted: the directory stays untouched.
    session = QuerySession(
        config.catalog(sf_label),
        build_query(query),
        query,
        config.snapshot_dir or tempfile.gettempdir(),
        config.profile,
        config=config.config,
    )
    return session.run_slice(controller).capture, controller


# ---------------------------------------------------------------------------
# Fig. 6 / Fig. 7 — process-level intermediate data sizes
# ---------------------------------------------------------------------------

def run_fig6(config: ExperimentConfig | None = None) -> dict[str, dict[str, int]]:
    """Process-level image size per query per SF, suspended @50%."""
    config = config or ExperimentConfig()
    sizes: dict[str, dict[str, int]] = {}
    for sf_label in config.sf_labels:
        sizes[sf_label] = {}
        for query in config.queries:
            capture, _ = _suspend_capture(config, sf_label, query, 0.5, "process")
            if capture is None:
                sizes[sf_label][query] = 0
            else:
                sizes[sf_label][query] = (
                    capture.memory_bytes + config.profile.process_context_bytes
                )
    return sizes


def run_fig7(
    config: ExperimentConfig | None = None,
    fractions: tuple[float, ...] = (0.3, 0.6, 0.9),
    sf_label: str = "SF-100",
) -> dict[str, dict[float, int]]:
    """Process-level image size vs suspension point for the highlight queries."""
    config = config or ExperimentConfig()
    queries = [q for q in HIGHLIGHT_QUERIES if q in config.queries] or config.queries
    sizes: dict[str, dict[float, int]] = {}
    for query in queries:
        sizes[query] = {}
        for fraction in fractions:
            capture, _ = _suspend_capture(config, sf_label, query, fraction, "process")
            if capture is None:
                sizes[query][fraction] = 0
            else:
                sizes[query][fraction] = (
                    capture.memory_bytes + config.profile.process_context_bytes
                )
    return sizes


# ---------------------------------------------------------------------------
# Fig. 8 / Fig. 9 — pipeline-level sizes and suspension lag
# ---------------------------------------------------------------------------

def run_fig8(config: ExperimentConfig | None = None) -> dict[str, dict[str, dict]]:
    """Pipeline-level persisted size per query per SF, requested @50%.

    Each cell records the serialized live-state bytes and whether the
    suspension landed after a join-build pipeline (the queries the paper
    marks in blue: join-ending pipelines persist large hash tables).
    """
    config = config or ExperimentConfig()
    out: dict[str, dict[str, dict]] = {}
    for sf_label in config.sf_labels:
        out[sf_label] = {}
        for query in config.queries:
            capture, controller = _suspend_capture(config, sf_label, query, 0.5, "pipeline")
            if capture is None:
                out[sf_label][query] = {"bytes": 0, "suspended": False, "join_ending": False}
                continue
            blobs = {pid: s.serialize() for pid, s in capture.live_states().items()}
            last = capture.stats.pipelines[-1].description if capture.stats.pipelines else ""
            out[sf_label][query] = {
                "bytes": sum(len(b) for b in blobs.values()),
                "suspended": True,
                "join_ending": last.endswith("build"),
                "lag": controller.lag,
            }
    return out


def run_fig9(
    config: ExperimentConfig | None = None, fraction: float = 0.5
) -> dict[str, dict[str, float]]:
    """Time lag between the suspension request and the actual suspension."""
    config = config or ExperimentConfig()
    queries = [q for q in HIGHLIGHT_QUERIES if q in config.queries] or config.queries
    lags: dict[str, dict[str, float]] = {}
    for sf_label in config.sf_labels:
        lags[sf_label] = {}
        for query in queries:
            capture, controller = _suspend_capture(config, sf_label, query, fraction, "pipeline")
            if capture is None or controller.lag is None:
                lags[sf_label][query] = float("nan")
            else:
                lags[sf_label][query] = controller.lag
    return lags


# ---------------------------------------------------------------------------
# Fig. 10 — forced-strategy overhead distributions
# ---------------------------------------------------------------------------

def _alert_lead(
    config: ExperimentConfig, sf_label: str, query: str, start_fraction: float
) -> float:
    """How far before the window a suspension is requested.

    A spot-instance alert precedes the revocation window, and a sensible
    deployment starts suspending early enough that persistence can finish
    before the window opens.  The lead is an a-priori persist estimate:
    retained scan bytes at the window start plus the process context.
    """
    catalog = config.catalog(sf_label)
    tables = referenced_tables(build_query(query))
    input_bytes = sum(catalog.get(t).nbytes for t in tables)
    estimated = (
        config.profile.buffer_retention * input_bytes * start_fraction
        + config.profile.process_context_bytes
    )
    return config.profile.persist_latency(int(estimated))


def run_fig10(
    config: ExperimentConfig | None = None, sf_label: str = "SF-100"
) -> dict[tuple[float, float], dict[str, list[float]]]:
    """Per-query mean overheads of each strategy under each window, P_T=100%."""
    config = config or ExperimentConfig()
    runner = config.runner(sf_label)
    results: dict[tuple[float, float], dict[str, list[float]]] = {}
    for window in FIG10_WINDOWS:
        results[window] = {"redo": [], "pipeline": [], "process": []}
        for query in config.queries:
            plan = build_query(query)
            normal = config.normal_time(sf_label, query)
            termination = TerminationProfile.from_fractions(normal, window[0], window[1], 1.0)
            events = sample_events(termination, config.runs, seed=config.seed)
            request = max(0.0, termination.t_start - _alert_lead(config, sf_label, query, window[0]))
            for strategy in ("redo", "pipeline", "process"):
                overheads = []
                for event in events:
                    outcome = runner.run_forced(
                        plan, query, strategy, normal, event.at_time, request
                    )
                    overheads.append(outcome.overhead)
                results[window][strategy].append(float(np.mean(overheads)))
    return results


# ---------------------------------------------------------------------------
# Regression training (shared by fig11/fig12/table3/table4/table5)
# ---------------------------------------------------------------------------

def train_regression_estimator(
    config: ExperimentConfig | None = None,
    sf_labels: list[str] | None = None,
    fractions: tuple[float, ...] = (0.3, 0.5, 0.7),
) -> RegressionSizeEstimator:
    """Fit the regression size estimator from observed executions.

    The paper trains on 200 query executions; the default configuration
    (22 queries × 3 fractions × 3 SFs) gathers 198 samples.
    """
    config = config or ExperimentConfig()
    labels = sf_labels or config.sf_labels
    samples: list[TrainingSample] = []
    for sf_label in labels:
        catalog = config.catalog(sf_label)
        for query in config.queries:
            plan = build_query(query)
            for fraction in fractions:
                capture, _ = _suspend_capture(config, sf_label, query, fraction, "process")
                if capture is None:
                    continue
                image = capture.memory_bytes + config.profile.process_context_bytes
                samples.append(
                    TrainingSample(
                        features=extract_features(catalog, plan, fraction),
                        image_bytes=float(image),
                    )
                )
    return RegressionSizeEstimator().fit(samples)


def _make_selector(
    config: ExperimentConfig,
    catalog: Catalog,
    plan,
    normal: float,
    termination: TerminationProfile,
    estimator: RegressionSizeEstimator | OptimizerSizeEstimator,
) -> AdaptiveStrategySelector:
    if isinstance(estimator, RegressionSizeEstimator):
        features_for = lambda fraction: extract_features(catalog, plan, fraction)
        size_of = lambda fraction: estimator.predict(features_for(fraction))
    else:
        size_of = lambda fraction: estimator.estimate_bytes(plan, fraction)
    return AdaptiveStrategySelector(
        profile=config.profile,
        termination=termination,
        process_size_estimator=size_of,
        estimated_total_time=normal,
    )


# ---------------------------------------------------------------------------
# Fig. 11 — adaptive selection success rate
# ---------------------------------------------------------------------------

def run_fig11(
    config: ExperimentConfig | None = None,
    sf_label: str = "SF-100",
    estimator: RegressionSizeEstimator | None = None,
) -> dict[tuple[float, float], dict[str, float]]:
    """Fraction of runs in which the adaptively chosen strategy was fastest."""
    config = config or ExperimentConfig()
    estimator = estimator or train_regression_estimator(config)
    runner = config.runner(sf_label)
    catalog = config.catalog(sf_label)
    rates: dict[tuple[float, float], dict[str, float]] = {}
    epsilon = 1e-6
    for window in FIG10_WINDOWS:
        successes = 0
        total = 0
        for query in config.queries:
            plan = build_query(query)
            normal = config.normal_time(sf_label, query)
            termination = TerminationProfile.from_fractions(normal, window[0], window[1], 1.0)
            events = sample_events(termination, config.runs, seed=config.seed)
            request = max(
                0.0, termination.t_start - _alert_lead(config, sf_label, query, window[0])
            )
            for event in events:
                selector = _make_selector(config, catalog, plan, normal, termination, estimator)
                adaptive = runner.run_adaptive(plan, query, selector, normal, event.at_time)
                forced = {
                    strategy: runner.run_forced(
                        plan, query, strategy, normal, event.at_time, request
                    ).busy_time
                    for strategy in ("redo", "pipeline", "process")
                }
                # A selection is successful when the chosen strategy's
                # execution completes in the shortest time (paper §IV-B);
                # ties within 5% of the winner count as shortest.
                chosen = adaptive.strategy if adaptive.strategy in forced else "redo"
                best = min(forced.values())
                if forced[chosen] <= best + max(epsilon, 0.05 * normal):
                    successes += 1
                total += 1
        rates[window] = {"rate": successes / max(1, total), "total": total}
    return rates


# ---------------------------------------------------------------------------
# Fig. 12 — optimizer-based estimation misleading Q17
# ---------------------------------------------------------------------------

def run_fig12(
    config: ExperimentConfig | None = None,
    sf_label: str = "SF-100",
    query: str = "Q17",
    estimator: RegressionSizeEstimator | None = None,
) -> dict:
    """Q17 under Table III's config, optimizer vs regression estimation."""
    config = config or ExperimentConfig()
    catalog = config.catalog(sf_label)
    runner = config.runner(sf_label)
    plan = build_query(query)
    normal = config.normal_time(sf_label, query)
    termination = TerminationProfile.from_fractions(normal, 0.5, 0.75, 0.7)
    events = sample_events(termination, config.runs, seed=config.seed)
    optimizer = OptimizerSizeEstimator(catalog)
    regression = estimator or train_regression_estimator(
        config, sf_labels=[config.sf_labels[0]]
    )
    report: dict = {"query": query, "normal_time": normal, "runs": []}
    for event in events:
        row = {"termination": event.at_time}
        for label, est in (("optimizer", optimizer), ("regression", regression)):
            selector = _make_selector(config, catalog, plan, normal, termination, est)
            outcome = runner.run_adaptive(plan, query, selector, normal, event.at_time)
            row[label] = {
                "chosen": outcome.strategy,
                "busy_time": outcome.busy_time,
                "terminated": outcome.terminated,
                "suspension_failed": outcome.suspension_failed,
            }
        report["runs"].append(row)
    return report


# ---------------------------------------------------------------------------
# Table II — query characterization
# ---------------------------------------------------------------------------

def run_table2(config: ExperimentConfig | None = None) -> dict[str, dict]:
    """Core operators and table counts of the highlight queries."""
    config = config or ExperimentConfig()
    queries = [q for q in HIGHLIGHT_QUERIES if q in config.queries] or config.queries
    rows: dict[str, dict] = {}
    for query in queries:
        plan = build_query(query)
        counts = count_operators(plan)
        core = {
            label: count
            for label, count in counts.items()
            if label in ("groupby", "join", "semi_join", "anti_join", "outer_join", "unionall")
        }
        rows[query] = {"core_operators": core, "tables": len(referenced_tables(plan))}
    return rows


# ---------------------------------------------------------------------------
# Table III — adaptive selection per configuration
# ---------------------------------------------------------------------------

TABLE3_CONFIGS = {
    "Q1": (0.30, (0.75, 1.0)),
    "Q3": (0.50, (0.0, 0.25)),
    "Q17": (0.70, (0.5, 0.75)),
    "Q21": (0.90, (0.25, 0.5)),
}


def run_table3(
    config: ExperimentConfig | None = None,
    sf_label: str = "SF-100",
    estimator: RegressionSizeEstimator | None = None,
) -> dict[str, dict]:
    """Strategy choice and timings under the paper's four configurations."""
    config = config or ExperimentConfig()
    estimator = estimator or train_regression_estimator(
        config, sf_labels=[config.sf_labels[0]]
    )
    catalog = config.catalog(sf_label)
    runner = config.runner(sf_label)
    rows: dict[str, dict] = {}
    for query, (probability, window) in TABLE3_CONFIGS.items():
        if query not in config.queries:
            continue
        plan = build_query(query)
        normal = config.normal_time(sf_label, query)
        termination = TerminationProfile.from_fractions(
            normal, window[0], window[1], probability
        )
        events = sample_events(termination, config.runs, seed=config.seed)
        outcomes: list[RunOutcome] = []
        for event in events:
            selector = _make_selector(config, catalog, plan, normal, termination, estimator)
            outcomes.append(runner.run_adaptive(plan, query, selector, normal, event.at_time))
        chosen = [o.strategy for o in outcomes if o.decision is not None]
        rows[query] = {
            "probability": probability,
            "window": window,
            "selected": max(set(chosen), key=chosen.count) if chosen else "none",
            "normal_time": normal,
            "with_suspension": float(np.mean([o.busy_time for o in outcomes])),
            "terminations": sum(1 for o in outcomes if o.terminated),
        }
    return rows


# ---------------------------------------------------------------------------
# Table IV — estimation accuracy
# ---------------------------------------------------------------------------

def run_table4(
    config: ExperimentConfig | None = None,
    sf_labels: tuple[str, str] = ("SF-50", "SF-100"),
    estimator: RegressionSizeEstimator | None = None,
) -> list[dict]:
    """Regression vs optimizer estimates vs measured process image size."""
    config = config or ExperimentConfig()
    estimator = estimator or train_regression_estimator(config)
    rows: list[dict] = []
    queries = [q for q in HIGHLIGHT_QUERIES if q in config.queries] or config.queries
    for query in queries:
        plan = build_query(query)
        for sf_label in sf_labels:
            if sf_label not in config.sf_labels:
                continue
            catalog = config.catalog(sf_label)
            capture, _ = _suspend_capture(config, sf_label, query, 0.5, "process")
            truth = (
                0
                if capture is None
                else capture.memory_bytes + config.profile.process_context_bytes
            )
            regression_estimate = estimator.predict(extract_features(catalog, plan, 0.5))
            optimizer_estimate = OptimizerSizeEstimator(catalog).estimate_bytes(plan, 0.5)
            rows.append(
                {
                    "query": query,
                    "dataset": sf_label,
                    "regression": regression_estimate,
                    "optimizer": optimizer_estimate,
                    "ground_truth": float(truth),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Table V — cost model runtime
# ---------------------------------------------------------------------------

def run_table5(
    config: ExperimentConfig | None = None,
    sf_label: str = "SF-100",
    estimator: RegressionSizeEstimator | None = None,
) -> dict[str, dict]:
    """Wall-clock running time of one cost-model evaluation at ~50%."""
    config = config or ExperimentConfig()
    estimator = estimator or train_regression_estimator(
        config, sf_labels=[config.sf_labels[0]]
    )
    catalog = config.catalog(sf_label)
    runner = config.runner(sf_label)
    rows: dict[str, dict] = {}
    queries = [q for q in HIGHLIGHT_QUERIES if q in config.queries] or config.queries
    for query in queries:
        plan = build_query(query)
        normal = config.normal_time(sf_label, query)
        termination = TerminationProfile.from_fractions(normal, 0.5, 0.75, 1.0)
        selector = _make_selector(config, catalog, plan, normal, termination, estimator)
        runner.run_adaptive(plan, query, selector, normal, None)
        runtime = (
            float(np.mean([d.runtime_seconds for d in selector.decisions]))
            if selector.decisions
            else 0.0
        )
        rows[query] = {
            "cost_model_runtime": runtime,
            "normal_time": normal,
            "measured_state_bytes": selector.decisions[-1].measured_state_bytes
            if selector.decisions
            else 0,
        }
    return rows
