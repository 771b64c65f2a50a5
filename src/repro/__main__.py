"""Top-level command line: ``python -m repro <command>``.

Commands:

* ``query`` — run a SQL query (or a named TPC-H query) against a freshly
  generated TPC-H catalog, optionally suspending and resuming it midway
  to demonstrate the framework; ``--analyze`` prints EXPLAIN ANALYZE and
  ``--trace-out`` exports a Chrome-trace/Perfetto JSON of the run;
* ``trace`` — run a query with full tracing and export the trace
  (Chrome-trace JSON, optional JSONL) plus a text summary;
* ``fleet`` — simulate a multi-tenant workload over N suspension-capable
  workers with admission control and SLO accounting (``repro.fleet``);
  ``--timeline-out`` additionally writes the ``riveter-timeline/1``
  artifact (lifecycle span trees, windowed counters, burn-rate alerts);
* ``report`` — render a timeline artifact as a text dashboard (windowed
  latency quantiles, SLO burn-rate sparklines, slowest lifecycles);
* ``profile`` — run a named query under the opt-in wall-clock profiler
  and print the hot-operator table (wall vs virtual attribution) plus
  per-worker utilization; ``--out`` writes the ``riveter-profile/1``
  envelope, ``--stacks`` a collapsed-stack flamegraph text, ``--chrome``
  a Chrome trace with real per-worker wall lanes.  ``query`` and
  ``trace`` accept ``--profile-out`` to attach the same profiler to any
  run without touching its virtual artifacts;
* ``experiments`` — alias for ``python -m repro.harness`` (regenerate the
  paper's figures and tables).

A top-level ``--seed`` on ``query``/``trace``/``why`` (always present on
``fleet``) is a *master* seed: every random stream — TPC-H data
generation, termination sampling, worker availability, tenant arrivals,
prices — is derived from it via :func:`repro.seeding.derive_seed`.
Without ``--seed`` the historical per-component defaults apply, so
existing baselines are unchanged.

Examples::

    python -m repro query --scale 0.01 "SELECT count(*) AS n FROM lineitem"
    python -m repro query --scale 0.01 --name Q3 --suspend-at 0.5 --analyze
    python -m repro trace --name Q6 --out q6.trace.json --jsonl q6.jsonl
    python -m repro fleet --tenants 3 --workers 2 --duration 600 --json
    python -m repro experiments fig8
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.engine.backend import BACKEND_NAMES
from repro.engine.clock import SimulatedClock
from repro.engine.config import ExecutionConfig
from repro.engine.errors import EngineError
from repro.engine.executor import QueryExecutor, QueryResult
from repro.engine.kernels import KERNEL_NAMES
from repro.engine.profile import HardwareProfile
from repro.harness.report import format_table
from repro.obs.handle import Obs
from repro.storage.codec import CODEC_NAMES
from repro.suspend import QuerySession, make_strategy
from repro.tpch import QUERY_NAMES, build_query, generate_catalog


def _make_catalog(scale: float, seed: int | None):
    """TPC-H catalog under a master seed (legacy dbgen seed when None)."""
    if seed is None:
        return generate_catalog(scale)
    from repro.seeding import derive_seed

    return generate_catalog(scale, seed=derive_seed(seed, "dbgen"))


def _print_chunk(chunk, limit: int = 25) -> None:
    names = chunk.schema.names
    rows = []
    for index in range(min(limit, chunk.num_rows)):
        row = []
        for name in names:
            value = chunk.column(name)[index]
            row.append(f"{value:.4f}" if chunk.column(name).dtype.kind == "f" else str(value))
        rows.append(row)
    print(format_table(names, rows))
    if chunk.num_rows > limit:
        print(f"... ({chunk.num_rows - limit} more rows)")


def _resolve_plan(args: argparse.Namespace, catalog):
    """Return ``(plan, label)`` or ``(None, error_message)``."""
    if args.name is not None:
        if args.name not in QUERY_NAMES:
            return None, f"unknown query {args.name}; expected one of {QUERY_NAMES}"
        return build_query(args.name), args.name
    if args.sql:
        from repro.sql import plan_sql

        return plan_sql(catalog, args.sql), "sql"
    return None, "provide either --name QN or a SQL string"


def _optimizer_flags(args: argparse.Namespace):
    """Per-rule optimizer toggles from the CLI arguments."""
    from repro.optimizer import OptimizerFlags

    if getattr(args, "no_optimizer", False):
        return OptimizerFlags.none()
    return OptimizerFlags(
        pushdown=not getattr(args, "no_pushdown", False),
        pruning=not getattr(args, "no_prune", False),
        selection_vectors=not getattr(args, "no_selvec", False),
    )


def _optimize(catalog, plan, label, args, journal=None):
    """Run the plan rewriter per the CLI flags; returns an OptimizedPlan."""
    from repro.optimizer import optimize_plan

    return optimize_plan(
        catalog, plan, flags=_optimizer_flags(args), journal=journal, query_name=label
    )


class _UsageError(Exception):
    """An invalid option value: ``main`` prints ``error: ...`` and returns 2."""


def _execution_config(args: argparse.Namespace, flags) -> ExecutionConfig:
    """The command's one execution configuration, validated once."""
    try:
        return ExecutionConfig.of(
            morsel_size=args.morsel_size,
            lazy_filters=flags.selection_vectors,
            select_operators=flags.selection_vectors,
            backend=args.backend,
            kernels=args.kernels,
            codec=getattr(args, "codec", None),
        )
    except EngineError as error:
        raise _UsageError(str(error)) from None


def _observability(args: argparse.Namespace) -> Obs:
    """The command's one handle: exactly the sinks its output flags need.

    Sinks are pay-for-what-you-ask: none of them feeds a result or a
    report, so a bare run (a 100k-arrival fleet, say) skips the bookkeeping.
    """
    from repro.obs.audit import DecisionJournal
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import QueryProfiler
    from repro.obs.timeline import TimelineRecorder
    from repro.obs.trace import Tracer

    def wants(*flags: str) -> bool:
        return any(getattr(args, flag, None) for flag in flags)

    command = args.command
    # A query's timeline header discloses the tracer's dropped-event count;
    # a fleet timeline does without a tracer (and its 100k-event buffer).
    tracing = {
        "query": wants("analyze", "trace_out", "timeline_out"),
        "trace": True,
        "profile": wants("chrome"),
        "fleet": wants("trace_out"),
    }.get(command, False)
    metered = tracing or command == "profile" or wants("timeline_out")
    metrics = MetricsRegistry() if metered else None
    return Obs(
        tracer=Tracer(metrics=metrics) if tracing else None,
        metrics=metrics,
        journal=DecisionJournal() if command == "why" or wants("journal_out") else None,
        recorder=TimelineRecorder() if wants("timeline_out") else None,
        profiler=QueryProfiler() if command == "profile" or wants("profile_out") else None,
    )


#: command → its output flags in announcement order, each naming the
#: artifact it writes (``trace --out`` is the Chrome trace, ``profile
#: --out`` the profile envelope).
_OUTPUT_FLAGS = {
    "query": {"trace_out": "chrome", "timeline_out": "timeline", "profile_out": "profile"},
    "trace": {"out": "chrome", "jsonl": "jsonl", "profile_out": "profile", "prom": "prom"},
    "why": {"journal_out": "journal"},
    "profile": {"out": "envelope", "stacks": "stacks", "chrome": "lanes"},
    "fleet": {"journal_out": "journal", "timeline_out": "timeline", "trace_out": "chrome"},
}


def _write_artifacts(obs: Obs, args: argparse.Namespace) -> None:
    """Write every artifact the command's output flags name, announcing each."""
    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.obs.profile import write_collapsed_stacks, write_profile

    command = args.command
    # Side outputs of `fleet` go to stderr so `--json > report.json` stays
    # canonical; `why` prints its audit instead of announcing the journal.
    stream = sys.stderr if command == "fleet" else sys.stdout
    for flag, artifact in _OUTPUT_FLAGS[command].items():
        path = getattr(args, flag)
        if not path:
            continue
        if artifact in ("chrome", "lanes"):
            lanes = obs.profiler if artifact == "lanes" else None
            count = write_chrome_trace(obs.tracer, path, timeline=obs.recorder, profile=lanes)
            what = f"{count} trace event(s)" + (" (virtual + wall worker lanes)" if lanes else "")
        elif artifact == "jsonl":
            write_jsonl(obs.tracer, path)
            what = "JSONL export"
        elif artifact == "timeline":
            dropped = obs.tracer.dropped if obs.tracing else 0
            what = f"{obs.recorder.write(path, dropped_events=dropped)} timeline record(s)"
        elif artifact == "journal":
            obs.journal.write_jsonl(path)
            if command == "why":
                continue
            what = f"{len(obs.journal.records)} journal record(s)"
        elif artifact == "stacks":
            what = f"{write_collapsed_stacks(obs.profiler, path)} collapsed stack line(s)"
        elif artifact == "prom":
            with open(path, "w") as out:
                out.write(obs.metrics.to_prometheus())
            what = "Prometheus exposition"
        else:
            write_profile(obs.profiler, path)
            what = "wall-clock profile" if artifact == "profile" else "riveter-profile/1 envelope"
        lead = "\n" if command == "query" or artifact == "envelope" else ""
        print(f"{lead}wrote {what} to {path}", file=stream)


def _execute(
    catalog,
    plan,
    label: str,
    profile: HardwareProfile,
    args: argparse.Namespace,
    config: ExecutionConfig,
    obs: Obs,
    verbose: bool = True,
) -> QueryResult:
    """Run the query, optionally suspending and resuming it midway.

    Under ``--suspend-at`` the resumed executor's clock starts at
    ``suspended_at + persist + reload`` so an exported trace shows one
    contiguous busy timeline.

    *config* reaches the measuring, suspended and resumed executors alike;
    so does *obs*, except that the measuring run stays unobserved (and
    unprofiled): it only calibrates the suspension point.  With a timeline
    recorder in *obs* the run also grows a lifecycle span tree (a tracer
    alone keeps the flat single-query trace).
    """
    if args.suspend_at is None:
        result = QueryExecutor(
            catalog, plan, profile=profile, query_name=label, obs=obs, config=config
        ).run()
        _finish_query_lifecycle(
            obs, _open_query_lifecycle(obs, label), 0.0, result.stats.finished_at
        )
        if verbose:
            _print_chunk(result.chunk)
            print(f"\n{result.chunk.num_rows} row(s); simulated time {result.stats.duration:.2f}s")
        return result

    # Untraced measuring run: --suspend-at is a fraction of the normal time.
    normal = QueryExecutor(
        catalog, plan, profile=profile, query_name=label, config=config
    ).run()
    lifecycle = _open_query_lifecycle(obs, label, strategy=args.strategy)
    obs = obs.bound(lifecycle)
    strategy = make_strategy(args.strategy, profile, obs=obs, config=config)
    directory = args.snapshot_dir or tempfile.mkdtemp(prefix="riveter-cli-")
    store = None
    if args.incremental:
        from repro.suspend import SnapshotStore

        store = SnapshotStore(directory, incremental=True)
    session = QuerySession(
        catalog,
        plan,
        label,
        directory,
        profile,
        strategy=strategy,
        store=store,
        obs=obs,
        config=config,
    )
    piece = session.run_slice(
        strategy.make_request_controller(normal.stats.duration * args.suspend_at)
    )
    if piece.kind == "complete":
        result = piece.result
        _finish_query_lifecycle(obs, lifecycle, 0.0, result.stats.finished_at)
        if verbose:
            print("query finished before the suspension point; results:")
            _print_chunk(result.chunk)
        return result
    if lifecycle is not None:
        lifecycle.span("run", 0.0, piece.end)
        lifecycle.instant("suspend", piece.end, category="suspend", strategy=strategy.name)
    # Nothing races the demo's suspension: the persisted slice always commits.
    outcome = session.persist(piece)
    record = session.commit(piece)
    if verbose and record is not None and record.is_delta:
        print(
            f"incremental: stored delta of sequence {record.delta_of} "
            f"({record.file_bytes} bytes on disk)"
        )
    if verbose:
        encoded_note = ""
        if outcome.raw_bytes is not None and outcome.codec != "raw":
            encoded_note = f", {outcome.raw_bytes} bytes raw via codec {outcome.codec!r}"
        print(
            f"suspended at t={outcome.suspended_at:.2f}s "
            f"({outcome.intermediate_bytes} bytes persisted via "
            f"{strategy.name}-level{encoded_note})"
        )
    resume_start = outcome.suspended_at + outcome.persist_latency + session.reload()
    final = session.run_slice(clock=SimulatedClock(resume_start)).result
    _finish_query_lifecycle(
        obs, lifecycle, resume_start, final.stats.finished_at,
        suspended=True, persisted_bytes=outcome.intermediate_bytes,
    )
    if verbose:
        print("resumed and finished; results:")
        _print_chunk(final.chunk)
        print(f"\n{final.chunk.num_rows} row(s); normal simulated time {normal.stats.duration:.2f}s")
    return final


def _execute_dist(
    catalog,
    optimized,
    label: str,
    profile: HardwareProfile,
    args: argparse.Namespace,
    config: ExecutionConfig,
    obs: Obs,
    verbose: bool = True,
):
    """Run the optimized plan sharded; returns ``(DistResult, DistributedPlan)``.

    The plan is split into per-shard exchange fragments
    (:func:`repro.dist.split_plan`); predicate/projection/join pushdown
    below the exchange follows the optimizer flags, so ``--no-pushdown``
    also hoists the fragment cut up to the bare partitioned scans.  With
    ``--suspend-at`` one shard (the one holding the most rows) is
    reclaimed mid-fragment and suspends under ``--strategy``; every other
    shard runs threat-free and only the victim persists and resumes.
    """
    from repro.dist import Coordinator, ShardSuspension, partition_catalog, split_plan

    sharded = partition_catalog(catalog, args.shards, scheme=args.partition_scheme)
    dist = split_plan(sharded, optimized.plan, pushdown=optimized.flags.pushdown)
    directory = args.snapshot_dir or tempfile.mkdtemp(prefix="riveter-dist-")
    store = None
    if args.incremental:
        from repro.suspend import SnapshotStore

        store = SnapshotStore(directory, incremental=True)
    coordinator = Coordinator(
        sharded,
        profile,
        obs=obs,
        store=store,
        snapshot_dir=directory,
        config=config,
    )
    suspend = None
    if args.suspend_at is not None:
        suspend = ShardSuspension(strategy=args.strategy, suspend_at=args.suspend_at)
    result = coordinator.run(dist, label, suspend=suspend)
    if verbose:
        _print_chunk(result.chunk)
        print(
            f"\n{result.chunk.num_rows} row(s); {result.shards} shard(s) "
            f"[{result.scheme}], {len(dist.exchanges)} exchange(s), "
            f"{result.bytes_shuffled} bytes shuffled "
            f"({result.rows_shuffled} rows); composed virtual time "
            f"{result.virtual_time:.2f}s"
        )
        outcome = result.victim_outcome
        if outcome is not None:
            print(
                f"shard {result.victim} reclaimed: strategy={outcome.strategy} "
                f"suspended={outcome.suspended} "
                f"({outcome.intermediate_bytes} bytes persisted)"
            )
    return result, dist


def _open_query_lifecycle(obs: Obs, label: str, **root):
    """A single-query span tree — under ``--timeline-out`` only: a tracer
    alone keeps the flat single-query trace."""
    return obs.open_lifecycle(label, 0.0, category="cloud", **root) if obs.recording else None


def _finish_query_lifecycle(obs, lifecycle, start, finished_at, suspended=False, **root) -> None:
    """Close a single-query tree: its last run span, root and completion."""
    if lifecycle is None:
        return
    lifecycle.span("run:resumed" if suspended else "run", start, finished_at)
    lifecycle.finish(finished_at, suspended=suspended, **root)
    obs.recorder.add_completion(
        {
            "name": lifecycle.query,
            "arrival_time": 0.0,
            "finished_at": finished_at,
            "latency": finished_at,
            "suspended": suspended,
            "trace_id": lifecycle.trace_id,
        }
    )


def cmd_query(args: argparse.Namespace) -> int:
    catalog = _make_catalog(args.scale, args.seed)
    profile = HardwareProfile()
    plan, label = _resolve_plan(args, catalog)
    if plan is None:
        print(label, file=sys.stderr)
        return 2

    optimized = _optimize(catalog, plan, label, args)
    config = _execution_config(args, optimized.flags)

    if args.explain_opt:
        from repro.engine.explain import explain_optimized

        print(explain_optimized(catalog, plan, optimized.plan, optimized.applications))
        return 0
    if args.shards > 1:
        if args.timeline_out or args.profile_out:
            print(
                "--timeline-out/--profile-out are not supported with --shards > 1",
                file=sys.stderr,
            )
            return 2
        if args.explain:
            from repro.dist import partition_catalog, split_plan
            from repro.engine.explain import explain_plan

            sharded = partition_catalog(
                catalog, args.shards, scheme=args.partition_scheme
            )
            dist = split_plan(
                sharded, optimized.plan, pushdown=optimized.flags.pushdown
            )
            print("== upper (coordinator) plan ==")
            print(explain_plan(dist.upper))
            for spec in dist.exchanges:
                placements = ", ".join(spec.placements) or "scan-only"
                print(
                    f"\n== exchange x{spec.exchange_id}: fragment over "
                    f"{spec.base_table} [{placements}] =="
                )
                print(explain_plan(spec.exchange))
            return 0
        obs = _observability(args)
        result, dist = _execute_dist(catalog, optimized, label, profile, args, config, obs)
        if args.analyze:
            from repro.engine.explain import explain_analyze
            from repro.harness.report import format_shard_fragments

            print("\n== per-shard fragments ==")
            print(format_shard_fragments(result.fragments))
            print("\n== upper (coordinator) plan ==")
            print(
                explain_analyze(catalog, dist.upper, result.upper_result.stats, obs.tracer)
            )
        _write_artifacts(obs, args)
        return 0

    if args.explain:
        from repro.engine.explain import explain

        print(explain(catalog, optimized.plan))
        if optimized.applications:
            print(f"\nOptimizer rewrites ({len(optimized.applications)}):")
            for app in optimized.applications:
                print(f"  {app}")
        return 0

    obs = _observability(args)
    if obs.recording:
        obs.recorder.set_meta(command="query", query=label, scale=args.scale, seed=args.seed)
    result = _execute(catalog, optimized.plan, label, profile, args, config, obs)
    if args.analyze:
        from repro.engine.explain import explain_analyze

        print()
        print(explain_analyze(catalog, optimized.plan, result.stats, obs.tracer))
    _write_artifacts(obs, args)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    catalog = _make_catalog(args.scale, args.seed)
    profile = HardwareProfile()
    plan, label = _resolve_plan(args, catalog)
    if plan is None:
        print(label, file=sys.stderr)
        return 2

    from repro.obs.export import text_summary

    optimized = _optimize(catalog, plan, label, args)
    config = _execution_config(args, optimized.flags)
    if args.profile_out and args.shards > 1:
        print("--profile-out is not supported with --shards > 1", file=sys.stderr)
        return 2
    obs = _observability(args)
    if args.shards > 1:
        _execute_dist(catalog, optimized, label, profile, args, config, obs, verbose=False)
    else:
        _execute(catalog, optimized.plan, label, profile, args, config, obs, verbose=False)
    _write_artifacts(obs, args)
    print()
    print(text_summary(obs.tracer, obs.metrics))
    print(f"\nopen {args.out} in https://ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_why(args: argparse.Namespace) -> int:
    """Run a query adaptively and explain every suspension decision.

    With ``--shards N`` the reclamation threat hits a single shard (the
    one holding the most partitioned rows) and the audit runs over that
    shard's *fragment*: the selector's inputs (state bytes, remaining
    time, threat window) are all shard-local, which is exactly what makes
    per-shard suspension cheaper than suspending the whole query.
    Unsharded, the audited plan is simply the whole query.  Either way
    the counterfactuals force each fixed strategy on the same plan under
    the same sampled kill.
    """
    import json as json_mod

    from repro.cloud.events import sample_events
    from repro.cloud.runner import QueryRunner
    from repro.costmodel.optimizer_est import OptimizerSizeEstimator
    from repro.costmodel.selector import AdaptiveStrategySelector
    from repro.costmodel.termination import TerminationProfile
    from repro.harness.report import estimator_accuracy
    from repro.obs.audit import ReplayMismatch, replay_journal
    from repro.suspend.store import SnapshotStore

    if args.name not in QUERY_NAMES:
        print(f"unknown query {args.name}; expected one of {QUERY_NAMES}", file=sys.stderr)
        return 2
    catalog = _make_catalog(args.scale, args.seed)
    profile = HardwareProfile()
    obs = _observability(args)
    journal = obs.journal
    optimized = _optimize(catalog, build_query(args.name), args.name, args, journal=journal)
    config = _execution_config(args, optimized.flags)
    directory = args.snapshot_dir or tempfile.mkdtemp(prefix="riveter-why-")
    store = SnapshotStore(directory, incremental=args.incremental)
    # What Algorithm 1 is audited on: the whole query, or (sharded) the
    # victim shard's fragment under its per-shard label.
    plan, label, plan_catalog = optimized.plan, args.name, catalog
    if args.shards > 1:
        from repro.dist import Coordinator, ShardSuspension, partition_catalog, split_plan
        from repro.harness.report import format_shard_fragments

        sharded = partition_catalog(catalog, args.shards, scheme=args.partition_scheme)
        dist = split_plan(
            sharded, optimized.plan, pushdown=optimized.flags.pushdown,
            journal=journal, query_name=args.name,
        )
        coordinator = Coordinator(
            sharded, profile, obs=obs, store=store, snapshot_dir=directory, config=config
        )
        victim = coordinator.pick_victim(ShardSuspension())
        victim_xid = coordinator.victim_exchange(dist, victim)
        spec = dist.exchanges[victim_xid]
        plan, label, plan_catalog = (
            spec.fragment, f"{args.name}.x{victim_xid}.s{victim}", sharded.catalog_for(victim)
        )

    # Journal-less side runner: calibrates the threat-free time and runs
    # the forced counterfactuals, so the main journal records only the
    # adaptive deliberation.
    side_runner = QueryRunner(plan_catalog, profile, snapshot_dir=directory, config=config)
    normal = side_runner.measure_normal(plan, label).stats.duration
    termination = TerminationProfile.from_fractions(
        normal, args.window[0], args.window[1], args.probability
    )
    if args.seed is None:
        termination_seed = 42  # historical default, keeps old audits stable
    else:
        from repro.seeding import derive_seed

        termination_seed = derive_seed(args.seed, "termination")
    event = sample_events(termination, 1, seed=termination_seed)[0]
    estimator = OptimizerSizeEstimator(plan_catalog)

    def selector_factory(runner, fragment, fragment_label, normal_time):
        return AdaptiveStrategySelector(
            profile=profile,
            termination=termination,
            process_size_estimator=lambda fraction: estimator.estimate_bytes(
                fragment, fraction
            ),
            estimated_total_time=normal_time,
            obs=obs,
            estimator_label="optimizer",
        )

    if args.shards > 1:
        result = coordinator.run(
            dist,
            args.name,
            suspend=ShardSuspension(victim=victim, termination_time=event.at_time),
            selector_factory=selector_factory,
        )
        outcome = result.victim_outcome
    else:
        runner = QueryRunner(
            catalog, profile, snapshot_dir=directory, obs=obs, store=store, config=config
        )
        outcome = runner.run_adaptive(
            plan, label, selector_factory(runner, plan, label, normal), normal, event.at_time
        )

    # Counterfactuals: what each fixed strategy would actually have cost.
    for strategy in ("redo", "pipeline", "process"):
        forced = side_runner.run_forced(
            plan, label, strategy, normal, event.at_time, termination.t_start
        )
        journal.append(
            "counterfactual",
            label,
            forced.busy_time,
            strategy=strategy,
            busy_time=forced.busy_time,
            overhead=forced.overhead,
            suspended=forced.suspended,
            suspension_failed=forced.suspension_failed,
            terminated=forced.terminated,
            intermediate_bytes=forced.intermediate_bytes,
        )
    store.save_journal(args.name, journal)
    _write_artifacts(obs, args)

    accuracy = estimator_accuracy(journal)
    if args.json:
        payload = {
            "query": args.name,
            "scale": args.scale,
            "normal_time": normal,
            "termination": termination.to_json(),
            "termination_at": event.at_time,
            "outcome": {
                "strategy": outcome.strategy,
                "busy_time": outcome.busy_time,
                "overhead": outcome.overhead,
                "suspended": outcome.suspended,
                "terminated": outcome.terminated,
            },
            "counterfactuals": {
                r.payload["strategy"]: r.payload for r in journal.by_kind("counterfactual")
            },
            "estimator_accuracy": accuracy,
            "journal": [r.to_json() for r in journal.records],
        }
        if args.shards > 1:
            payload.update(
                shards=result.shards,
                scheme=result.scheme,
                pushdown=dist.pushdown,
                bytes_shuffled=result.bytes_shuffled,
                victim={
                    "shard": victim,
                    "exchange": victim_xid,
                    "base_table": spec.base_table,
                    "label": label,
                },
            )
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
    else:
        if args.shards > 1:
            print(
                f"== {args.name}: sharded over {result.shards} shard(s) "
                f"[{result.scheme}], {len(dist.exchanges)} exchange(s), "
                f"{result.bytes_shuffled} bytes shuffled =="
            )
            print(
                f"victim           : shard {victim}, fragment x{victim_xid} "
                f"over {spec.base_table}"
            )
            print(format_shard_fragments(result.fragments))
            print()
        _print_why_report(label, normal, event, outcome, journal, accuracy)

    if args.replay:
        try:
            results = replay_journal(journal, strict=True)
        except ReplayMismatch as mismatch:
            print(f"\nREPLAY FAILED: {mismatch}", file=sys.stderr)
            return 1
        print(
            f"\nreplay: {len(results)} decision(s) re-derived bit-for-bit "
            "from journaled inputs"
        )
    return 0


def _print_why_report(name, normal, event, outcome, journal, accuracy) -> None:
    from repro.harness.report import format_estimator_accuracy

    print(f"== {name}: adaptive suspension audit ==")
    print(f"normal time      : {normal:.2f}s (simulated)")
    rewrites = journal.by_kind("rewrite")
    if rewrites:
        print(f"plan rewrites    : {len(rewrites)} (optimizer)")
        for record in rewrites:
            payload = record.payload
            if "target" in payload:
                print(f"  [{payload['rule']}] {payload['target']}: {payload['detail']}")
            else:  # dist_exchange records: the fragment cut, not a rewrite rule
                placements = ", ".join(payload["placements"]) or "scan-only"
                print(
                    f"  [{payload['rule']}] x{payload['exchange_id']} over "
                    f"{payload['base_table']}: {placements}"
                )
    window = journal.decisions()[0].payload["inputs"]["termination"] if journal.decisions() else None
    if window is not None:
        print(
            f"threat window    : [{window['t_start']:.2f}s, {window['t_end']:.2f}s] "
            f"P_T={window['probability']:.2f}"
        )
    kill = "no termination" if event.at_time is None else f"t={event.at_time:.2f}s"
    print(f"sampled kill     : {kill}")
    print(
        f"outcome          : {outcome.strategy} "
        f"(busy {outcome.busy_time:.2f}s, overhead {outcome.overhead:.2f}s, "
        f"suspended={outcome.suspended}, terminated={outcome.terminated})"
    )

    decisions = journal.decisions(name)
    if decisions:
        rows = []
        for record in decisions:
            payload = record.payload
            costs = payload["costs"]

            def fmt(strategy):
                value = costs[strategy]["cost"]
                return value if isinstance(value, str) else f"{value:.3f}"

            rows.append(
                (
                    record.seq,
                    f"{record.ts:.2f}",
                    payload["chosen"],
                    fmt("redo"),
                    fmt("pipeline"),
                    fmt("process"),
                    payload["measured_state_bytes"],
                    "-"
                    if payload["planned_suspension_time"] is None
                    else f"{payload['planned_suspension_time']:.2f}",
                )
            )
        print()
        print(
            format_table(
                ("seq", "t", "chosen", "C_redo", "C_ppl", "C_proc", "S_bytes", "planned"),
                rows,
            )
        )

    counterfactuals = journal.by_kind("counterfactual")
    if counterfactuals:
        print("\n-- counterfactuals (forced strategies, same sampled kill) --")
        rows = [
            (
                r.payload["strategy"],
                f"{r.payload['busy_time']:.2f}",
                f"{r.payload['overhead']:.2f}",
                r.payload["suspended"],
                r.payload["terminated"],
            )
            for r in counterfactuals
        ]
        print(format_table(("strategy", "busy", "overhead", "suspended", "terminated"), rows))

    if accuracy:
        print("\n-- estimator accuracy (relative error, estimates vs actuals) --")
        print(format_estimator_accuracy(accuracy))


def cmd_profile(args: argparse.Namespace) -> int:
    """Run a named query under the wall-clock profiler and report on it."""
    import json as json_mod

    from repro.obs.dashboard import render_profile

    if args.name not in QUERY_NAMES:
        print(f"unknown query {args.name}; expected one of {QUERY_NAMES}", file=sys.stderr)
        return 2
    catalog = _make_catalog(args.scale, args.seed)
    profile = HardwareProfile()
    optimized = _optimize(catalog, build_query(args.name), args.name, args)
    config = _execution_config(args, optimized.flags)

    obs = _observability(args)
    _execute(catalog, optimized.plan, args.name, profile, args, config, obs, verbose=False)
    payload = obs.profiler.to_json()

    if args.json:
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_profile(payload, top=args.top))
    _write_artifacts(obs, args)
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Simulate a multi-tenant workload over N suspension-capable workers."""
    from repro.fleet import (
        AdmissionController,
        FleetCluster,
        SLOMonitor,
        fleet_report,
        format_fleet_report,
        generate_workload,
        make_policy,
        make_tenants,
        record_fleet_timeline,
        report_to_json,
        workload_to_jsonl,
    )

    catalog = _make_catalog(args.scale, args.seed)
    tenants = make_tenants(args.tenants, args.seed)
    arrivals = generate_workload(tenants, args.duration, args.seed)
    # Side outputs go to stderr so `--json > report.json` stays canonical.
    if args.arrivals_out:
        with open(args.arrivals_out, "w", encoding="utf-8") as stream:
            stream.write(workload_to_jsonl(arrivals))
        print(f"wrote {len(arrivals)} arrival(s) to {args.arrivals_out}",
              file=sys.stderr)
    obs = _observability(args)
    queue_depth = (
        args.queue_depth if args.queue_depth is not None else max(16, 2 * args.workers)
    )
    admission = AdmissionController(
        max_queue_depth=queue_depth,
        memory_budget_bytes=args.memory_budget,
        obs=obs,
    )
    cluster = FleetCluster(
        catalog,
        make_policy(args.policy),
        workers=args.workers,
        seed=args.seed,
        admission=admission,
        snapshot_dir=args.snapshot_dir,
        mean_on_seconds=args.mean_on,
        mean_off_seconds=args.mean_off,
        obs=obs,
        slo=SLOMonitor(obs=obs),
        fidelity=args.fidelity,
    )
    result = cluster.run(arrivals, args.duration)
    report = fleet_report(result)
    if obs.recording:
        record_fleet_timeline(obs.recorder, result)
    _write_artifacts(obs, args)
    if args.json:
        sys.stdout.write(report_to_json(report))
    else:
        print(format_fleet_report(report))
    if result.result_mismatches:
        # Engine fidelity checks every completion against the query's
        # uninterrupted result; macro fidelity never counts a mismatch.
        print(
            f"{result.result_mismatches} completion(s) differ from the "
            "uninterrupted result",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a ``riveter-timeline/1`` artifact as a text dashboard."""
    from repro.obs.dashboard import render_report
    from repro.obs.timeline import read_timeline, validate_span_tree

    try:
        timeline = read_timeline(args.timeline)
    except (OSError, ValueError) as error:
        print(f"cannot read timeline: {error}", file=sys.stderr)
        return 2
    if args.validate:
        try:
            summary = validate_span_tree(timeline.spans)
        except ValueError as error:
            print(f"INVALID span tree: {error}", file=sys.stderr)
            return 1
        print(
            f"span tree OK: {summary['spans']} span(s), {summary['roots']} root(s)",
            file=sys.stderr,
        )
    print(render_report(timeline, top_k=args.top))
    return 0


def _add_optimizer_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-optimizer", action="store_true",
        help="disable all plan rewrites and selection-vector execution",
    )
    parser.add_argument(
        "--no-pushdown", action="store_true", help="disable predicate pushdown"
    )
    parser.add_argument(
        "--no-prune", action="store_true", help="disable projection pruning"
    )
    parser.add_argument(
        "--no-selvec", action="store_true",
        help="disable selection-vector (lazy) filtering and zero-cost selects",
    )


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default=None,
        help="worker backend: inline simulated loop or multiprocessing "
        "workers (default: simulated); results are byte-identical",
    )
    parser.add_argument(
        "--kernels", choices=list(KERNEL_NAMES), default=None,
        help="operator kernel set: vectorized numpy or the row-at-a-time "
        "scalar reference (default: numpy); results are byte-identical",
    )
    parser.add_argument(
        "--morsel-size", type=int, default=None, metavar="ROWS",
        help="rows per morsel (default: 16384)",
    )


def _add_dist_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.dist.partition import PARTITION_SCHEMES

    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="run sharded: partition the TPC-H tables over N shards and "
        "execute through gather exchanges; results are bit-identical to "
        "the unsharded run (default: 1, unsharded)",
    )
    parser.add_argument(
        "--partition-scheme", choices=list(PARTITION_SCHEMES), default="hash",
        help="shard assignment: key hashing or range partitioning over the "
        "join-key families (default: hash)",
    )


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    _add_optimizer_arguments(parser)
    _add_dist_arguments(parser)
    parser.add_argument("sql", nargs="?", default=None, help="SQL text to execute")
    parser.add_argument("--name", help="named TPC-H query (Q1..Q22) instead of SQL")
    parser.add_argument("--scale", type=float, default=0.01, help="local TPC-H scale factor")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="master seed deriving every random stream, including dbgen "
        "(default: legacy per-component seeds)",
    )
    parser.add_argument(
        "--suspend-at",
        type=float,
        default=None,
        help="suspend at this fraction of execution time, then resume",
    )
    parser.add_argument(
        "--strategy", choices=["pipeline", "process"], default="pipeline",
        help="suspension strategy used with --suspend-at",
    )
    parser.add_argument(
        "--codec", choices=list(CODEC_NAMES), default="raw",
        help="snapshot column codec used with --suspend-at",
    )
    parser.add_argument(
        "--incremental", action="store_true",
        help="register the snapshot in an incremental (delta-aware) store",
    )
    parser.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="directory for snapshots (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="attach the opt-in wall-clock profiler and write the "
        "riveter-profile/1 envelope to PATH; every virtual-clock artifact "
        "stays byte-identical",
    )
    _add_backend_arguments(parser)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "experiments":
        from repro.harness.__main__ import main as harness_main

        return harness_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m repro")
    subparsers = parser.add_subparsers(dest="command", required=True)
    query = subparsers.add_parser("query", help="run a SQL or named TPC-H query")
    _add_run_arguments(query)
    query.add_argument(
        "--explain", action="store_true",
        help="print the plan tree and pipeline decomposition instead of running",
    )
    query.add_argument(
        "--explain-opt", action="store_true",
        help="print a before/after optimizer diff with every rewrite, then exit",
    )
    query.add_argument(
        "--analyze", action="store_true",
        help="run the query and print EXPLAIN ANALYZE (actual rows, virtual seconds)",
    )
    query.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="export a Chrome-trace/Perfetto JSON of the run to PATH",
    )
    query.add_argument(
        "--timeline-out", default=None, metavar="PATH",
        help="write the riveter-timeline/1 lifecycle artifact to PATH "
        "(render it with `python -m repro report`)",
    )
    query.set_defaults(handler=cmd_query)
    trace = subparsers.add_parser(
        "trace", help="run a query with tracing and export the trace"
    )
    _add_run_arguments(trace)
    trace.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="Chrome-trace/Perfetto JSON output path (default: trace.json)",
    )
    trace.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also write the deterministic JSONL export to PATH",
    )
    trace.add_argument(
        "--prom", default=None, metavar="PATH",
        help="also write the metrics in Prometheus text exposition format",
    )
    trace.set_defaults(handler=cmd_trace)
    why = subparsers.add_parser(
        "why",
        help="run a query under a threat window and audit every suspension decision",
    )
    why.add_argument("name", metavar="QUERY", help="named TPC-H query (Q1..Q22)")
    why.add_argument("--scale", type=float, default=0.01, help="local TPC-H scale factor")
    _add_optimizer_arguments(why)
    _add_dist_arguments(why)
    why.add_argument(
        "--window", type=float, nargs=2, default=(0.5, 0.75), metavar=("START", "END"),
        help="termination window as fractions of normal time (default: 0.5 0.75)",
    )
    why.add_argument(
        "--probability", type=float, default=1.0,
        help="termination probability P_T within the window (default: 1.0)",
    )
    why.add_argument(
        "--seed", type=int, default=None,
        help="master seed deriving the dbgen and termination streams "
        "(default: legacy per-component seeds)",
    )
    why.add_argument(
        "--incremental", action="store_true",
        help="use an incremental (delta-aware) snapshot store",
    )
    why.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="directory for snapshots + the persisted journal (default: temp dir)",
    )
    why.add_argument(
        "--journal-out", default=None, metavar="PATH",
        help="also write the decision journal as JSONL to PATH",
    )
    why.add_argument(
        "--json", action="store_true", help="emit the full audit as JSON on stdout"
    )
    why.add_argument(
        "--replay", action="store_true",
        help="re-run the selector from journaled inputs and assert bit-for-bit equality",
    )
    _add_backend_arguments(why)
    why.set_defaults(handler=cmd_why)
    fleet = subparsers.add_parser(
        "fleet",
        help="simulate a multi-tenant workload over suspension-capable workers",
    )
    fleet.add_argument(
        "--tenants", type=int, default=6,
        help="tenant count, cycling interactive/analytic/batch (default: 6; "
        "enough contention for suspensions and SLO burn at the default seed)",
    )
    fleet.add_argument(
        "--workers", type=int, default=2, help="simulated worker count (default: 2)"
    )
    fleet.add_argument(
        "--duration", type=float, default=600.0,
        help="arrival horizon in virtual seconds (default: 600)",
    )
    fleet.add_argument(
        "--policy", choices=["fifo", "suspend-aware", "fair-share"],
        default="suspend-aware", help="scheduling policy (default: suspend-aware)",
    )
    fleet.add_argument(
        "--seed", type=int, default=42,
        help="master seed; every stream (dbgen, availability, workload, "
        "prices) is derived from it (default: 42)",
    )
    fleet.add_argument(
        "--scale", type=float, default=0.002,
        help="local TPC-H scale factor (default: 0.002)",
    )
    fleet.add_argument(
        "--queue-depth", type=int, default=None,
        help="admission queue depth before shedding "
        "(default: max(16, 2 x workers))",
    )
    fleet.add_argument(
        "--fidelity", choices=["engine", "macro"], default="engine",
        help="execution fidelity: 'engine' runs the morsel executor per "
        "dispatch slice, 'macro' replays calibrated per-query run profiles "
        "analytically — byte-identical results, orders of magnitude faster "
        "at fleet scale (default: engine)",
    )
    fleet.add_argument(
        "--memory-budget", type=int, default=None, metavar="BYTES",
        help="per-worker memory cap; queries measured above it are shed",
    )
    fleet.add_argument(
        "--mean-on", type=float, default=600.0, metavar="SECONDS",
        help="mean availability-window length per worker (default: 600)",
    )
    fleet.add_argument(
        "--mean-off", type=float, default=45.0, metavar="SECONDS",
        help="mean reclamation outage length per worker (default: 45)",
    )
    fleet.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="directory for suspension snapshots (default: a fresh temp dir)",
    )
    fleet.add_argument(
        "--journal-out", default=None, metavar="PATH",
        help="write the decision journal (admission/placement/reclamation) as JSONL",
    )
    fleet.add_argument(
        "--arrivals-out", default=None, metavar="PATH",
        help="dump the generated workload as canonical JSONL (one "
        "QueryArrival per line) for inspection and twin calibration",
    )
    fleet.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="export a Chrome-trace/Perfetto JSON with one lane per worker "
        "(includes counter tracks when --timeline-out is also given)",
    )
    fleet.add_argument(
        "--timeline-out", default=None, metavar="PATH",
        help="write the riveter-timeline/1 artifact (lifecycle span trees, "
        "windowed counters, SLO burn-rate alerts); byte-stable per seed",
    )
    fleet.add_argument(
        "--json", action="store_true",
        help="emit the canonical JSON report on stdout (byte-stable per seed)",
    )
    fleet.set_defaults(handler=cmd_fleet)
    report = subparsers.add_parser(
        "report", help="render a riveter-timeline/1 artifact as a text dashboard"
    )
    report.add_argument("timeline", metavar="PATH", help="timeline JSONL artifact")
    report.add_argument(
        "--top", type=int, default=5,
        help="slowest lifecycles to break down (default: 5)",
    )
    report.add_argument(
        "--validate", action="store_true",
        help="check span-tree well-formedness before rendering",
    )
    report.set_defaults(handler=cmd_report)
    prof = subparsers.add_parser(
        "profile",
        help="run a named query under the wall-clock profiler and print "
        "the hot-operator and worker-utilization report",
    )
    prof.add_argument("name", metavar="QUERY", help="named TPC-H query (Q1..Q22)")
    prof.add_argument("--scale", type=float, default=0.01, help="local TPC-H scale factor")
    prof.add_argument(
        "--seed", type=int, default=None,
        help="master seed deriving every random stream, including dbgen "
        "(default: legacy per-component seeds)",
    )
    _add_optimizer_arguments(prof)
    prof.add_argument(
        "--suspend-at", type=float, default=None,
        help="suspend at this fraction of execution time, then resume; the "
        "profile covers both the suspended and the resumed executor",
    )
    prof.add_argument(
        "--strategy", choices=["pipeline", "process"], default="pipeline",
        help="suspension strategy used with --suspend-at",
    )
    prof.add_argument(
        "--codec", choices=list(CODEC_NAMES), default="raw",
        help="snapshot column codec used with --suspend-at",
    )
    prof.add_argument(
        "--incremental", action="store_true",
        help="register the snapshot in an incremental (delta-aware) store",
    )
    prof.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="directory for snapshots (default: a fresh temp dir)",
    )
    prof.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the riveter-profile/1 JSON envelope to PATH",
    )
    prof.add_argument(
        "--stacks", default=None, metavar="PATH",
        help="write collapsed stacks (flamegraph.pl / speedscope input) to PATH",
    )
    prof.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="write a Chrome trace with real per-worker wall lanes next to "
        "the virtual lanes to PATH",
    )
    prof.add_argument(
        "--json", action="store_true",
        help="print the envelope as JSON instead of the text report",
    )
    prof.add_argument(
        "--top", type=int, default=10,
        help="operators to show in the hot-operator table (default: 10)",
    )
    _add_backend_arguments(prof)
    prof.set_defaults(handler=cmd_profile)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
