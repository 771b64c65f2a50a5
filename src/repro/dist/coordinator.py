"""Plan splitting and sharded execution.

:func:`split_plan` walks an optimized plan top-down and cuts every
*maximal sinkable subtree* whose driving scan reads a partitioned table.
The cut subtree becomes an :class:`~repro.engine.plan.Exchange` fragment
that each shard executes against its own partition; the upper plan keeps
a :class:`~repro.engine.plan.ShuffleRead` leaf in its place.  Sinkable
means every shard can compute its slice of the subtree *locally*:

* row-local chains — ``TableScan`` (with its fused pushdown predicate),
  ``Filter``, ``Project``, ``Rename`` — are elementwise, so fragment
  morselization cannot change their output rows;
* hash joins whose build side is **broadcast-safe** (references only
  replicated tables, so every shard builds an identical hash table from
  its local replica), or **co-partitioned** (single-key join where the
  probe key carries the probe table's partition attribute and the build
  key the build table's, both in the same key family — matching rows
  were placed on the same shard at load time).

This is the near-data lever: with ``pushdown=True`` fused predicates,
pruned projections, and local joins all run *below* the exchange on the
"storage nodes", and only surviving rows ship to the coordinator.  With
``pushdown=False`` the cut happens at the bare scans — predicates are
hoisted above the ``ShuffleRead`` — so whole partitions cross the wire.
``bytes_shuffled`` is the metric the lever moves; results are
bit-identical in both modes.

:class:`Coordinator` executes a :class:`DistributedPlan`: each shard
fragment runs as its own :class:`~repro.cloud.runner.QueryRunner` unit
(so all of Riveter's suspension machinery applies *per shard*), gather
exchanges reassemble fragment outputs onto the unsharded morsel grid
(:mod:`repro.engine.operators.exchange`), and the upper plan replays
them — producing bit-identical results to the unsharded run.  A
simulated reclamation (:class:`ShardSuspension`) suspends exactly one
shard's fragment: only the victim persists a snapshot (through the PR 2
codec + delta store) and only the victim resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.cloud.runner import QueryRunner, RunOutcome
from repro.costmodel.selector import AdaptiveStrategySelector
from repro.engine import plan as planmod
from repro.engine.chunk import DataChunk
from repro.engine.clock import SimulatedClock
from repro.engine.config import ExecutionConfig
from repro.engine.executor import QueryExecutor, QueryResult
from repro.engine.expressions import ColumnRef
from repro.engine.operators.exchange import ExchangeInput, assemble_exchange
from repro.engine.operators.hash_join import JoinType
from repro.engine.profile import HardwareProfile
from repro.engine.types import Schema
from repro.obs.audit import DecisionJournal
from repro.obs.handle import Obs
from repro.dist.partition import (
    KEY_FAMILIES,
    PARTITION_KEYS,
    REPLICATED_TABLES,
    ROWID_COLUMN,
    ShardedCatalog,
)

__all__ = [
    "ExchangeSpec",
    "DistributedPlan",
    "ShardSuspension",
    "FragmentRun",
    "DistResult",
    "split_plan",
    "Coordinator",
]


# --------------------------------------------------------------------------
# plan splitting
# --------------------------------------------------------------------------

@dataclass
class ExchangeSpec:
    """One gather exchange: a fragment every shard runs over its partition."""

    exchange_id: int
    base_table: str
    exchange: planmod.Exchange
    output_schema: Schema
    #: placement annotations for joins sunk below the cut
    #: (``broadcast:<tables>`` / ``hash:<family>``)
    placements: list[str] = field(default_factory=list)
    #: operator histogram of the sunk subtree, for EXPLAIN and the journal
    sunk_operators: dict[str, int] = field(default_factory=dict)

    @property
    def fragment(self) -> planmod.PlanNode:
        return self.exchange.child


@dataclass
class DistributedPlan:
    """Upper plan plus its shard fragments."""

    upper: planmod.PlanNode
    exchanges: list[ExchangeSpec]
    shards: int
    scheme: str
    pushdown: bool


@dataclass
class _SinkInfo:
    """Result of the sinkability analysis for one subtree."""

    base_table: str
    #: output column → driving-table base column (None once computed/joined)
    colmap: dict[str, str | None]
    placements: list[str] = field(default_factory=list)


def _chain_map(node: planmod.PlanNode) -> tuple[str, dict[str, str | None]] | None:
    """(base table, column provenance) for a pure row-local chain, else None."""
    if isinstance(node, planmod.TableScan):
        return node.table, {c: c for c in node.columns}
    if isinstance(node, planmod.Filter):
        return _chain_map(node.child)
    if isinstance(node, planmod.Project):
        below = _chain_map(node.child)
        if below is None:
            return None
        table, colmap = below
        outputs: dict[str, str | None] = {}
        for name, expr in node.outputs:
            outputs[name] = colmap.get(expr.name) if isinstance(expr, ColumnRef) else None
        return table, outputs
    if isinstance(node, planmod.Rename):
        below = _chain_map(node.child)
        if below is None:
            return None
        table, colmap = below
        return table, {node.mapping.get(old, old): base for old, base in colmap.items()}
    return None


def _broadcast_safe(node: planmod.PlanNode) -> bool:
    """Whether every shard can compute *node* identically from replicas."""
    tables = planmod.referenced_tables(node)
    if not tables <= set(REPLICATED_TABLES):
        return False

    def clean(sub: planmod.PlanNode) -> bool:
        if isinstance(sub, planmod.ShuffleRead):
            return False
        return all(clean(child) for child in sub.children())

    return clean(node)


def _sinkable(node: planmod.PlanNode) -> _SinkInfo | None:
    """Sinkability analysis: can every shard compute *node* locally?"""
    if isinstance(node, planmod.TableScan):
        if node.table not in PARTITION_KEYS:
            return None
        return _SinkInfo(node.table, {c: c for c in node.columns})
    if isinstance(node, planmod.Filter):
        return _sinkable(node.child)
    if isinstance(node, planmod.Project):
        info = _sinkable(node.child)
        if info is None:
            return None
        outputs: dict[str, str | None] = {}
        for name, expr in node.outputs:
            outputs[name] = (
                info.colmap.get(expr.name) if isinstance(expr, ColumnRef) else None
            )
        return _SinkInfo(info.base_table, outputs, info.placements)
    if isinstance(node, planmod.Rename):
        info = _sinkable(node.child)
        if info is None:
            return None
        colmap = {
            node.mapping.get(old, old): base for old, base in info.colmap.items()
        }
        return _SinkInfo(info.base_table, colmap, info.placements)
    if isinstance(node, planmod.HashJoin):
        info = _sinkable(node.probe)
        if info is None:
            return None
        placements: list[str] | None = None
        if _broadcast_safe(node.build):
            tables = ",".join(sorted(planmod.referenced_tables(node.build))) or "const"
            placements = info.placements + [f"broadcast:{tables}"]
        elif len(node.probe_keys) == 1 and len(node.build_keys) == 1:
            chain = _chain_map(node.build)
            if chain is not None:
                build_table, build_map = chain
                build_key = build_map.get(node.build_keys[0])
                probe_key = info.colmap.get(node.probe_keys[0])
                if (
                    build_table in PARTITION_KEYS
                    and build_key == PARTITION_KEYS[build_table]
                    and probe_key == PARTITION_KEYS[info.base_table]
                    and KEY_FAMILIES[build_key] == KEY_FAMILIES[probe_key]
                ):
                    placements = info.placements + [
                        f"hash:{KEY_FAMILIES[build_key]}:{build_table}"
                    ]
        if placements is None:
            return None
        colmap = dict(info.colmap)
        if node.join_type not in (JoinType.SEMI, JoinType.ANTI):
            # Payload columns come from the build side: no provenance on
            # the driving table, so they cannot anchor further joins.
            for name in node.payload or []:
                colmap[name] = None
            if node.payload is None:
                # Unknown payload names until schema resolution; mark the
                # whole map conservative by adding nothing — lookups of
                # payload names simply miss, which reads as None.
                pass
        return _SinkInfo(info.base_table, colmap, placements)
    return None


def _thread_rowid(node: planmod.PlanNode) -> planmod.PlanNode:
    """Rewrite a sinkable subtree to carry the driving table's row id."""
    if isinstance(node, planmod.TableScan):
        return planmod.TableScan(
            node.table, list(node.columns) + [ROWID_COLUMN], node.predicate
        )
    if isinstance(node, planmod.Filter):
        return planmod.Filter(_thread_rowid(node.child), node.predicate)
    if isinstance(node, planmod.Project):
        outputs = list(node.outputs) + [(ROWID_COLUMN, ColumnRef(ROWID_COLUMN))]
        return planmod.Project(_thread_rowid(node.child), outputs)
    if isinstance(node, planmod.Rename):
        return planmod.Rename(_thread_rowid(node.child), dict(node.mapping))
    if isinstance(node, planmod.HashJoin):
        # Row id rides the probe side only; build hash tables carry none.
        return planmod.HashJoin(
            probe=_thread_rowid(node.probe),
            build=node.build,
            probe_keys=list(node.probe_keys),
            build_keys=list(node.build_keys),
            join_type=node.join_type,
            payload=node.payload,
            residual=node.residual,
            default_row=node.default_row,
        )
    raise TypeError(f"cannot thread row id through {type(node).__name__}")


class _Splitter:
    def __init__(self, sharded: ShardedCatalog, pushdown: bool):
        self.sharded = sharded
        self.pushdown = pushdown
        self.exchanges: list[ExchangeSpec] = []

    def split(self, node: planmod.PlanNode) -> planmod.PlanNode:
        if self.pushdown:
            info = _sinkable(node)
            if info is not None:
                return self._cut(node, info)
        elif isinstance(node, planmod.TableScan) and node.table in PARTITION_KEYS:
            # Near-data lever OFF: ship the raw partition (scan column
            # list kept, predicate hoisted above the exchange).
            bare = planmod.TableScan(node.table, list(node.columns), None)
            read = self._cut(bare, _SinkInfo(node.table, {c: c for c in node.columns}))
            if node.predicate is not None:
                return planmod.Filter(read, node.predicate)
            return read
        return self._rebuild(node)

    def _rebuild(self, node: planmod.PlanNode) -> planmod.PlanNode:
        if isinstance(node, planmod.TableScan):
            return node
        if isinstance(node, planmod.Filter):
            return planmod.Filter(self.split(node.child), node.predicate)
        if isinstance(node, planmod.Project):
            return planmod.Project(self.split(node.child), list(node.outputs))
        if isinstance(node, planmod.Rename):
            return planmod.Rename(self.split(node.child), dict(node.mapping))
        if isinstance(node, planmod.HashJoin):
            return planmod.HashJoin(
                probe=self.split(node.probe),
                build=self.split(node.build),
                probe_keys=list(node.probe_keys),
                build_keys=list(node.build_keys),
                join_type=node.join_type,
                payload=node.payload,
                residual=node.residual,
                default_row=node.default_row,
            )
        if isinstance(node, planmod.Aggregate):
            return planmod.Aggregate(
                self.split(node.child), list(node.group_keys), list(node.aggregates)
            )
        if isinstance(node, planmod.Sort):
            return planmod.Sort(self.split(node.child), list(node.keys), node.limit)
        if isinstance(node, planmod.Limit):
            return planmod.Limit(self.split(node.child), node.count)
        if isinstance(node, planmod.UnionAll):
            return planmod.UnionAll([self.split(child) for child in node.inputs])
        raise TypeError(f"cannot split plan node {type(node).__name__}")

    def _cut(self, node: planmod.PlanNode, info: _SinkInfo) -> planmod.ShuffleRead:
        exchange_id = len(self.exchanges)
        schema = node.output_schema(self.sharded.base)
        exchange = planmod.Exchange(
            child=_thread_rowid(node),
            mode="gather",
            exchange_id=exchange_id,
            keys=[PARTITION_KEYS[info.base_table]],
            shards=self.sharded.shards,
        )
        self.exchanges.append(
            ExchangeSpec(
                exchange_id=exchange_id,
                base_table=info.base_table,
                exchange=exchange,
                output_schema=schema,
                placements=list(info.placements),
                sunk_operators=planmod.count_operators(node),
            )
        )
        return planmod.ShuffleRead(
            exchange_id=exchange_id, schema=schema, base_table=info.base_table
        )


def split_plan(
    sharded: ShardedCatalog,
    plan: planmod.PlanNode,
    pushdown: bool = True,
    journal: DecisionJournal | None = None,
    query_name: str = "query",
) -> DistributedPlan:
    """Split *plan* into an upper plan plus one fragment per exchange.

    With ``pushdown=True`` the cut is at the top of each maximal sinkable
    subtree (predicates, projections, and local joins run on the shards);
    with ``pushdown=False`` it is at the bare partitioned scans.  Every
    partitioned-table scan is cut either way — the coordinator never
    reads partitioned data directly.
    """
    splitter = _Splitter(sharded, pushdown)
    upper = splitter.split(plan)
    dist = DistributedPlan(
        upper=upper,
        exchanges=splitter.exchanges,
        shards=sharded.shards,
        scheme=sharded.scheme,
        pushdown=pushdown,
    )
    if journal is not None:
        for spec in dist.exchanges:
            journal.append(
                "rewrite",
                query_name,
                0.0,
                rule="dist_exchange" if pushdown else "dist_exchange_no_pushdown",
                exchange_id=spec.exchange_id,
                base_table=spec.base_table,
                placements=spec.placements,
                sunk_operators=spec.sunk_operators,
            )
        journal.append(
            "placement",
            query_name,
            0.0,
            shards=sharded.shards,
            scheme=sharded.scheme,
            pushdown=pushdown,
            exchanges=len(dist.exchanges),
        )
    return dist


# --------------------------------------------------------------------------
# coordinator
# --------------------------------------------------------------------------

@dataclass
class ShardSuspension:
    """A simulated spot reclamation hitting one shard mid-fragment."""

    strategy: str = "pipeline"
    #: suspension request as a fraction of the victim fragment's normal time
    suspend_at: float = 0.5
    #: shard to reclaim; None picks the shard holding the most partitioned
    #: rows (deterministic)
    victim: int | None = None
    termination_time: float | None = None


@dataclass
class FragmentRun:
    """Execution record of one fragment on one shard."""

    exchange_id: int
    shard: int
    label: str
    rows: int
    bytes: int
    busy_time: float
    suspended: bool = False
    strategy: str | None = None
    persist_latency: float = 0.0
    reload_latency: float = 0.0
    intermediate_bytes: int = 0
    stats: object = None


@dataclass
class DistResult:
    """Merged result of a sharded execution."""

    query_name: str
    chunk: DataChunk
    shards: int
    scheme: str
    pushdown: bool
    bytes_shuffled: int
    rows_shuffled: int
    exchange_bytes: dict[int, int]
    fragments: list[FragmentRun]
    upper_result: QueryResult
    #: composed sharded virtual time: per-exchange max-over-shards busy
    #: time + shuffle transfer + upper-plan time
    virtual_time: float
    shuffle_time: float
    victim: int | None = None
    victim_outcome: RunOutcome | None = None


class Coordinator:
    """Runs a :class:`DistributedPlan` over a :class:`ShardedCatalog`.

    Each shard owns a :class:`QueryRunner` (sharing this coordinator's
    observability handle and snapshot store), so fragments inherit the full
    suspension stack — strategies, codecs, incremental snapshot deltas,
    the adaptive selector — with per-shard snapshot names.
    """

    def __init__(
        self,
        sharded: ShardedCatalog,
        profile: HardwareProfile | None = None,
        *,
        obs: Obs | None = None,
        store=None,
        snapshot_dir: str | Path = ".riveter-snapshots",
        config: ExecutionConfig | None = None,
        **options,
    ):
        self.sharded = sharded
        self.profile = profile if profile is not None else HardwareProfile()
        self.config = ExecutionConfig.of(config, **options)
        self.obs = Obs.of(obs)
        self.runners = [
            QueryRunner(
                sharded.catalog_for(k),
                profile=self.profile,
                snapshot_dir=snapshot_dir,
                obs=self.obs,
                store=store,
                config=self.config,
            )
            for k in range(sharded.shards)
        ]

    # -- victim choice -----------------------------------------------------
    def pick_victim(self, suspend: ShardSuspension) -> int:
        if suspend.victim is not None:
            if not 0 <= suspend.victim < self.sharded.shards:
                raise ValueError(
                    f"victim shard {suspend.victim} out of range "
                    f"[0, {self.sharded.shards})"
                )
            return suspend.victim
        totals = [
            sum(rows[k] for rows in self.sharded.shard_rows.values())
            for k in range(self.sharded.shards)
        ]
        return max(range(len(totals)), key=lambda k: (totals[k], -k))

    def victim_exchange(self, dist: DistributedPlan, victim: int) -> int:
        """Exchange whose fragment the reclamation interrupts on *victim*.

        Deterministic: the fragment whose driving table holds the most
        rows on the victim shard (ties to the lowest exchange id).
        """
        best, best_rows = 0, -1
        for spec in dist.exchanges:
            rows = self.sharded.shard_rows.get(spec.base_table, ())
            count = rows[victim] if victim < len(rows) else 0
            if count > best_rows:
                best, best_rows = spec.exchange_id, count
        return best

    # -- execution ---------------------------------------------------------
    def run(
        self,
        dist: DistributedPlan,
        query_name: str,
        suspend: ShardSuspension | None = None,
        selector_factory=None,
    ) -> DistResult:
        """Execute fragments per shard, gather, and run the upper plan.

        ``suspend`` simulates a reclamation of one shard: that shard's
        chosen fragment runs under the forced strategy (or, when
        ``selector_factory`` is given, under Algorithm 1 — the factory is
        called with ``(victim_runner, fragment_plan, label, normal_time)``
        and must return an :class:`AdaptiveStrategySelector`); every
        other shard runs threat-free.  Only the victim persists and
        resumes a snapshot.
        """
        victim = victim_xid = None
        if suspend is not None:
            victim = self.pick_victim(suspend)
            victim_xid = self.victim_exchange(dist, victim)

        exchange_inputs: dict[int, ExchangeInput] = {}
        exchange_bytes: dict[int, int] = {}
        fragments: list[FragmentRun] = []
        victim_outcome: RunOutcome | None = None
        stage_start = 0.0
        shuffle_time = 0.0

        for spec in dist.exchanges:
            base_rows = self.sharded.base.get(spec.base_table).num_rows
            shard_chunks: list[DataChunk] = []
            stage_busy = 0.0
            for k in range(self.sharded.shards):
                label = f"{query_name}.x{spec.exchange_id}.s{k}"
                runner = self.runners[k]
                run = FragmentRun(
                    exchange_id=spec.exchange_id, shard=k, label=label,
                    rows=0, bytes=0, busy_time=0.0,
                )
                if suspend is not None and k == victim and spec.exchange_id == victim_xid:
                    victim_outcome = self._run_victim(
                        runner, spec, label, suspend, selector_factory
                    )
                    result = victim_outcome.result
                    run.busy_time = victim_outcome.busy_time
                    run.suspended = victim_outcome.suspended
                    run.strategy = victim_outcome.strategy
                    run.persist_latency = victim_outcome.persist_latency
                    run.reload_latency = victim_outcome.reload_latency
                    run.intermediate_bytes = victim_outcome.intermediate_bytes
                else:
                    result = runner.measure_normal(spec.fragment, label)
                    run.busy_time = result.stats.duration
                chunk = result.chunk
                run.rows = chunk.num_rows
                run.bytes = int(chunk.nbytes)
                run.stats = result.stats
                fragments.append(run)
                shard_chunks.append(chunk)
                stage_busy = max(stage_busy, run.busy_time)
                self.obs.span(
                    "exchange",
                    label,
                    stage_start,
                    stage_start + run.busy_time,
                    track=f"shard{k}",
                    rows=run.rows,
                    bytes=run.bytes,
                    suspended=run.suspended,
                )
            assembled = assemble_exchange(
                spec.output_schema, shard_chunks, ROWID_COLUMN, base_rows
            )
            exchange_inputs[spec.exchange_id] = assembled
            exchange_bytes[spec.exchange_id] = assembled.bytes_shuffled
            transfer = self.profile.shuffle_latency(assembled.bytes_shuffled)
            shuffle_time += transfer
            self.obs.count(
                "exchange_bytes_shuffled_total", assembled.bytes_shuffled, mode="gather"
            )
            self.obs.count(
                "exchange_rows_shuffled_total", assembled.rows_shuffled, mode="gather"
            )
            self.obs.span(
                "exchange",
                f"{query_name}.x{spec.exchange_id}.gather",
                stage_start + stage_busy,
                stage_start + stage_busy + transfer,
                track="coordinator",
                bytes=assembled.bytes_shuffled,
                rows=assembled.rows_shuffled,
                placements=spec.placements,
            )
            stage_start += stage_busy + transfer

        upper_clock = SimulatedClock()
        executor = QueryExecutor(
            self.sharded.base,
            dist.upper,
            profile=self.profile,
            clock=upper_clock,
            query_name=query_name,
            obs=self.obs,
            exchange_inputs=exchange_inputs,
            config=self.config,
        )
        upper_result = executor.run()

        return DistResult(
            query_name=query_name,
            chunk=upper_result.chunk,
            shards=self.sharded.shards,
            scheme=self.sharded.scheme,
            pushdown=dist.pushdown,
            bytes_shuffled=sum(exchange_bytes.values()),
            rows_shuffled=sum(i.rows_shuffled for i in exchange_inputs.values()),
            exchange_bytes=exchange_bytes,
            fragments=fragments,
            upper_result=upper_result,
            virtual_time=stage_start + upper_clock.now(),
            shuffle_time=shuffle_time,
            victim=victim,
            victim_outcome=victim_outcome,
        )

    def _run_victim(
        self,
        runner: QueryRunner,
        spec: ExchangeSpec,
        label: str,
        suspend: ShardSuspension,
        selector_factory,
    ) -> RunOutcome:
        """Run the victim shard's fragment under the reclamation threat."""
        normal = runner.measure_normal(spec.fragment, label)
        normal_time = normal.stats.duration
        request_time = suspend.suspend_at * normal_time
        if selector_factory is not None:
            selector: AdaptiveStrategySelector = selector_factory(
                runner, spec.fragment, label, normal_time
            )
            return runner.run_adaptive(
                spec.fragment, label, selector, normal_time, suspend.termination_time
            )
        return runner.run_forced(
            spec.fragment,
            label,
            suspend.strategy,
            normal_time,
            suspend.termination_time,
            request_time,
        )
