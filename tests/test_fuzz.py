"""Differential fuzzing: random plans on two independent engines.

The push-based pipeline executor and the pull-based iterator executor are
separate implementations sharing only the expression/chunk primitives.
Running randomly generated plans through both and comparing row multisets
is a strong end-to-end correctness check for joins, aggregates, filters,
and projections — and, with a random suspension point added, for the
whole suspend/resume path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.clock import SimulatedClock
from repro.engine.errors import QuerySuspended
from repro.engine.executor import QueryExecutor
from repro.engine.expressions import col, lit
from repro.engine.operators.aggregate import AggFunc, AggSpec
from repro.engine.operators.hash_join import JoinType
from repro.engine.plan import Aggregate, Filter, HashJoin, Limit, PlanNode, Project, Rename, Sort, TableScan
from repro.engine.profile import HardwareProfile
from repro.engine.types import DataType
from repro.iterator import IteratorExecutor
from repro.storage import Catalog, Table
from repro.suspend import PipelineLevelStrategy, ProcessLevelStrategy


@pytest.fixture(scope="module")
def fuzz_catalog() -> Catalog:
    rng = np.random.default_rng(99)
    catalog = Catalog()
    n = 3000
    catalog.register(
        Table.from_pairs(
            "facts",
            [
                ("fk", DataType.INT64, rng.integers(0, 40, n)),
                ("fv", DataType.FLOAT64, np.round(rng.random(n), 4)),
                ("fs", DataType.STRING, np.array(["aa", "bb", "cc"], dtype="U2")[rng.integers(0, 3, n)]),
            ],
        )
    )
    catalog.register(
        Table.from_pairs(
            "dims",
            [
                ("dk", DataType.INT64, np.arange(0, 50, dtype=np.int64)),
                ("dv", DataType.FLOAT64, np.round(np.linspace(0, 5, 50), 4)),
            ],
        )
    )
    return catalog


def random_plan(rng: np.random.Generator) -> PlanNode:
    """A random, iterator-compatible plan over the fuzz catalog."""
    base: PlanNode = TableScan("facts", ["fk", "fv", "fs"])
    if rng.random() < 0.7:
        threshold = float(np.round(rng.random(), 3))
        base = Filter(base, col("fv") > lit(threshold))
    if rng.random() < 0.6:
        join_type = [JoinType.INNER, JoinType.SEMI, JoinType.ANTI][rng.integers(0, 3)]
        base = HashJoin(
            probe=base,
            build=TableScan("dims", ["dk", "dv"]),
            probe_keys=["fk"],
            build_keys=["dk"],
            join_type=join_type,
            payload=["dv"] if join_type is JoinType.INNER else None,
        )
    if rng.random() < 0.5:
        outputs = [("fk", col("fk")), ("fv2", col("fv") * lit(2.0)), ("fs", col("fs"))]
        base = Project(base, outputs)
        value_col = "fv2"
    else:
        value_col = "fv"
    shape = rng.integers(0, 3)
    if shape == 0:
        func = [AggFunc.SUM, AggFunc.COUNT_STAR, AggFunc.AVG][rng.integers(0, 3)]
        spec = (
            AggSpec("agg", func)
            if func is AggFunc.COUNT_STAR
            else AggSpec("agg", func, value_col)
        )
        keys = ["fs"] if rng.random() < 0.7 else []
        base = Aggregate(base, keys, [spec])
        if keys:
            base = Sort(base, [("fs", True)])
    elif shape == 1:
        base = Sort(base, [(value_col, bool(rng.random() < 0.5)), ("fk", True)], limit=int(rng.integers(1, 50)))
    else:
        base = Limit(base, int(rng.integers(1, 200)))
    return base


def rows_as_multiset(chunk):
    """Rows as a sorted list of tuples (order-insensitive comparison)."""
    return sorted(row_tuples(chunk), key=repr)


def top_n_rows(chunk, keys):
    """A top-N result as (its whole rows before the last kept sort key, that
    key, the number of kept rows tied with it).

    The cut may fall inside a run of rows tied on the sort keys, and an
    engine may keep any of them; every row before that run is determined.
    """
    at = [chunk.schema.names.index(name) for name in keys]
    rows = row_tuples(chunk)
    last = tuple(rows[-1][i] for i in at) if rows else None
    tied = [tuple(row[i] for i in at) == last for row in rows]
    before = [row for row, is_tied in zip(rows, tied) if not is_tied]
    return sorted(before, key=repr), last, sum(tied)


def row_tuples(chunk):
    """Rows as tuples, in the chunk's order, with floats made comparable."""
    rows = []
    for i in range(chunk.num_rows):
        row = []
        for column in chunk.columns:
            value = column[i]
            if column.dtype.kind == "f":
                # NaN != NaN would break multiset comparison.
                row.append("NaN" if np.isnan(value) else round(float(value), 6))
            else:
                row.append(value.item() if hasattr(value, "item") else value)
        rows.append(tuple(row))
    return rows


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_push_and_pull_engines_agree(fuzz_catalog, seed):
    plan = random_plan(np.random.default_rng(seed))
    push = QueryExecutor(fuzz_catalog, plan, morsel_size=700).run()
    pull = IteratorExecutor(fuzz_catalog, plan, batch_size=1100).run()
    assert pull.result is not None
    assert push.chunk.schema.names == pull.result.schema.names
    if isinstance(plan, Limit):
        # Limits pick arbitrary rows; only the count must agree.
        assert push.chunk.num_rows == pull.result.num_rows
    elif isinstance(plan, Sort) and plan.limit is not None:
        # Rows tied with the last kept sort key need agree only on the key.
        keys = [name for name, _ in plan.keys]
        assert top_n_rows(push.chunk, keys) == top_n_rows(pull.result, keys)
    else:
        assert rows_as_multiset(push.chunk) == rows_as_multiset(pull.result)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=0.95),
    st.sampled_from(["pipeline", "process"]),
)
def test_random_suspension_preserves_results(fuzz_catalog, tmp_path_factory, seed, fraction, strategy_name):
    """Suspend a random plan at a random point; the result must not change."""
    plan = random_plan(np.random.default_rng(seed))
    profile = HardwareProfile()
    normal = QueryExecutor(fuzz_catalog, plan, profile=profile, morsel_size=700).run()
    strategy = (
        PipelineLevelStrategy(profile)
        if strategy_name == "pipeline"
        else ProcessLevelStrategy(profile)
    )
    controller = strategy.make_request_controller(normal.stats.duration * fraction)
    executor = QueryExecutor(
        fuzz_catalog, plan, profile=profile, morsel_size=700, controller=controller
    )
    try:
        rerun = executor.run()
        final_chunk = rerun.chunk
    except QuerySuspended as suspended:
        directory = tmp_path_factory.mktemp("fuzz")
        persisted = strategy.persist(suspended.capture, directory)
        resumed = strategy.prepare_resume(
            persisted.snapshot_path, executor.pipelines, executor.plan_fingerprint
        )
        final_chunk = (
            QueryExecutor(
                fuzz_catalog,
                plan,
                profile=profile,
                morsel_size=700,
                clock=SimulatedClock(),
                resume=resumed.resume_state,
            )
            .run()
            .chunk
        )
    if isinstance(plan, Limit):
        assert final_chunk.num_rows == normal.chunk.num_rows
    else:
        assert rows_as_multiset(final_chunk) == rows_as_multiset(normal.chunk)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.05, max_value=0.95))
def test_random_iterator_suspension_preserves_results(fuzz_catalog, seed, fraction):
    """Same property for the pull-based operator-level suspension."""
    plan = random_plan(np.random.default_rng(seed))
    executor = IteratorExecutor(fuzz_catalog, plan, batch_size=600)
    oracle = executor.run()
    suspended = executor.run(request_time=oracle.clock_time * fraction)
    if suspended.snapshot is None:
        return  # finished before the request; nothing to check
    resumed = executor.run(resume_from=suspended.snapshot)
    assert resumed.result is not None
    if isinstance(plan, Limit):
        assert resumed.result.num_rows == oracle.result.num_rows
    else:
        assert rows_as_multiset(resumed.result) == rows_as_multiset(oracle.result)
