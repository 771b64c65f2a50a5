"""Worker backends, kernel sets, and morsel-size configurability.

The contract under test: backend choice (inline simulated loop vs
multiprocessing workers) and kernel choice (vectorized vs scalar
reference) are invisible in the output — every TPC-H query returns
byte-identical results with an identical virtual-clock timeline under
``simulated×scalar``, ``simulated×numpy``, and ``parallel×numpy``,
including across a process-level suspend→resume; and the morsel size is
a pure batching knob that never changes results or plan fingerprints.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engine.backend import (
    BACKEND_NAMES,
    ParallelBackend,
    SimulatedBackend,
    resolve_backend,
)
from repro.engine.clock import SimulatedClock
from repro.engine.config import ExecutionConfig
from repro.engine.errors import EngineError, QuerySuspended
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.suspend import ProcessLevelStrategy
from repro.tpch import QUERY_NAMES, build_query

from tests.conftest import assert_chunks_equal

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Small enough that even tiny-scale pipelines span several morsels, so
#: the parallel backend actually forks workers instead of inlining.
TEST_MORSEL_SIZE = 1024

CONFIGS = [
    ("simulated", "scalar"),
    ("simulated", "numpy"),
    ("parallel", "numpy"),
]


def run_config(catalog, query, backend, kernels, morsel_size=TEST_MORSEL_SIZE):
    return QueryExecutor(
        catalog,
        build_query(query),
        query_name=query,
        backend=backend,
        kernels=kernels,
        morsel_size=morsel_size,
    ).run()


def assert_bit_identical_chunks(left, right) -> None:
    assert left.schema.names == right.schema.names
    for a, b in zip(left.arrays(), right.arrays()):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("query", QUERY_NAMES)
def test_all_queries_identical_across_backends_and_kernels(tpch_tiny, query):
    """Every query, every lane: same bytes, same virtual timeline."""
    reference = run_config(tpch_tiny, query, "simulated", "numpy")
    for backend, kernels in CONFIGS:
        if backend == "parallel" and not HAVE_FORK:
            continue
        result = run_config(tpch_tiny, query, backend, kernels)
        assert_bit_identical_chunks(reference.chunk, result.chunk)
        assert result.stats.duration == reference.stats.duration


@pytest.mark.skipif(not HAVE_FORK, reason="parallel backend requires fork")
@pytest.mark.parametrize("query", ["Q1", "Q9"])
def test_parallel_suspend_resume_equivalence(tpch_tiny, tmp_path, query):
    """Suspend a parallel run at a morsel boundary, resume, same bytes."""
    profile = HardwareProfile()
    normal = run_config(tpch_tiny, query, "parallel", "numpy")
    strategy = ProcessLevelStrategy(profile)
    controller = strategy.make_request_controller(normal.stats.duration * 0.5)
    executor = QueryExecutor(
        tpch_tiny,
        build_query(query),
        profile=profile,
        controller=controller,
        query_name=query,
        backend="parallel",
        kernels="numpy",
        morsel_size=TEST_MORSEL_SIZE,
    )
    with pytest.raises(QuerySuspended) as excinfo:
        executor.run()
    capture = excinfo.value.capture
    persisted = strategy.persist(capture, tmp_path)
    assert persisted.intermediate_bytes > 0
    resumed = strategy.prepare_resume(
        persisted.snapshot_path, executor.pipelines, executor.plan_fingerprint
    )
    final = QueryExecutor(
        tpch_tiny,
        build_query(query),
        profile=profile,
        clock=SimulatedClock(),
        query_name=query,
        resume=resumed.resume_state,
        backend="parallel",
        kernels="numpy",
        morsel_size=TEST_MORSEL_SIZE,
    ).run()
    assert_bit_identical_chunks(normal.chunk, final.chunk)


@pytest.mark.skipif(not HAVE_FORK, reason="parallel backend requires fork")
def test_resume_rejects_mismatched_morsel_size(tpch_tiny, tmp_path):
    """A mid-pipeline cursor counts morsels; resuming at another size fails."""
    profile = HardwareProfile()
    query = "Q1"
    normal = run_config(tpch_tiny, query, "simulated", "numpy")
    strategy = ProcessLevelStrategy(profile)
    controller = strategy.make_request_controller(normal.stats.duration * 0.5)
    executor = QueryExecutor(
        tpch_tiny,
        build_query(query),
        profile=profile,
        controller=controller,
        query_name=query,
        morsel_size=TEST_MORSEL_SIZE,
    )
    with pytest.raises(QuerySuspended) as excinfo:
        executor.run()
    persisted = strategy.persist(excinfo.value.capture, tmp_path)
    resumed = strategy.prepare_resume(
        persisted.snapshot_path, executor.pipelines, executor.plan_fingerprint
    )
    assert resumed.resume_state.morsel_size == TEST_MORSEL_SIZE
    with pytest.raises(EngineError, match="morsel size"):
        QueryExecutor(
            tpch_tiny,
            build_query(query),
            profile=profile,
            query_name=query,
            resume=resumed.resume_state,
            morsel_size=TEST_MORSEL_SIZE * 2,
        ).run()


class TestMorselSizeConfig:
    def test_default(self):
        assert ExecutionConfig.of(morsel_size=None).morsel_size == 16384

    def test_rejects_non_positive(self):
        with pytest.raises(EngineError):
            ExecutionConfig(morsel_size=0)
        with pytest.raises(EngineError):
            ExecutionConfig(morsel_size=-5)

    @pytest.mark.parametrize("query", ["Q3", "Q6"])
    def test_morsel_size_invisible_in_results(self, tpch_tiny, query):
        """Batching granularity changes neither results nor fingerprints.

        Across *different* morsel sizes float aggregates are equal within
        tolerance (partial sums accumulate in a different order); the
        bit-identity promise applies to backend/kernel lanes at a fixed
        morsel size.
        """
        plans = {}
        results = {}
        for size in (512, 4096, None):
            executor = QueryExecutor(
                tpch_tiny, build_query(query), query_name=query, morsel_size=size
            )
            results[size] = executor.run()
            plans[size] = executor.plan_fingerprint
        assert len(set(plans.values())) == 1
        for size in (4096, None):
            assert_chunks_equal(results[512].chunk, results[size].chunk)


class TestBackendResolution:
    def test_names(self):
        assert set(BACKEND_NAMES) == {"simulated", "parallel"}

    def test_resolve(self):
        assert isinstance(resolve_backend(None), SimulatedBackend)
        assert isinstance(resolve_backend("simulated"), SimulatedBackend)
        assert isinstance(resolve_backend("parallel"), ParallelBackend)
        backend = ParallelBackend(workers=2)
        assert resolve_backend(backend) is backend
        with pytest.raises(EngineError):
            resolve_backend("threads")

    @pytest.mark.skipif(not HAVE_FORK, reason="parallel backend requires fork")
    def test_single_morsel_runs_inline(self, tpch_tiny):
        """One morsel (or one worker) never pays the fork cost."""
        wide = run_config(tpch_tiny, "Q6", "parallel", "numpy", morsel_size=10**6)
        narrow = run_config(
            tpch_tiny, "Q6", ParallelBackend(workers=1), "numpy", morsel_size=512
        )
        reference = run_config(tpch_tiny, "Q6", "simulated", "numpy", morsel_size=512)
        assert_bit_identical_chunks(reference.chunk, narrow.chunk)
        # The single-morsel run uses a different batching, so compare with
        # float tolerance rather than bytes.
        assert_chunks_equal(reference.chunk, wide.chunk)
