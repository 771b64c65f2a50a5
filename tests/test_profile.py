"""Wall-clock profiler: determinism, merge math, envelopes, exports.

The contract under test: profiling is strictly opt-in and *invisible* in
every deterministic artifact — results, virtual seconds, snapshots,
trace/timeline exports are byte-identical with the profiler on or off,
under both backends, including across a parallel suspend→resume — while
the profiler itself produces a valid ``riveter-profile/1`` envelope with
per-operator wall attribution, worker-utilization fractions, and
collapsed stacks.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine.clock import SimulatedClock
from repro.engine.errors import QuerySuspended
from repro.engine.executor import QueryExecutor
from repro.engine.kernels import KernelSet, NumpyKernels
from repro.engine.profile import HardwareProfile
from repro.engine.stats import OperatorStats
from repro.harness.bench import median_overhead_ratio
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    LATENCY_BUCKETS,
    PROFILE_FORMAT,
    KernelRecorder,
    MorselProfile,
    ProfilingKernels,
    QueryProfiler,
    validate_profile,
    write_collapsed_stacks,
    write_profile,
)
from repro.suspend import ProcessLevelStrategy
from repro.tpch import QUERY_NAMES, build_query

from tests.test_parallel_backend import (
    HAVE_FORK,
    TEST_MORSEL_SIZE,
    assert_bit_identical_chunks,
)

needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="parallel backend requires fork")


def run_query(catalog, query, backend, profiler=None, morsel_size=TEST_MORSEL_SIZE):
    return QueryExecutor(
        catalog,
        build_query(query),
        query_name=query,
        backend=backend,
        kernels="numpy",
        morsel_size=morsel_size,
        profiler=profiler,
    ).run()


# -- determinism: profiling on/off is invisible ------------------------------


@pytest.mark.parametrize("query", QUERY_NAMES)
def test_profiling_invisible_for_all_queries(tpch_tiny, query):
    """Same bytes and virtual time with the profiler attached, both backends."""
    reference = run_query(tpch_tiny, query, "simulated")

    profiler = QueryProfiler()
    profiled = run_query(tpch_tiny, query, "simulated", profiler=profiler)
    assert_bit_identical_chunks(reference.chunk, profiled.chunk)
    assert profiled.stats.duration == reference.stats.duration
    validate_profile(profiler.to_json())

    if HAVE_FORK:
        profiler = QueryProfiler()
        profiled = run_query(tpch_tiny, query, "parallel", profiler=profiler)
        assert_bit_identical_chunks(reference.chunk, profiled.chunk)
        assert profiled.stats.duration == reference.stats.duration
        validate_profile(profiler.to_json())


@needs_fork
@pytest.mark.parametrize("query", ["Q1", "Q9"])
def test_profiled_parallel_suspend_resume(tpch_tiny, tmp_path, query):
    """Snapshots and resumed results are byte-identical under profiling."""
    profile = HardwareProfile()
    normal = run_query(tpch_tiny, query, "parallel")

    def suspend_and_persist(profiler, directory):
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
            profiler=profiler,
        )
        with pytest.raises(QuerySuspended) as excinfo:
            executor.run()
        directory.mkdir()
        persisted = strategy.persist(excinfo.value.capture, directory)
        return strategy, executor, persisted

    _, _, plain = suspend_and_persist(None, tmp_path / "plain")
    profiler = QueryProfiler()
    strategy, executor, profiled = suspend_and_persist(profiler, tmp_path / "profiled")
    assert (
        plain.snapshot_path.read_bytes() == profiled.snapshot_path.read_bytes()
    ), "profiling changed the snapshot bytes"

    resumed = strategy.prepare_resume(
        profiled.snapshot_path, executor.pipelines, executor.plan_fingerprint
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
        profiler=profiler,
    ).run()
    assert_bit_identical_chunks(normal.chunk, final.chunk)
    envelope = profiler.to_json()
    validate_profile(envelope)
    assert envelope["workers"], "a parallel run must report worker telemetry"


@needs_fork
def test_cli_artifacts_byte_identical_with_profiling(tmp_path):
    """``--profile-out`` leaves --trace-out/--timeline-out artifacts unchanged."""
    from repro.__main__ import main

    def run(tag, extra):
        trace = tmp_path / f"{tag}.trace.json"
        timeline = tmp_path / f"{tag}.timeline.jsonl"
        argv = [
            "query", "--name", "Q3", "--scale", "0.001",
            "--backend", "parallel", "--morsel-size", "512",
            "--trace-out", str(trace), "--timeline-out", str(timeline),
        ] + extra
        assert main(argv) == 0
        return trace.read_bytes(), timeline.read_bytes()

    plain = run("plain", [])
    profile_path = tmp_path / "q3.profile.json"
    profiled = run("profiled", ["--profile-out", str(profile_path)])
    assert plain == profiled
    validate_profile(json.loads(profile_path.read_text()))


def test_profile_cli_report(tmp_path, capsys):
    """``repro profile QN`` prints the hot-operator and utilization report."""
    from repro.__main__ import main

    out = tmp_path / "q1.profile.json"
    stacks = tmp_path / "q1.stacks.txt"
    assert main(
        ["profile", "Q1", "--scale", "0.001", "--out", str(out), "--stacks", str(stacks)]
    ) == 0
    captured = capsys.readouterr().out
    assert "wall-clock profile: Q1" in captured
    assert "hot operators" in captured
    assert "worker utilization" in captured
    validate_profile(json.loads(out.read_text()))
    for line in stacks.read_text().splitlines():
        assert re.fullmatch(r"\S+ \d+", line), line


# -- the wrapper times the shipped kernel path ---------------------------------


def test_profiling_kernels_override_every_kernel_method():
    """A method the wrapper inherits would run the base class, not the inner set."""
    public = {
        name for name, _ in inspect.getmembers(KernelSet, inspect.isfunction)
        if not name.startswith("_")
    }
    missing = sorted(public - set(vars(ProfilingKernels)))
    assert not missing, f"ProfilingKernels does not forward {missing}"


def test_profiling_kernels_forward_the_probe_index():
    seen = []

    class Spy(NumpyKernels):
        def probe_ranges(self, codes_sorted, probe_codes, index=None):
            seen.append(index)
            return super().probe_ranges(codes_sorted, probe_codes, index)

    recorder = KernelRecorder()
    wrapped = ProfilingKernels(Spy(), recorder)
    codes = np.arange(10, dtype=np.int64)
    recorder.begin()
    index = wrapped.probe_index(codes)
    assert index is not None
    wrapped.probe_ranges(codes, np.array([3, 11], dtype=np.int64), index)
    assert seen == [index]
    assert {method for _, method in recorder.take()} == {"probe_index", "probe_ranges"}


def test_profiled_run_takes_the_dense_probe(tpch_tiny, monkeypatch):
    indexed = []
    probe_ranges = NumpyKernels.probe_ranges

    def spy(self, codes_sorted, probe_codes, index=None):
        indexed.append(index is not None)
        return probe_ranges(self, codes_sorted, probe_codes, index)

    monkeypatch.setattr(NumpyKernels, "probe_ranges", spy)
    profiler = QueryProfiler()
    run_query(tpch_tiny, "Q9", "simulated", profiler=profiler)
    assert indexed and any(indexed)
    # The index is built while binding, before the first morsel; its
    # time still lands on the probing operator.
    builders = [op for op in profiler.operators.values() if "probe_index" in op.kernels]
    assert builders and all("probe_ranges" in op.kernels for op in builders)
    assert all(op.wall_seconds >= sum(op.kernels.values()) for op in builders)


# -- unit: merge math on stub runs -------------------------------------------


def make_run(num_operators=3):
    ops = [OperatorStats(label=f"op{i}", kind="scan" if i == 0 else "project")
           for i in range(num_operators)]
    return SimpleNamespace(
        pipeline=SimpleNamespace(pipeline_id=0),
        stats=SimpleNamespace(operators=ops),
    )


def make_morsel(index=0, worker=0, pid=100, started=1.0, ended=1.5,
                op_wall=(0.1, 0.2, 0.2), kernel_wall=None, queue_wait=0.0, ship=0.0):
    return MorselProfile(
        morsel_index=index,
        pid=pid,
        started=started,
        ended=ended,
        op_wall=list(op_wall),
        kernel_wall=kernel_wall or {},
        worker=worker,
        queue_wait=queue_wait,
        ship=ship,
    )


class TestMergeMath:
    def test_operator_and_kernel_accumulation(self):
        profiler = QueryProfiler()
        run = make_run()
        profiler.record_morsel(
            run, make_morsel(0, kernel_wall={(1, "evaluate"): 0.05})
        )
        profiler.record_morsel(
            run, make_morsel(1, started=2.0, ended=2.4, op_wall=(0.1, 0.1, 0.2),
                             kernel_wall={(1, "evaluate"): 0.03})
        )
        op0 = profiler.operators[(0, 0)]
        op1 = profiler.operators[(0, 1)]
        assert op0.wall_seconds == pytest.approx(0.2)
        assert op0.morsels == 2
        assert op1.kernels["evaluate"] == pytest.approx(0.08)

    def test_breaker_lands_on_sink_slot(self):
        profiler = QueryProfiler()
        run = make_run()
        profiler.record_morsel(run, make_morsel())
        profiler.record_breaker(run, 0.7)
        assert profiler.operators[(0, 2)].breaker_wall_seconds == pytest.approx(0.7)

    def test_worker_phases_and_utilization(self):
        profiler = QueryProfiler()
        run = make_run()
        # span: queue_wait 0.5 then compute [1.0, 1.5] -> extent 1.0s
        profiler.record_morsel(run, make_morsel(queue_wait=0.5, ship=0.25))
        worker = profiler.worker_profile(0, 100)
        assert worker.compute_seconds == pytest.approx(0.5)
        assert worker.queue_wait_seconds == pytest.approx(0.5)
        assert worker.span_seconds == pytest.approx(1.0)
        util = worker.utilization()
        assert util["busy"] == pytest.approx(0.5)
        assert util["queue_wait"] == pytest.approx(0.5)
        assert util["ship"] == pytest.approx(0.25)
        assert util["idle"] == 0.0  # clamped, never negative
        assert sum((util["busy"], util["queue_wait"], util["ship"])) >= 1.0

    def test_latency_bucketing(self):
        profiler = QueryProfiler()
        run = make_run()
        for duration in (5e-6, 5e-4, 20.0):
            profiler.record_morsel(run, make_morsel(started=1.0, ended=1.0 + duration))
        counts = profiler.merged_latency()["counts"]
        assert len(counts) == len(LATENCY_BUCKETS) + 1
        assert counts[0] == 1      # 5e-6 <= 1e-5
        assert counts[2] == 1      # 5e-4 <= 1e-3
        assert counts[-1] == 1     # 20s overflows the last bucket
        assert sum(counts) == 3

    def test_span_buffer_caps_and_discloses(self):
        profiler = QueryProfiler(max_spans_per_worker=1)
        run = make_run()
        profiler.record_morsel(run, make_morsel(0))
        profiler.record_morsel(run, make_morsel(1))
        worker = profiler.worker_profile(0, 100)
        assert len(worker.spans) == 1
        assert worker.spans_dropped == 1
        assert profiler.to_json()["spans_dropped"] == 1
        # aggregates still cover every morsel
        assert worker.morsels == 2

    def test_finish_publishes_wall_histograms_once(self):
        profiler = QueryProfiler()
        profiler.record_morsel(make_run(), make_morsel())
        metrics = MetricsRegistry()
        stats = SimpleNamespace(duration=1.5, pipelines=[])
        profiler.finish(stats, metrics=metrics)
        profiler.finish(stats, metrics=metrics)  # idempotent
        exposition = metrics.to_prometheus()
        assert "wall_compute_seconds" in exposition
        assert "wall_queue_wait_seconds" in exposition
        assert "wall_ship_seconds" in exposition
        assert profiler.virtual_seconds == 1.5


class TestExports:
    def _profiler(self):
        profiler = QueryProfiler()
        profiler.query_name = "QX"
        run = make_run()
        profiler.record_morsel(
            run, make_morsel(kernel_wall={(1, "evaluate"): 0.05})
        )
        profiler.record_breaker(run, 0.1)
        return profiler

    def test_collapsed_stacks_format(self, tmp_path):
        profiler = self._profiler()
        text = profiler.collapsed_stacks()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines
        for line in lines:
            assert re.fullmatch(r"\S+ \d+", line), line
        assert any(";kernel:evaluate " in line for line in lines)
        assert any(";breaker " in line for line in lines)
        path = tmp_path / "stacks.txt"
        assert write_collapsed_stacks(profiler, path) == len(lines)

    def test_envelope_roundtrip_and_validation(self, tmp_path):
        profiler = self._profiler()
        path = tmp_path / "profile.json"
        payload = write_profile(profiler, path)
        assert payload["format"] == PROFILE_FORMAT
        summary = validate_profile(json.loads(path.read_text()))
        assert summary["operators"] == 3
        assert summary["workers"] == 1

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError, match="format"):
            validate_profile({"format": "nope"})
        payload = self._profiler().to_json()
        del payload["phases"]
        with pytest.raises(ValueError, match="phases"):
            validate_profile(payload)
        payload = self._profiler().to_json()
        payload["workers"][0]["utilization"]["busy"] = 2.0
        with pytest.raises(ValueError, match="utilization"):
            validate_profile(payload)

    def test_profile_lane_events(self):
        from repro.obs.export import profile_lane_events

        events = profile_lane_events(self._profiler())
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert metadata and spans
        assert all(e["cat"] == "profile" for e in spans)
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in spans)


@needs_fork
def test_backend_envelope_parity(tpch_tiny):
    """Simulated and parallel runs emit the same envelope schema."""
    schemas = {}
    for backend in ("simulated", "parallel"):
        profiler = QueryProfiler()
        run_query(tpch_tiny, "Q6", backend, profiler=profiler)
        payload = profiler.to_json()
        validate_profile(payload)
        schemas[backend] = (
            frozenset(payload),
            frozenset(payload["operators"][0]),
            frozenset(payload["workers"][0]),
            frozenset(payload["phases"]),
        )
    assert schemas["simulated"] == schemas["parallel"]


def test_median_overhead_ratio_math():
    plain_walls = iter([1.0, 1.0, 1.0])
    instrumented_walls = iter([1.5, 3.0, 1.25])
    overhead = median_overhead_ratio(
        lambda: next(plain_walls), lambda: next(instrumented_walls), repetitions=3
    )
    assert overhead["repetitions"] == 3
    assert overhead["plain_seconds_median"] == 1.0
    assert overhead["instrumented_seconds_median"] == 1.5
    assert overhead["ratios"] == [1.5, 3.0, 1.25]
    assert overhead["ratio"] == 1.5
    with pytest.raises(ValueError):
        median_overhead_ratio(lambda: 1.0, lambda: 1.0, repetitions=0)
