"""Snapshot codec layer: frames, adaptive picking, and resume equivalence.

The satellite invariant suite lives here: for a sample of TPC-H queries ×
codecs × persisting strategies, suspended-then-resumed results must be
byte-identical to uninterrupted runs, and store-registered records must
report exact on-disk sizes.
"""

import io
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.engine.clock import SimulatedClock
from repro.engine.executor import QueryExecutor
from repro.engine.profile import HardwareProfile
from repro.storage import codec, serialize
from repro.suspend import PipelineLevelStrategy, ProcessLevelStrategy, SnapshotStore
from repro.tpch import build_query

from tests.conftest import assert_chunks_equal
from tests.test_suspension import run_normal, suspend

SAMPLE_QUERIES = ["Q1", "Q3", "Q9", "Q13", "Q18"]
CODECS = ["raw", "zlib", "dict", "adaptive"]


def _round_trip(array, codec_name):
    blob = codec.encode_array(array, codec_name)
    return codec.decode_array(blob), blob


class TestCodecRoundTrip:
    def test_zlib_round_trip_floats(self):
        rng = np.random.default_rng(1)
        array = np.repeat(rng.random(64), 100)
        decoded, blob = _round_trip(array, "zlib")
        np.testing.assert_array_equal(decoded, array)
        assert len(blob) < array.nbytes

    def test_rle_round_trip_sorted_ints(self):
        array = np.repeat(np.arange(40, dtype=np.int64), 250)
        decoded, blob = _round_trip(array, "rle")
        np.testing.assert_array_equal(decoded, array)
        assert len(blob) < array.nbytes // 10

    def test_dict_round_trip_strings(self):
        values = np.array(["alpha", "beta", "gamma", "delta"], dtype="U8")
        array = values[np.random.default_rng(2).integers(0, 4, 5000)]
        decoded, blob = _round_trip(array, "dict")
        np.testing.assert_array_equal(decoded, array)
        assert decoded.dtype == array.dtype
        assert len(blob) < array.nbytes // 4

    def test_adaptive_round_trip(self):
        array = np.repeat(np.arange(100, dtype=np.int64), 100)
        decoded, blob = _round_trip(array, "adaptive")
        np.testing.assert_array_equal(decoded, array)
        assert len(blob) < array.nbytes

    def test_incompressible_falls_back_to_legacy_record(self):
        array = np.random.default_rng(3).random(4096)
        blob = codec.encode_array(array, "adaptive")
        # Legacy record: no sentinel, exact raw payload inside.
        assert not blob.startswith(np.uint32(codec.FRAME_SENTINEL).tobytes())
        np.testing.assert_array_equal(codec.decode_array(blob), array)

    def test_empty_and_scalar_arrays(self):
        for array in (np.empty(0, dtype=np.int64), np.array(3.5)):
            for name in ("zlib", "adaptive", "raw"):
                decoded, _ = _round_trip(array, name)
                np.testing.assert_array_equal(decoded, array)

    def test_2d_array_uses_zlib_not_rle(self):
        array = np.zeros((64, 64), dtype=np.int64)
        decoded, blob = _round_trip(array, "adaptive")
        np.testing.assert_array_equal(decoded, array)
        assert len(blob) < array.nbytes

    def test_decoded_arrays_are_writable(self):
        array = np.repeat(np.arange(10, dtype=np.int64), 200)
        for name in ("raw", "zlib", "rle", "adaptive"):
            decoded, _ = _round_trip(array, name)
            decoded[0] = 99  # must not raise

    def test_unknown_codec_rejected(self):
        with pytest.raises(codec.CodecError):
            with codec.encoding("lz77"):
                pass

    def test_frame_and_legacy_interop_in_one_stream(self):
        """Codec frames and legacy records coexist in one byte stream."""
        compressible = np.repeat(np.arange(8, dtype=np.int64), 512)
        incompressible = np.random.default_rng(4).random(1000)
        buffer = io.BytesIO()
        with codec.encoding("adaptive"):
            serialize.write_array(buffer, compressible)
        serialize.write_array(buffer, incompressible)
        buffer.seek(0)
        np.testing.assert_array_equal(serialize.read_array(buffer), compressible)
        np.testing.assert_array_equal(serialize.read_array(buffer), incompressible)


class TestAdaptiveNeverLoses:
    @pytest.mark.parametrize(
        "array",
        [
            np.random.default_rng(5).random(5000),
            np.repeat(np.arange(25, dtype=np.int64), 400),
            np.array(["x", "y"], dtype="U1")[
                np.random.default_rng(6).integers(0, 2, 10000)
            ],
            np.random.default_rng(7).integers(0, 2**62, 3000),
            np.arange(100, dtype=np.int32),
        ],
    )
    def test_adaptive_leq_raw(self, array):
        adaptive = codec.encode_array(array, "adaptive")
        raw = codec.encode_array(array, "raw")
        assert len(adaptive) <= len(raw)


class TestCodecStats:
    def test_encode_stats_recorded(self):
        stats = codec.CodecStats()
        array = np.repeat(np.arange(16, dtype=np.int64), 256)
        with codec.encoding("rle", stats):
            serialize.serialize_array(array)
        assert stats.arrays == 1
        assert stats.raw_bytes == array.nbytes
        assert stats.encoded_bytes < stats.raw_bytes
        assert "rle" in stats.per_codec

    def test_decode_stats_recorded(self):
        blob = codec.encode_array(np.repeat(np.arange(16, dtype=np.int64), 256), "zlib")
        stats = codec.CodecStats()
        with codec.recording(stats):
            codec.decode_array(blob)
        assert stats.decoded_arrays == 1
        assert stats.decoded_encoded_bytes < stats.decoded_raw_bytes

    def test_cost_model_charges_codec_time(self):
        stats = codec.CodecStats()
        with codec.encoding("zlib", stats):
            serialize.serialize_array(np.repeat(np.arange(16, dtype=np.int64), 256))
        encode_cost = codec.encode_cost_seconds(stats.to_json())
        decode_cost = codec.decode_cost_seconds(stats.to_json())
        assert encode_cost > 0.0
        assert decode_cost > 0.0
        assert codec.encode_cost_seconds(None) == 0.0

    def test_raw_costs_nothing(self):
        stats = codec.CodecStats()
        with codec.encoding("raw", stats):
            serialize.serialize_array(np.arange(1000, dtype=np.int64))
        assert codec.encode_cost_seconds(stats.to_json()) == 0.0


class TestCodecContextPerThread:
    def test_context_is_invisible_in_another_thread(self):
        seen = {}

        def look():
            seen["codec"], seen["stats"] = codec.active_codec(), codec.active_stats()

        with codec.encoding("zlib", codec.CodecStats()):
            thread = threading.Thread(target=look)
            thread.start()
            thread.join()
            assert codec.active_codec() == "zlib"
        assert seen == {"codec": None, "stats": None}

    def test_another_threads_context_is_invisible_here(self):
        entered, release = threading.Event(), threading.Event()

        def hold():
            with codec.encoding("rle", codec.CodecStats()):
                entered.set()
                release.wait(10)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert entered.wait(10)
            assert codec.active_codec() is None
            assert codec.active_stats() is None
        finally:
            release.set()
            thread.join()

    def test_nesting_still_restores(self):
        outer, inner = codec.CodecStats(), codec.CodecStats()
        with codec.encoding("zlib", outer):
            with codec.recording(inner):
                assert codec.active_codec() is None
                assert codec.active_stats() is inner
                with codec.encoding("dict"):
                    assert codec.active_codec() == "dict"
                    assert codec.active_stats() is None
                assert codec.active_stats() is inner
            assert codec.active_codec() == "zlib"
            assert codec.active_stats() is outer
        assert codec.active_codec() is None


#: Arrays that take every branch of the size gate and of the encoder: frames
#: and raw fallbacks, too-small arrays, 1-D and 2-D.  The first stays raw
#: and the last is framed, so recording out of order changes ``per_codec``.
MIXED_ARRAYS = [
    np.random.default_rng(7).integers(0, 2**62, 3000),
    np.repeat(np.arange(40, dtype=np.int64), 250),
    np.array(["alpha", "beta", "gamma"], dtype="U8")[
        np.random.default_rng(2).integers(0, 3, 3000)
    ],
    np.repeat(np.random.default_rng(1).random(64), 100),
    np.arange(10, dtype=np.int64),
    np.arange(600, dtype=np.int32).reshape(20, 30),
]


class TestCodecStatsMerge:
    def test_merge_equals_recording_into_one_object(self):
        blobs = [codec.encode_array(array, "zlib") for array in MIXED_ARRAYS[:3]]
        one = codec.CodecStats()
        with codec.encoding("adaptive", one):
            for array in MIXED_ARRAYS:
                serialize.serialize_array(array)
            for blob in blobs:
                serialize.deserialize_array(blob)
        merged = codec.CodecStats()
        for part in (MIXED_ARRAYS[:2], MIXED_ARRAYS[2:5], MIXED_ARRAYS[5:]):
            own = codec.CodecStats()
            with codec.encoding("adaptive", own):
                for array in part:
                    serialize.serialize_array(array)
            merged.merge(own)
        own = codec.CodecStats()
        with codec.recording(own):
            for blob in blobs:
                serialize.deserialize_array(blob)
        merged.merge(own)
        assert merged == one
        assert list(merged.per_codec) == list(one.per_codec)
        assert merged.to_json() == one.to_json()


class _ArrayState:
    """A stand-in sink state: two-array calls plus a one-array call."""

    def __init__(self, arrays):
        self.arrays = arrays
        self.threads: list[str] = []

    def serialize(self) -> bytes:
        self.threads.append(threading.current_thread().name)
        buffer = io.BytesIO()
        serialize.write_named_arrays(
            buffer, {f"a{index}": array for index, array in enumerate(self.arrays)}
        )
        serialize.write_array(buffer, self.arrays[0])
        return buffer.getvalue()


def _cpus(monkeypatch, count):
    """Pretend the affinity mask holds *count* CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _sequential(states, codec_name):
    """The reference: one thread serializes every state in order under one
    codec context (a bare ``encoding()`` has no pool)."""
    stats = codec.CodecStats()
    with codec.encoding(codec_name, stats):
        return [state.serialize() for state in states], stats


def _spy_encode_frame(monkeypatch) -> list[str]:
    threads: list[str] = []
    encode = codec.encode_frame

    def spy(contiguous, codec_name):
        threads.append(threading.current_thread().name)
        return encode(contiguous, codec_name)

    monkeypatch.setattr(codec, "encode_frame", spy)
    return threads


class TestConcurrentEncoding:
    @pytest.mark.parametrize("codec_name", ["adaptive", "zlib", "rle", "dict"])
    def test_serialize_all_is_the_sequential_serialization(self, monkeypatch, codec_name):
        states = [_ArrayState(MIXED_ARRAYS[i:]) for i in range(4)]
        expected_blobs, expected_stats = _sequential(states, codec_name)
        _cpus(monkeypatch, 2)
        threads = _spy_encode_frame(monkeypatch)
        blobs, stats = codec.serialize_all(states, codec_name)
        assert blobs == expected_blobs
        assert stats == expected_stats
        assert list(stats.per_codec) == list(expected_stats.per_codec)
        assert all(state.threads[1].startswith("codec-walker") for state in states)
        assert any(name.startswith("codec_") for name in threads)

    def test_a_bare_context_encodes_on_the_calling_thread(self, monkeypatch):
        _cpus(monkeypatch, 2)
        threads = _spy_encode_frame(monkeypatch)
        state = _ArrayState(MIXED_ARRAYS)
        with codec.encoding("adaptive"):
            state.serialize()
        assert set(threads) == {threading.current_thread().name}

    def test_one_cpu_takes_the_sequential_path(self, monkeypatch):
        states = [_ArrayState(MIXED_ARRAYS[i:]) for i in range(3)]
        expected_blobs, expected_stats = _sequential(states, "adaptive")
        _cpus(monkeypatch, 1)
        threads = _spy_encode_frame(monkeypatch)
        blobs, stats = codec.serialize_all(states, "adaptive")
        assert blobs == expected_blobs
        assert stats == expected_stats
        main = threading.current_thread().name
        assert {name for state in states for name in state.threads} == {main}
        assert set(threads) == {main}

    @pytest.mark.parametrize("case", ["raw codec", "one array to encode"])
    def test_paths_that_stay_sequential(self, monkeypatch, case):
        codec_name = "raw" if case == "raw codec" else "adaptive"
        arrays = MIXED_ARRAYS[3:5] if case == "one array to encode" else MIXED_ARRAYS
        states = [_ArrayState(arrays) for _ in range(2)]
        expected, _ = _sequential(states, codec_name)
        _cpus(monkeypatch, 2)
        threads = _spy_encode_frame(monkeypatch)
        blobs, _ = codec.serialize_all(states, codec_name)
        assert blobs == expected
        main = threading.current_thread().name
        walked_on = {state.threads[1] for state in states}
        if case == "raw codec":  # no walker and no pool
            assert walked_on == {main}
            assert set(threads) == {main}
        else:  # walkers, but no array goes to the pool
            assert not any(name.startswith("codec_") for name in threads)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_no_codec_thread_outlives_a_persist(self, monkeypatch):
        # The parallel backend forks after a persist (a run continued after
        # decide() or a resume): the process it forks must have no codec
        # threads, and the child must persist concurrently on its own.
        _cpus(monkeypatch, 2)
        before = threading.active_count()
        states = [_ArrayState(MIXED_ARRAYS[i:]) for i in range(3)]
        threads = _spy_encode_frame(monkeypatch)
        expected, _ = codec.serialize_all(states, "adaptive")
        assert any(name.startswith("codec_") for name in threads)
        assert threading.active_count() == before
        assert not [t for t in threading.enumerate() if t.name.startswith("codec")]
        pid = os.fork()
        if pid == 0:  # the child: never return into pytest
            try:
                blobs, _ = codec.serialize_all(states, "adaptive")
                same = blobs == expected and threading.active_count() == before
                os._exit(0 if same else 1)
            except BaseException:
                os._exit(2)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in its persist")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("query", SAMPLE_QUERIES)
@pytest.mark.parametrize("codec_name", CODECS)
@pytest.mark.parametrize("strategy_cls", [PipelineLevelStrategy, ProcessLevelStrategy])
def test_codec_suspend_resume_equivalence(
    tpch_tiny, tmp_path, query, codec_name, strategy_cls
):
    """Resumed results are byte-identical under every codec and strategy,
    and store-registered records report exact on-disk sizes."""
    profile = HardwareProfile()
    normal = run_normal(tpch_tiny, query)
    strategy = strategy_cls(profile, codec=codec_name)
    executor, capture, _ = suspend(
        tpch_tiny, query, strategy, 0.5, normal.stats.duration, profile=profile
    )
    if capture is None:
        pytest.skip("query finished before the suspension point")
    persisted = strategy.persist(capture, tmp_path)
    assert persisted.codec == codec_name
    assert persisted.intermediate_bytes > 0
    if codec_name != "raw":
        assert persisted.raw_bytes is not None
        assert persisted.intermediate_bytes <= persisted.raw_bytes

    store = SnapshotStore(tmp_path / "store")
    record = store.register(persisted, query)
    assert record.codec == codec_name
    assert record.file_bytes == store.path_of(record).stat().st_size

    resumed = strategy.prepare_resume(
        store.path_of(record), executor.pipelines, executor.plan_fingerprint
    )
    final = QueryExecutor(
        tpch_tiny,
        build_query(query),
        profile=profile,
        clock=SimulatedClock(),
        query_name=query,
        resume=resumed.resume_state,
    ).run()
    assert_chunks_equal(normal.chunk, final.chunk)


def test_pipeline_codec_shrinks_persisted_bytes(tpch_tiny, tmp_path):
    """An adaptive pipeline snapshot is never larger than raw — and for a
    join-heavy query it should be meaningfully smaller."""
    profile = HardwareProfile()
    normal = run_normal(tpch_tiny, "Q3")
    sizes = {}
    for codec_name in ("raw", "adaptive"):
        strategy = PipelineLevelStrategy(profile, codec=codec_name)
        _, capture, _ = suspend(
            tpch_tiny, "Q3", strategy, 0.5, normal.stats.duration, profile=profile
        )
        directory = tmp_path / codec_name
        directory.mkdir()
        persisted = strategy.persist(capture, directory)
        sizes[codec_name] = persisted.intermediate_bytes
    assert sizes["adaptive"] <= sizes["raw"]


def test_codec_metrics_emitted(tpch_tiny, tmp_path):
    from repro.obs import MetricsRegistry, Obs

    metrics = MetricsRegistry()
    profile = HardwareProfile()
    normal = run_normal(tpch_tiny, "Q1")
    strategy = PipelineLevelStrategy(profile, obs=Obs(metrics=metrics), codec="adaptive")
    _, capture, _ = suspend(
        tpch_tiny, "Q1", strategy, 0.5, normal.stats.duration, profile=profile
    )
    if capture is None:
        pytest.skip("query finished before the suspension point")
    strategy.persist(capture, tmp_path)
    raw = metrics.counter("codec_raw_bytes_total", codec="adaptive").value
    encoded = metrics.counter("codec_encoded_bytes_total", codec="adaptive").value
    assert raw > 0
    assert 0 < encoded <= raw
