"""Snapshot codec layer: frames, adaptive picking, and resume equivalence.

The satellite invariant suite lives here: for a sample of TPC-H queries ×
codecs × persisting strategies, suspended-then-resumed results must be
byte-identical to uninterrupted runs, and store-registered records must
report exact on-disk sizes.
"""

import io

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
