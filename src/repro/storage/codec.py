"""Column codecs for snapshot payloads.

Riveter's cost model prices suspension and resumption by intermediate-data
size (``L_s``/``L_r`` = overhead + bytes/bandwidth), so every byte shaved
off a snapshot moves the adaptive selector's break-even points.  This
module provides a pluggable per-array codec layer used by the snapshot
serializer:

* ``raw`` — passthrough; emits the legacy :mod:`repro.storage.serialize`
  record unchanged;
* ``zlib`` — DEFLATE over the raw payload bytes (any dtype);
* ``rle`` — run-length encoding for 1-D integer/bool columns (sorted or
  low-cardinality data collapses into few runs);
* ``dict`` — dictionary encoding for 1-D ``<U`` string columns (unique
  values + integer codes);
* ``adaptive`` — a sample-based compressibility probe per array that picks
  the best applicable codec and falls back to raw when the estimated gain
  is below a threshold.

Encoded arrays are written as *codec frames*: a self-describing record
that starts with a sentinel length (``0xFFFFFFFF`` — impossible as a
dtype-string length in the legacy format) followed by a frame version,
codec name, dtype, shape, and the encoded payload.  Legacy records and
codec frames coexist byte-stream-compatibly: ``serialize.read_array``
dispatches on the sentinel, so old snapshots stay readable and new
snapshots degrade to the legacy format wherever encoding does not pay.

Every codec guarantees ``encoded frame size <= legacy record size`` — the
encoder compares against the legacy encoding and returns "no frame" when
compression does not win, so an adaptively encoded snapshot is never
larger than a raw one.

Encoding is activated through a context manager rather than per-call
arguments so that deeply nested state serializers (join builds, aggregate
states, chunk lists) pick the codec up without signature changes::

    stats = CodecStats()
    with codec.encoding("adaptive", stats):
        blob = state.serialize()

The context is per-thread: a context entered in one thread is invisible in
every other.  That is what lets :func:`serialize_all` serialize the states
of one persist concurrently, each on its own walker thread under its own
context and stats, while :func:`encode_frames` compresses the arrays of one
``write_named_arrays`` call on the thread pool that ``serialize_all`` opens
for that persist and puts in the walkers' contexts (a context without a
pool, such as a bare ``encoding()``, encodes on the calling thread).  Each
frame is a pure function of one array (:func:`encode_frame`), and frames
and stats are taken in serializer order, so the bytes are those of a
sequential persist.

Virtual encode/decode costs are modelled per codec as raw-byte
throughputs on the simulated timeline (scaled like disk bandwidth by
``HardwareProfile.io_time_scale``) so the cost model can charge codec CPU
time alongside I/O time.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "CODEC_NAMES",
    "FRAME_SENTINEL",
    "CodecError",
    "CodecStats",
    "encoding",
    "recording",
    "active_stats",
    "encode_frame",
    "maybe_encode_frame",
    "encode_frames",
    "serialize_all",
    "read_frame",
    "encode_array",
    "decode_array",
    "encode_cost_seconds",
    "decode_cost_seconds",
    "estimate_encode_seconds",
    "estimate_decode_seconds",
]

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")

#: Sentinel written where the legacy format stores the dtype-string length.
#: Legacy dtype strings are a handful of bytes, so this value is unreachable.
FRAME_SENTINEL = 0xFFFFFFFF
_FRAME_VERSION = 1

CODEC_NAMES = ("raw", "zlib", "rle", "dict", "adaptive")

#: Probe at most this many leading elements when picking adaptively.  A
#: prefix (rather than a strided sample) preserves run structure so the
#: probe stays representative for RLE.
_PROBE_ELEMENTS = 4096
#: Arrays smaller than this are never worth a frame header.
_MIN_ENCODE_BYTES = 256
#: Adaptive keeps raw unless the probe predicts at least this ratio.
_ADAPTIVE_THRESHOLD = 0.9

#: Virtual codec throughputs in raw bytes/second, scaled onto the
#: simulated timeline by ``io_time_scale`` exactly like disk bandwidth.
#: ``adaptive`` is only used for *estimates* (the probe's actual choice is
#: recorded per array); it assumes the zlib worst case.
_ENCODE_THROUGHPUT = {
    "raw": float("inf"),
    "zlib": 256 * 1024**2,
    "rle": 2 * 1024**3,
    "dict": 1 * 1024**3,
    "adaptive": 256 * 1024**2,
}
_DECODE_THROUGHPUT = {
    "raw": float("inf"),
    "zlib": 1 * 1024**3,
    "rle": 4 * 1024**3,
    "dict": 2 * 1024**3,
    "adaptive": 1 * 1024**3,
}


class CodecError(ValueError):
    """Raised for unknown codecs or malformed codec frames."""


@dataclass
class CodecStats:
    """Byte accounting for one encode/decode session.

    ``raw_bytes``/``encoded_bytes`` cover payloads that went through the
    encoder (including arrays that stayed raw); ``per_codec`` breaks the
    same totals down by the codec actually chosen per array, which is what
    the virtual cost model consumes.
    """

    arrays: int = 0
    raw_bytes: int = 0
    encoded_bytes: int = 0
    decoded_arrays: int = 0
    decoded_raw_bytes: int = 0
    decoded_encoded_bytes: int = 0
    per_codec: dict = field(default_factory=dict)

    def _bucket(self, codec_name: str) -> dict:
        bucket = self.per_codec.get(codec_name)
        if bucket is None:
            bucket = self.per_codec[codec_name] = {
                "arrays": 0,
                "raw_bytes": 0,
                "encoded_bytes": 0,
                "decoded_arrays": 0,
                "decoded_raw_bytes": 0,
                "decoded_encoded_bytes": 0,
            }
        return bucket

    def record_encode(self, codec_name: str, raw: int, encoded: int) -> None:
        self.arrays += 1
        self.raw_bytes += raw
        self.encoded_bytes += encoded
        bucket = self._bucket(codec_name)
        bucket["arrays"] += 1
        bucket["raw_bytes"] += raw
        bucket["encoded_bytes"] += encoded

    def record_decode(self, codec_name: str, raw: int, encoded: int) -> None:
        self.decoded_arrays += 1
        self.decoded_raw_bytes += raw
        self.decoded_encoded_bytes += encoded
        bucket = self._bucket(codec_name)
        bucket["decoded_arrays"] += 1
        bucket["decoded_raw_bytes"] += raw
        bucket["decoded_encoded_bytes"] += encoded

    def merge(self, other: "CodecStats") -> None:
        """Add *other*'s counts, as if they had been recorded here."""
        self.arrays += other.arrays
        self.raw_bytes += other.raw_bytes
        self.encoded_bytes += other.encoded_bytes
        self.decoded_arrays += other.decoded_arrays
        self.decoded_raw_bytes += other.decoded_raw_bytes
        self.decoded_encoded_bytes += other.decoded_encoded_bytes
        for codec_name, bucket in other.per_codec.items():
            mine = self._bucket(codec_name)
            for key, value in bucket.items():
                mine[key] += value

    @property
    def saved_bytes(self) -> int:
        return self.raw_bytes - self.encoded_bytes

    @property
    def ratio(self) -> float:
        """Encoded/raw payload ratio (1.0 when nothing was encoded)."""
        return self.encoded_bytes / self.raw_bytes if self.raw_bytes else 1.0

    def to_json(self) -> dict:
        return {
            "arrays": self.arrays,
            "raw_bytes": self.raw_bytes,
            "encoded_bytes": self.encoded_bytes,
            "per_codec": {name: dict(self.per_codec[name]) for name in sorted(self.per_codec)},
        }


# -- context ---------------------------------------------------------------------

#: Each thread has its own stack of active contexts: a context entered in
#: one thread is invisible in every other, so concurrent serializers (the
#: walkers of :func:`serialize_all`) each encode under their own codec and
#: record into their own :class:`CodecStats`.  An entry is
#: ``(codec, stats, pool)``; only :func:`serialize_all` sets a pool.
_LOCAL = threading.local()
_NO_CONTEXT = (None, None, None)


def _context_stack() -> list[tuple[str | None, CodecStats | None, ThreadPoolExecutor | None]]:
    try:
        return _LOCAL.stack
    except AttributeError:
        stack = _LOCAL.stack = []
        return stack


def _active_entry() -> tuple[str | None, CodecStats | None, ThreadPoolExecutor | None]:
    stack = _context_stack()
    return stack[-1] if stack else _NO_CONTEXT


class _CodecContext:
    def __init__(
        self,
        codec_name: str | None,
        stats: CodecStats | None,
        pool: ThreadPoolExecutor | None = None,
    ):
        if codec_name is not None and codec_name not in CODEC_NAMES:
            raise CodecError(f"unknown codec {codec_name!r}; expected one of {CODEC_NAMES}")
        self._entry = (codec_name, stats, pool)

    def __enter__(self) -> "_CodecContext":
        _context_stack().append(self._entry)
        return self

    def __exit__(self, *exc_info) -> None:
        _context_stack().pop()


def encoding(codec_name: str, stats: CodecStats | None = None) -> _CodecContext:
    """Encode arrays written by :func:`repro.storage.serialize.write_array`
    with *codec_name* while the context is active (in this thread)."""
    return _CodecContext(codec_name, stats)


def recording(stats: CodecStats) -> _CodecContext:
    """Record decode (and raw write) byte counts without enabling encoding."""
    return _CodecContext(None, stats)


def active_codec() -> str | None:
    return _active_entry()[0]


def active_stats() -> CodecStats | None:
    return _active_entry()[1]


# -- individual codecs ------------------------------------------------------------


def _payload_view(contiguous: np.ndarray) -> memoryview:
    return memoryview(contiguous).cast("B") if contiguous.ndim else memoryview(contiguous)


def _encode_zlib(contiguous: np.ndarray) -> bytes:
    return zlib.compress(_payload_view(contiguous), 6)


def _decode_zlib(payload: bytes, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
    # bytearray keeps the restored array writable, matching the raw path.
    raw = bytearray(zlib.decompress(payload))
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _rle_applicable(contiguous: np.ndarray) -> bool:
    return contiguous.ndim == 1 and contiguous.dtype.kind in "iub"


def _encode_rle(contiguous: np.ndarray) -> bytes:
    n = contiguous.shape[0]
    if n == 0:
        return _U64.pack(0)
    boundaries = np.flatnonzero(contiguous[1:] != contiguous[:-1]) + 1
    starts = np.concatenate([np.zeros(1, dtype=np.int64), boundaries])
    lengths = np.diff(np.concatenate([starts, np.array([n], dtype=np.int64)]))
    values = np.ascontiguousarray(contiguous[starts])
    return (
        _U64.pack(len(starts))
        + values.tobytes()
        + np.ascontiguousarray(lengths, dtype=np.int64).tobytes()
    )


def _decode_rle(payload: bytes, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
    (runs,) = _U64.unpack_from(payload, 0)
    if runs == 0:
        return np.empty(shape, dtype=dtype)
    offset = _U64.size
    values = np.frombuffer(payload, dtype=dtype, count=runs, offset=offset)
    offset += runs * dtype.itemsize
    lengths = np.frombuffer(payload, dtype=np.int64, count=runs, offset=offset)
    return np.repeat(values, lengths)


def _dict_applicable(contiguous: np.ndarray) -> bool:
    return contiguous.ndim == 1 and contiguous.dtype.kind == "U"


def _encode_dict(contiguous: np.ndarray) -> bytes:
    uniques, codes = np.unique(contiguous, return_inverse=True)
    codes = np.ascontiguousarray(codes, dtype=np.int32)
    dtype_str = uniques.dtype.str.encode("ascii")
    return (
        _U32.pack(len(dtype_str))
        + dtype_str
        + _U64.pack(uniques.shape[0])
        + uniques.tobytes()
        + _U64.pack(codes.shape[0])
        + codes.tobytes()
    )


def _decode_dict(payload: bytes, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
    offset = 0
    (dtype_len,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    unique_dtype = np.dtype(payload[offset : offset + dtype_len].decode("ascii"))
    offset += dtype_len
    (n_uniques,) = _U64.unpack_from(payload, offset)
    offset += _U64.size
    uniques = np.frombuffer(payload, dtype=unique_dtype, count=n_uniques, offset=offset)
    offset += n_uniques * unique_dtype.itemsize
    (n_codes,) = _U64.unpack_from(payload, offset)
    offset += _U64.size
    codes = np.frombuffer(payload, dtype=np.int32, count=n_codes, offset=offset)
    if n_codes == 0:
        return np.empty(shape, dtype=dtype)
    return uniques[codes].astype(dtype, copy=False).reshape(shape)


_ENCODERS: dict[str, Callable[[np.ndarray], bytes]] = {
    "zlib": _encode_zlib,
    "rle": _encode_rle,
    "dict": _encode_dict,
}
_DECODERS: dict[str, Callable[[bytes, np.dtype, tuple[int, ...]], np.ndarray]] = {
    "zlib": _decode_zlib,
    "rle": _decode_rle,
    "dict": _decode_dict,
}


def _applicable_codecs(contiguous: np.ndarray) -> list[str]:
    names: list[str] = []
    if _rle_applicable(contiguous):
        names.append("rle")
    if _dict_applicable(contiguous):
        names.append("dict")
    names.append("zlib")
    return names


# -- frame encode / decode ---------------------------------------------------------


def _legacy_record_size(contiguous: np.ndarray) -> int:
    dtype_len = len(contiguous.dtype.str.encode("ascii"))
    return _U32.size + dtype_len + _U32.size + _I64.size * contiguous.ndim + _U64.size + contiguous.nbytes


def _frame_overhead(codec_name: str, contiguous: np.ndarray) -> int:
    dtype_len = len(contiguous.dtype.str.encode("ascii"))
    return (
        _U32.size  # sentinel
        + _U32.size  # version
        + _U32.size + len(codec_name)
        + _U32.size + dtype_len
        + _U32.size + _I64.size * contiguous.ndim
        + _U64.size  # raw nbytes
        + _U64.size  # encoded length
    )


def _build_frame(codec_name: str, contiguous: np.ndarray, payload: bytes) -> bytes:
    dtype_str = contiguous.dtype.str.encode("ascii")
    name = codec_name.encode("ascii")
    parts = [
        _U32.pack(FRAME_SENTINEL),
        _U32.pack(_FRAME_VERSION),
        _U32.pack(len(name)),
        name,
        _U32.pack(len(dtype_str)),
        dtype_str,
        _U32.pack(contiguous.ndim),
    ]
    parts.extend(_I64.pack(dim) for dim in contiguous.shape)
    parts.append(_U64.pack(contiguous.nbytes))
    parts.append(_U64.pack(len(payload)))
    parts.append(payload)
    return b"".join(parts)


def _pick_adaptive(contiguous: np.ndarray) -> str | None:
    """Sample-based compressibility probe; ``None`` means stay raw."""
    sample = contiguous
    if contiguous.ndim == 1 and contiguous.shape[0] > _PROBE_ELEMENTS:
        sample = contiguous[:_PROBE_ELEMENTS]
    sample_bytes = max(1, sample.nbytes)
    best_name, best_ratio = None, _ADAPTIVE_THRESHOLD
    for name in _applicable_codecs(contiguous):
        try:
            ratio = len(_ENCODERS[name](sample)) / sample_bytes
        except Exception:
            continue
        if ratio < best_ratio:
            best_name, best_ratio = name, ratio
    return best_name


def _wants_encoding(contiguous: np.ndarray, codec_name: str | None) -> bool:
    return (
        codec_name is not None
        and codec_name != "raw"
        and contiguous.nbytes >= _MIN_ENCODE_BYTES
    )


def encode_frame(
    contiguous: np.ndarray, codec_name: str | None
) -> tuple[str, int, bytes | None]:
    """Encode *contiguous* with *codec_name*: ``(chosen, encoded_len, frame)``.

    A pure function of its arguments — it reads no context and records no
    stats — so any thread may run it.  ``frame`` is ``None`` (and
    ``chosen`` is ``"raw"``, ``encoded_len`` the raw size) when the caller
    should write the legacy raw record: no codec, raw codec, an array too
    small to pay for a frame header, an inapplicable codec, or compression
    that does not beat the raw encoding.
    """
    raw_nbytes = int(contiguous.nbytes)
    if not _wants_encoding(contiguous, codec_name):
        return "raw", raw_nbytes, None
    chosen: str | None
    if codec_name == "adaptive":
        chosen = _pick_adaptive(contiguous)
    else:
        chosen = codec_name if codec_name in _applicable_codecs(contiguous) else None
    if chosen is not None:
        payload = _ENCODERS[chosen](contiguous)
        # Hard guarantee: an encoded record is never larger than the raw one.
        if len(payload) + _frame_overhead(chosen, contiguous) < _legacy_record_size(contiguous):
            return chosen, len(payload), _build_frame(chosen, contiguous, payload)
    return "raw", raw_nbytes, None


def _record(contiguous: np.ndarray, encoded: tuple[str, int, bytes | None]) -> bytes | None:
    chosen, encoded_len, frame = encoded
    stats = active_stats()
    if stats is not None:
        stats.record_encode(chosen, int(contiguous.nbytes), encoded_len)
    return frame


def maybe_encode_frame(contiguous: np.ndarray) -> bytes | None:
    """Encode *contiguous* per this thread's active codec context.

    Returns the full codec frame, or ``None`` when the caller should write
    the legacy raw record (see :func:`encode_frame`).  Byte accounting goes
    to the context's :class:`CodecStats` either way.
    """
    return _record(contiguous, encode_frame(contiguous, active_codec()))


# -- concurrent encoding -----------------------------------------------------------


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def encode_frames(arrays: Sequence[np.ndarray]) -> Iterator[bytes | None]:
    """:func:`maybe_encode_frame` of every array, in order.

    When this thread's context carries a pool (set by :func:`serialize_all`)
    and at least two arrays need encoding, their frames are computed
    concurrently on that pool; the frames are yielded, and their stats
    recorded on the calling thread, in the order of *arrays* all the same,
    so the bytes cannot move.
    """
    codec_name, _, pool = _active_entry()
    wanted = [_wants_encoding(array, codec_name) for array in arrays]
    if pool is None or sum(wanted) < 2:
        for array in arrays:
            yield maybe_encode_frame(array)
        return
    pending = [
        pool.submit(encode_frame, array, codec_name) if want else None
        for array, want in zip(arrays, wanted)
    ]
    for array, future in zip(arrays, pending):
        yield maybe_encode_frame(array) if future is None else _record(array, future.result())


def serialize_all(states: Sequence, codec_name: str) -> tuple[list[bytes], CodecStats]:
    """``state.serialize()`` of every state under *codec_name*, in order.

    Returns the blobs and one :class:`CodecStats` covering all of them.
    With a codec to run and more than one CPU in the affinity mask, each
    state is serialized on its own walker thread with its own stats, which
    are merged in state order — equal to recording everything, in order,
    into one object — and the walkers' contexts share one pool of
    ``len(os.sched_getaffinity(0))`` threads for :func:`encode_frames`.
    Walkers and pool live for this call only: no codec thread outlives
    it, so a later ``fork()`` forks a process without them.  The raw codec
    and one CPU stay sequential, on the calling thread.
    """
    if codec_name == "raw" or not states or _cpu_count() < 2:
        stats = CodecStats()
        with encoding(codec_name, stats):
            return [state.serialize() for state in states], stats

    def walk(state) -> tuple[bytes, CodecStats]:
        own = CodecStats()
        with _CodecContext(codec_name, own, pool):
            return state.serialize(), own

    with ThreadPoolExecutor(_cpu_count(), thread_name_prefix="codec") as pool:
        with ThreadPoolExecutor(len(states), thread_name_prefix="codec-walker") as walkers:
            walked = list(walkers.map(walk, states))
    stats = CodecStats()
    for _, own in walked:
        stats.merge(own)
    return [blob for blob, _ in walked], stats


def read_frame(stream: BinaryIO, read_exact: Callable[[BinaryIO, int], bytes]) -> np.ndarray:
    """Read one codec frame (the sentinel ``u32`` has already been consumed)."""
    (version,) = _U32.unpack(read_exact(stream, _U32.size))
    if version != _FRAME_VERSION:
        raise CodecError(f"unsupported codec frame version {version}")
    (name_len,) = _U32.unpack(read_exact(stream, _U32.size))
    codec_name = read_exact(stream, name_len).decode("ascii")
    if codec_name not in _DECODERS:
        raise CodecError(f"unknown codec {codec_name!r} in frame")
    (dtype_len,) = _U32.unpack(read_exact(stream, _U32.size))
    dtype = np.dtype(read_exact(stream, dtype_len).decode("ascii"))
    (ndim,) = _U32.unpack(read_exact(stream, _U32.size))
    shape = tuple(_I64.unpack(read_exact(stream, _I64.size))[0] for _ in range(ndim))
    (raw_nbytes,) = _U64.unpack(read_exact(stream, _U64.size))
    (enc_len,) = _U64.unpack(read_exact(stream, _U64.size))
    payload = read_exact(stream, enc_len)
    array = _DECODERS[codec_name](payload, dtype, shape)
    if array.nbytes != raw_nbytes:
        raise CodecError(
            f"codec frame decoded to {array.nbytes} bytes, header says {raw_nbytes}"
        )
    stats = active_stats()
    if stats is not None:
        stats.record_decode(codec_name, raw_nbytes, enc_len)
    return array


# -- convenience single-array API --------------------------------------------------


def encode_array(array: np.ndarray, codec_name: str = "adaptive") -> bytes:
    """Standalone codec-framed encoding of one array (testing/tooling)."""
    from repro.storage import serialize

    import io as _io

    buffer = _io.BytesIO()
    with encoding(codec_name):
        serialize.write_array(buffer, array)
    return buffer.getvalue()


def decode_array(blob: bytes) -> np.ndarray:
    """Inverse of :func:`encode_array` (also reads legacy records)."""
    from repro.storage import serialize

    return serialize.deserialize_array(blob)


# -- virtual cost model ------------------------------------------------------------


def estimate_encode_seconds(codec_name: str, raw_bytes: float, time_scale: float = 1.0) -> float:
    """Virtual seconds to encode *raw_bytes* with *codec_name*."""
    throughput = _ENCODE_THROUGHPUT.get(codec_name)
    if throughput is None:
        raise CodecError(f"unknown codec {codec_name!r}")
    if throughput == float("inf"):
        return 0.0
    return raw_bytes / (throughput * time_scale)


def estimate_decode_seconds(codec_name: str, raw_bytes: float, time_scale: float = 1.0) -> float:
    """Virtual seconds to decode back to *raw_bytes* with *codec_name*."""
    throughput = _DECODE_THROUGHPUT.get(codec_name)
    if throughput is None:
        raise CodecError(f"unknown codec {codec_name!r}")
    if throughput == float("inf"):
        return 0.0
    return raw_bytes / (throughput * time_scale)


def _cost_from_stats(stats_json: dict | None, table: dict, time_scale: float) -> float:
    if not stats_json:
        return 0.0
    total = 0.0
    for name, bucket in stats_json.get("per_codec", {}).items():
        throughput = table.get(name, float("inf"))
        if throughput == float("inf"):
            continue
        total += bucket.get("raw_bytes", 0) / (throughput * time_scale)
    return total


def encode_cost_seconds(stats_json: dict | None, time_scale: float = 1.0) -> float:
    """Virtual encode cost from a :meth:`CodecStats.to_json` dump."""
    return _cost_from_stats(stats_json, _ENCODE_THROUGHPUT, time_scale)


def decode_cost_seconds(stats_json: dict | None, time_scale: float = 1.0) -> float:
    """Virtual decode cost from a :meth:`CodecStats.to_json` dump."""
    return _cost_from_stats(stats_json, _DECODE_THROUGHPUT, time_scale)
