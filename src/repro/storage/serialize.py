"""Binary (de)serialization for NumPy arrays and simple Python values.

This module is the persistence backbone used by the ``.rcol`` columnar file
format and by suspension snapshots.  The format is deliberately simple and
self-describing:

* an array record is ``[dtype-str-len u32][dtype-str][shape-len u32]
  [shape i64 * n][payload-len u64][payload bytes]``;
* a mapping of named arrays is a count followed by ``(name, array)`` records.

When a codec context (:mod:`repro.storage.codec`) is active, array records
may instead be written as *codec frames*: the first ``u32`` carries the
sentinel ``0xFFFFFFFF`` (impossible as a dtype-string length) and the rest
is a versioned, self-describing compressed record.  ``read_array``
transparently handles both formats, so codec-encoded and legacy snapshots
interoperate.

Unicode (``<U``) arrays round-trip exactly; object arrays are rejected so
that snapshot sizes remain meaningful byte counts.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from typing import BinaryIO

import numpy as np

from repro.storage import codec

__all__ = [
    "write_array",
    "read_array",
    "serialize_array",
    "deserialize_array",
    "write_named_arrays",
    "read_named_arrays",
    "serialize_named_arrays",
    "deserialize_named_arrays",
    "write_json",
    "read_json",
]

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")


class SerializationError(ValueError):
    """Raised when a payload cannot be serialized or parsed."""


def _contiguous(array: np.ndarray) -> np.ndarray:
    if array.dtype.kind == "O":
        raise SerializationError("object arrays are not serializable; use unicode dtype")
    return np.ascontiguousarray(array)


def _write_record(stream: BinaryIO, contiguous: np.ndarray, frame: bytes | None) -> int:
    """Write *frame*, or the legacy record of *contiguous* when it is ``None``."""
    if frame is not None:
        stream.write(frame)
        return len(frame)
    dtype_str = contiguous.dtype.str.encode("ascii")
    written = 0
    for blob in (_U32.pack(len(dtype_str)), dtype_str):
        stream.write(blob)
        written += len(blob)
    stream.write(_U32.pack(contiguous.ndim))
    written += _U32.size
    for dim in contiguous.shape:
        stream.write(_I64.pack(dim))
        written += _I64.size
    stream.write(_U64.pack(contiguous.nbytes))
    # memoryview avoids the tobytes() copy; the stream consumes it directly.
    stream.write(memoryview(contiguous) if contiguous.ndim == 0 else memoryview(contiguous).cast("B"))
    written += _U64.size + contiguous.nbytes
    return written


def write_array(stream: BinaryIO, array: np.ndarray) -> int:
    """Write *array* to *stream*; returns the number of bytes written.

    Emits a codec frame instead of the legacy record when an encoding
    context is active and the codec beats the raw representation.
    """
    contiguous = _contiguous(array)
    return _write_record(stream, contiguous, codec.maybe_encode_frame(contiguous))


def read_array(stream: BinaryIO) -> np.ndarray:
    """Read one array record previously written by :func:`write_array`."""
    first = _U32.unpack(_read_exact(stream, _U32.size))[0]
    if first == codec.FRAME_SENTINEL:
        return codec.read_frame(stream, _read_exact)
    dtype = np.dtype(_read_exact(stream, first).decode("ascii"))
    ndim = _U32.unpack(_read_exact(stream, _U32.size))[0]
    shape = tuple(_I64.unpack(_read_exact(stream, _I64.size))[0] for _ in range(ndim))
    payload_len = _U64.unpack(_read_exact(stream, _U64.size))[0]
    # Reading into a mutable bytearray lets frombuffer return a writable
    # array without the trailing copy the old bytes-based path needed.
    payload = bytearray(payload_len)
    _read_exact_into(stream, payload)
    return np.frombuffer(payload, dtype=dtype).reshape(shape)


def serialize_array(array: np.ndarray) -> bytes:
    """Return the byte encoding of a single array."""
    buffer = io.BytesIO()
    write_array(buffer, array)
    return buffer.getvalue()


def deserialize_array(blob: bytes) -> np.ndarray:
    """Inverse of :func:`serialize_array`."""
    return read_array(io.BytesIO(blob))


def write_named_arrays(stream: BinaryIO, arrays: dict[str, np.ndarray]) -> int:
    """Write a name→array mapping; returns total bytes written.

    Under an encoding context the arrays' frames may be computed
    concurrently (:func:`repro.storage.codec.encode_frames`); names, frames
    and legacy records are still written in the mapping's order.
    """
    contiguous = [_contiguous(array) for array in arrays.values()]
    stream.write(_U32.pack(len(arrays)))
    written = _U32.size
    for name, array, frame in zip(arrays, contiguous, codec.encode_frames(contiguous)):
        encoded = name.encode("utf-8")
        stream.write(_U32.pack(len(encoded)))
        stream.write(encoded)
        written += _U32.size + len(encoded)
        written += _write_record(stream, array, frame)
    return written


def read_named_arrays(stream: BinaryIO) -> dict[str, np.ndarray]:
    """Inverse of :func:`write_named_arrays`."""
    count = _U32.unpack(_read_exact(stream, _U32.size))[0]
    result: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = _U32.unpack(_read_exact(stream, _U32.size))[0]
        name = _read_exact(stream, name_len).decode("utf-8")
        result[name] = read_array(stream)
    return result


def serialize_named_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    """Byte encoding of a name→array mapping."""
    buffer = io.BytesIO()
    write_named_arrays(buffer, arrays)
    return buffer.getvalue()


def deserialize_named_arrays(blob: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`serialize_named_arrays`."""
    return read_named_arrays(io.BytesIO(blob))


def write_json(stream: BinaryIO, value: object) -> int:
    """Write a length-prefixed JSON document."""
    payload = json.dumps(value, separators=(",", ":")).encode("utf-8")
    stream.write(_U64.pack(len(payload)))
    stream.write(payload)
    return _U64.size + len(payload)


def read_json(stream: BinaryIO) -> object:
    """Inverse of :func:`write_json`."""
    payload_len = _U64.unpack(_read_exact(stream, _U64.size))[0]
    return json.loads(_read_exact(stream, payload_len).decode("utf-8"))


def write_compressed_json(stream: BinaryIO, value: object) -> int:
    """Write a length-prefixed zlib-compressed JSON document.

    Used for metadata-heavy headers (delta snapshot wrappers are mostly
    hex hashes and repeated keys) where the JSON itself would otherwise
    dominate the file size.
    """
    payload = zlib.compress(
        json.dumps(value, separators=(",", ":")).encode("utf-8"), 6
    )
    stream.write(_U64.pack(len(payload)))
    stream.write(payload)
    return _U64.size + len(payload)


def read_compressed_json(stream: BinaryIO) -> object:
    """Inverse of :func:`write_compressed_json`."""
    payload_len = _U64.unpack(_read_exact(stream, _U64.size))[0]
    payload = zlib.decompress(_read_exact(stream, payload_len))
    return json.loads(payload.decode("utf-8"))


def _read_exact(stream: BinaryIO, size: int) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise SerializationError(f"truncated stream: wanted {size} bytes, got {len(data)}")
    return data


def _read_exact_into(stream: BinaryIO, buffer: bytearray) -> None:
    readinto = getattr(stream, "readinto", None)
    if readinto is not None:
        got = readinto(buffer)
        if got != len(buffer):
            raise SerializationError(
                f"truncated stream: wanted {len(buffer)} bytes, got {got}"
            )
        return
    buffer[:] = _read_exact(stream, len(buffer))
