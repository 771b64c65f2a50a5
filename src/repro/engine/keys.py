"""Exact key encoding for grouping and joining.

Two flavours are provided:

* :func:`pack_rows` — packs any mix of column types into fixed-width void
  (byte-string) keys.  Equality of tuples is exactly equality of packed
  bytes, and the byte order gives a total order, so the result works with
  ``np.unique``/``np.argsort``.  Used by grouping (single row set) when a
  key column is a string or float; all-integer keys group on byte-swapped
  words in the same order (see :func:`group_rows`).
* :func:`combine_int_keys` — injectively combines up to two non-negative
  integer key columns into one ``int64``.  Values from *different* arrays
  remain comparable (the mapping depends only on values), which is what a
  hash join needs to match probe keys against build keys.  All TPC-H join
  keys are integers, so this covers the benchmark exactly; wider needs can
  pre-factorize to integers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_rows", "combine_int_keys", "group_rows", "align_rows"]

_MAX_COMBINE = 1 << 31


def _normalize_keys(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Fixed-width contiguous key columns: the byte layout of a packed key.

    Objects become their common string width, floats float64, ints int64
    and bools uint8.
    """
    if not arrays:
        raise ValueError("need at least one key column")
    length = len(arrays[0])
    normalized = []
    for array in arrays:
        if len(array) != length:
            raise ValueError("key columns must have equal length")
        if array.dtype.kind == "O":
            array = array.astype(str)
        if array.dtype.kind == "f":
            array = np.ascontiguousarray(array, dtype=np.float64)
        elif array.dtype.kind in "iu":
            array = np.ascontiguousarray(array, dtype=np.int64)
        elif array.dtype.kind == "b":
            array = np.ascontiguousarray(array, dtype=np.uint8)
        else:
            array = np.ascontiguousarray(array)
        normalized.append(array)
    return normalized


def pack_rows(arrays: list[np.ndarray]) -> np.ndarray:
    """Pack parallel *arrays* into one void array of per-row byte keys."""
    normalized = _normalize_keys(arrays)
    length = len(normalized[0])
    if len(normalized) == 1:
        array = normalized[0]
        return array.view(np.dtype((np.void, array.dtype.itemsize)))
    total_width = sum(a.dtype.itemsize for a in normalized)
    packed = np.empty(length, dtype=np.dtype((np.void, total_width)))
    raw = packed.view(np.uint8).reshape(length, total_width)
    offset = 0
    for array in normalized:
        width = array.dtype.itemsize
        raw[:, offset : offset + width] = array.view(np.uint8).reshape(length, width)
        offset += width
    return packed


def combine_int_keys(arrays: list[np.ndarray]) -> np.ndarray:
    """Injectively combine 1–2 non-negative int key columns into int64.

    The combination is value-determined (``hi << 32 | lo``), so keys from
    different row sets (build vs probe side of a join) stay comparable.
    """
    if not 1 <= len(arrays) <= 2:
        raise ValueError(f"combine_int_keys supports 1 or 2 columns, got {len(arrays)}")
    casted = []
    for array in arrays:
        if array.dtype.kind not in "iu":
            raise TypeError(f"join keys must be integers, got dtype {array.dtype}")
        casted.append(array.astype(np.int64, copy=False))
    if len(casted) == 1:
        return casted[0]
    high, low = casted
    for name, array in (("high", high), ("low", low)):
        if len(array) and (array.min() < 0 or array.max() >= _MAX_COMBINE):
            raise ValueError(
                f"{name} join key out of range [0, 2^31) for injective combination"
            )
    return (high << 32) | low


def align_rows(base_arrays: list[np.ndarray], other_arrays: list[np.ndarray]) -> np.ndarray:
    """For each row of *other_arrays*, its row index in *base_arrays*.

    Rows are compared as tuples across the parallel column lists; missing
    rows map to ``-1``.  Assumes *base_arrays* rows are unique (group keys).
    """
    if len(base_arrays) != len(other_arrays):
        raise ValueError("base and other must have the same number of key columns")
    base_len = len(base_arrays[0])
    joined = [np.concatenate([b, o]) for b, o in zip(base_arrays, other_arrays)]
    packed = pack_rows(joined)
    uniques, inverse = np.unique(packed, return_inverse=True)
    base_inverse = inverse[:base_len]
    other_inverse = inverse[base_len:]
    lookup = np.full(len(uniques), -1, dtype=np.int64)
    lookup[base_inverse] = np.arange(base_len, dtype=np.int64)
    return lookup[other_inverse]


def group_rows(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
    """Group rows by the tuple of *arrays*.

    Returns ``(group_ids, first_occurrence, num_groups)`` where
    ``group_ids[i]`` is the dense group index of row ``i`` and
    ``first_occurrence[g]`` is a representative row index for group ``g``
    (usable to gather the group-key output columns).

    Groups are numbered in the ``memcmp`` order of the packed keys, and the
    representative is the group's first row.  All-integer keys (int, uint,
    bool) reach the same numbering without packing: the ``memcmp`` order
    of a little-endian word is the numeric order of its byte-swapped
    unsigned value, so one column is a ``np.unique`` over those values and
    several are a stable ``np.lexsort`` over them.
    """
    if all(array.dtype.kind in "iub" for array in arrays):
        words = [_memcmp_word(array) for array in _normalize_keys(arrays)]
        if len(words) > 1:
            return _group_sorted_words(words)
        keys = words[0]
    else:
        keys = pack_rows(arrays)
    _, first_occurrence, group_ids = np.unique(keys, return_index=True, return_inverse=True)
    return group_ids.astype(np.int64), first_occurrence.astype(np.int64), len(first_occurrence)


def _memcmp_word(array: np.ndarray) -> np.ndarray:
    """Unsigned words whose numeric order is the ``memcmp`` order of *array*.

    *array* is a normalized key column: int64, or uint8 for a bool.
    """
    if array.dtype.itemsize == 1:
        return array
    return array.view(np.uint64).byteswap()


def _group_sorted_words(words: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
    """``group_rows`` over several word columns via one stable lexsort."""
    length = len(words[0])
    if length == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0
    # lexsort's last key is the primary one.
    order = np.lexsort(words[::-1])
    starts = np.zeros(length, dtype=bool)
    starts[0] = True
    for word in words:
        ordered = word[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    group_ids = np.empty(length, dtype=np.int64)
    group_ids[order] = np.cumsum(starts) - 1
    first_occurrence = order[starts].astype(np.int64)
    return group_ids, first_occurrence, len(first_occurrence)
