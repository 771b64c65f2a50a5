"""Exact key encoding for grouping and joining.

Two flavours are provided:

* :func:`pack_rows` — packs any mix of column types into fixed-width void
  (byte-string) keys.  Equality of tuples is exactly equality of packed
  bytes, and the byte order gives a total order, so the result works with
  ``np.unique``/``np.argsort``.  :func:`group_rows` numbers groups in that
  order, but sorts packed keys only when its two faster paths cannot take
  the key (see there).
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

# Dense grouping (DESIGN.md, "Dense grouping") takes a key of at least
# this many rows, with at most this many non-constant words, whose word
# spans multiply to at most this bound; the count array then stays
# within ``bound x 8`` bytes.  Below the row threshold the sort paths
# are as fast.
_DENSE_GROUP_MIN_ROWS = 2048
_DENSE_GROUP_MAX_WORDS = 8
_DENSE_GROUP_SPAN_MAX = 1 << 16


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
    return _pack_normalized(_normalize_keys(arrays))


def _pack_normalized(normalized: list[np.ndarray]) -> np.ndarray:
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
    # Only the equality partition of the group ids is used, not their order.
    group_ids, _, num_groups = group_rows(joined)
    lookup = np.full(num_groups, -1, dtype=np.int64)
    lookup[group_ids[:base_len]] = np.arange(base_len, dtype=np.int64)
    return lookup[group_ids[base_len:]]


def group_rows(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
    """Group rows by the tuple of *arrays*.

    Returns ``(group_ids, first_occurrence, num_groups)`` where
    ``group_ids[i]`` is the dense group index of row ``i`` and
    ``first_occurrence[g]`` is a representative row index for group ``g``
    (usable to gather the group-key output columns).

    Groups are numbered in the ``memcmp`` order of the packed keys, and the
    representative is the group's first row.  Three paths reach that
    numbering; the first that takes the key wins:

    * **dense** — int, uint, bool and ``<Uk`` keys of at least
      ``_DENSE_GROUP_MIN_ROWS`` rows whose words span a small range group
      by ranks with no comparison sort (:func:`_group_dense`);
    * **integer** — all-integer keys (int, uint, bool) sort byte-swapped
      words: the ``memcmp`` order of a little-endian word is the numeric
      order of its byte-swapped unsigned value, so one column is a
      ``np.unique`` over those values and several are a stable
      ``np.lexsort`` over them;
    * **void** — everything else (float or object columns, wide string
      spans) runs ``np.unique`` over the packed void keys.
    """
    normalized = _normalize_keys(arrays)
    if len(normalized[0]) >= _DENSE_GROUP_MIN_ROWS and all(
        array.dtype.kind in "iubU" for array in arrays
    ):
        grouped = _group_dense(normalized)
        if grouped is not None:
            return grouped
    if all(array.dtype.kind in "iub" for array in arrays):
        words = [_memcmp_word(array) for array in normalized]
        if len(words) > 1:
            return _group_sorted_words(words)
        keys = words[0]
    else:
        keys = _pack_normalized(normalized)
    _, first_occurrence, group_ids = np.unique(keys, return_index=True, return_inverse=True)
    return group_ids.astype(np.int64), first_occurrence.astype(np.int64), len(first_occurrence)


def _group_dense(
    normalized: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """``group_rows`` by perfect hashing, or ``None`` when the gate refuses.

    *normalized* are normalized key columns: int64, uint8 (bool) or
    ``<Uk``.  Each is cut into the words whose ``memcmp`` order is the
    packed key's: an int64 or a bool is one word, and a ``<Uk`` string is
    its ``k`` UCS-4 code units, ``view(uint32).reshape(n, k)``, compared
    first to last.  A word orders by its byte-swapped value, like
    :func:`_memcmp_word`.  Each word's values become their ranks among the
    word's present values; the ranks combine mixed-radix, first word most
    significant, so the numeric order of the combined code is the packed
    key's ``memcmp`` order.  A ``bincount`` over the codes then numbers the
    groups in that order.  The gate reads only each word's min and max:
    constant words drop out, and the rest must be at most
    ``_DENSE_GROUP_MAX_WORDS`` words whose spans multiply to at most
    ``_DENSE_GROUP_SPAN_MAX``.  The row threshold is the caller's.
    """
    length = len(normalized[0])
    if length == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0
    words: list[tuple[np.ndarray, int, int]] = []
    product = 1
    for word in _key_words(normalized):
        low, high = int(word.min()), int(word.max())
        span = high - low + 1
        if span == 1:
            continue
        product *= span
        words.append((word, low, span))
        if len(words) > _DENSE_GROUP_MAX_WORDS or product > _DENSE_GROUP_SPAN_MAX:
            return None
    codes = np.zeros(length, dtype=np.int64)
    size = 1
    for word, low, span in words:
        offsets = word - low
        present = np.flatnonzero(np.bincount(offsets))
        order = np.argsort(_memcmp_word((present + low).astype(word.dtype)))
        rank = np.empty(span, dtype=np.int64)
        rank[present[order]] = np.arange(len(present))
        codes = codes * len(present) + rank[offsets]
        size *= len(present)
    group_of = np.cumsum(np.bincount(codes, minlength=size) > 0) - 1
    group_ids = group_of[codes]
    num_groups = int(group_of[-1]) + 1
    first_occurrence = np.full(num_groups, length, dtype=np.int64)
    np.minimum.at(first_occurrence, group_ids, np.arange(length, dtype=np.int64))
    return group_ids, first_occurrence, num_groups


def _key_words(normalized: list[np.ndarray]):
    """The words of the packed key, most significant first.

    A ``<Uk`` column yields its ``k`` code-unit columns (strided views);
    any other normalized column is one word.  One word at a time, so the
    dense gate stops reading at the first word past its bound.
    """
    for array in normalized:
        if array.dtype.kind == "U":
            yield from array.view(np.uint32).reshape(len(array), array.dtype.itemsize // 4).T
        else:
            yield array


def _memcmp_word(array: np.ndarray) -> np.ndarray:
    """Unsigned words whose numeric order is the ``memcmp`` order of *array*.

    *array* is a normalized key column (int64, or uint8 for a bool) or a
    column of UCS-4 code units (uint32).
    """
    if array.dtype.itemsize == 1:
        return array
    return array.view(np.dtype(f"u{array.dtype.itemsize}")).byteswap()


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
