"""Pluggable compute kernels: vectorized NumPy vs row-at-a-time scalar.

The hot operator paths — expression evaluation (filter masks, projections,
join residuals), grouping, scatter reductions, and the hash-join build/
probe primitives — go through a :class:`KernelSet` so the executor can
select an implementation per query:

* :class:`NumpyKernels` (default) is the whole-chunk vectorized path the
  engine has always used.
* :class:`ScalarKernels` is a row-at-a-time reference implementation.

Both produce **bit-identical** results.  That is not an accident but a
set of carefully matched invariants:

* grouping orders groups by the byte-lexicographic order of their packed
  keys (``np.unique`` on void views compares with ``memcmp``; the scalar
  path sorts Python ``bytes``, which compares the same way), and both
  report first-occurrence representatives;
* scatter reductions accumulate in input-row order (``np.bincount`` with
  weights adds sequentially in C; the scalar loop does the same IEEE
  double additions in the same order);
* the numpy set reaches that order without packing where it can
  (:func:`repro.engine.keys.group_rows` has the three paths).  The
  ``memcmp`` order of a little-endian word is the numeric order of the
  byte-swapped word (the most significant byte compares first), a bool
  packs as one byte, and a ``<Uk`` string packs as ``k`` little-endian
  UCS-4 code units compared first to last.  So keys of at least 2048 rows
  whose int, bool and code-unit words span a small range group by dense
  ranks over those words (no sort at all); other all-integer keys run a
  ``np.unique`` over one byte-swapped column or a stable ``np.lexsort``
  over several; only float, object and wide string keys sort packed void
  keys.  Each numbers the groups and picks the first rows exactly as the
  void path does;
* the build order is a stable sort of the key codes (``np.argsort(kind=
  "stable")`` vs Python's stable ``sorted``), probe ranges equal binary
  search (``bisect`` in the scalar set; in the numpy set a dense index
  or ``np.searchsorted``, see :meth:`NumpyKernels.probe_index`), and
  match expansion is probe-major with ascending build positions in both
  paths;
* expression evaluation relies on every expression having a
  value-independent result dtype (see :mod:`repro.engine.expressions`),
  so concatenating per-row evaluations equals the full-vector result.

The vectorized kernels cover every input the engine produces; the numpy
set still checks each call and *falls back to the scalar kernel per
chunk* for inputs the vector path cannot take (e.g. per-group min/max
over string or object columns, where ``np.minimum.reduceat`` has no
ufunc loop).  Shared utilities that are pure data movement or already
exact in both worlds — key packing, gathers, ``align_rows``,
concatenation — are not duplicated and stay vectorized under either
kernel set.

The active set is module-level state (:func:`set_kernels` /
:func:`get_kernels`); :class:`~repro.engine.executor.QueryExecutor`
installs its configured set for the duration of ``run()`` and restores
the previous one after, so nested executors compose.  Forked parallel
workers inherit the active set from the parent.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple

import numpy as np

from repro.engine.errors import EngineError
from repro.engine.keys import combine_int_keys, group_rows

__all__ = [
    "DenseProbeIndex",
    "KernelSet",
    "NumpyKernels",
    "ScalarKernels",
    "KERNEL_NAMES",
    "get_kernels",
    "set_kernels",
    "resolve_kernels",
]

KERNEL_NAMES = ("scalar", "numpy")

# A dense probe index covers builds whose key span is at most this many
# slots, whatever the build's row count: the hot TPC-H probes run against
# small builds over wide key ranges (DESIGN.md, "Dense probe index"), and
# a fixed bound caps the index at 2 x 8 x (span + 2) bytes.
_DENSE_SPAN_MAX = 1 << 18
_INT64 = np.iinfo(np.int64)


class DenseProbeIndex(NamedTuple):
    """Per-slot match ranges over ``[below, above]`` for sorted build codes.

    Slot ``0`` stands for every probe code below the smallest build code
    and the last slot for every code above the largest; both hold no
    matches.  ``first[s]`` and ``first[s] + count[s]`` are then the
    ``searchsorted`` left/right bounds of code ``below + s``.
    """

    below: int
    above: int
    first: np.ndarray
    count: np.ndarray


class KernelSet:
    """Interface for the per-chunk compute primitives."""

    name = "abstract"

    # -- expressions -------------------------------------------------------
    def evaluate(self, expression, chunk) -> np.ndarray:
        """Evaluate *expression* over every row of *chunk*."""
        raise NotImplementedError

    # -- grouping and reductions -------------------------------------------
    def group_rows(self, arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
        """Dense group ids, first-occurrence representatives, group count."""
        raise NotImplementedError

    def grouped_sum(
        self, group_ids: np.ndarray, values: np.ndarray, num_groups: int
    ) -> np.ndarray:
        """Per-group float64 sums, accumulated in input-row order."""
        raise NotImplementedError

    def grouped_count(self, group_ids: np.ndarray, num_groups: int) -> np.ndarray:
        """Per-group row counts as int64."""
        raise NotImplementedError

    def grouped_extreme(
        self, group_ids: np.ndarray, values: np.ndarray, num_groups: int, take_min: bool
    ) -> np.ndarray:
        """Per-group min/max in the input dtype (NaNs propagate)."""
        raise NotImplementedError

    # -- hash join ----------------------------------------------------------
    def join_codes(self, arrays: list[np.ndarray]) -> np.ndarray:
        """Injective int64 codes for 1–2 integer join-key columns."""
        return combine_int_keys(arrays)

    def build_order(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stable sort of build codes: ``(codes_sorted, order)``."""
        raise NotImplementedError

    def probe_index(self, codes_sorted: np.ndarray) -> object | None:
        """Derived lookup for :meth:`probe_ranges`, or None for binary search.

        Built once per bound build; never serialized or memory-accounted.
        """
        return None

    def probe_ranges(
        self, codes_sorted: np.ndarray, probe_codes: np.ndarray, index: object | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-probe-row ``[left, right)`` match range in the sorted codes.

        *index* is this set's :meth:`probe_index` of *codes_sorted*; it
        changes how the ranges are found, never what they are.
        """
        raise NotImplementedError

    def expand_matches(
        self, left: np.ndarray, counts: np.ndarray, order: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expand match ranges into probe-major ``(probe_idx, build_idx)``."""
        raise NotImplementedError


class NumpyKernels(KernelSet):
    """Whole-chunk vectorized kernels (the engine's historical path)."""

    name = "numpy"

    def __init__(self) -> None:
        self._scalar = ScalarKernels()

    def evaluate(self, expression, chunk) -> np.ndarray:
        return expression.evaluate(chunk)

    def group_rows(self, arrays):
        try:
            return group_rows(arrays)
        except (TypeError, ValueError):
            # Per-chunk fallback: key dtypes the packed-void path cannot
            # normalize are grouped row-at-a-time instead.
            return self._scalar.group_rows(arrays)

    def grouped_sum(self, group_ids, values, num_groups):
        # bincount returns int64 (not float64) when ids and weights are
        # both empty; the cast is a no-op on every non-empty input.
        out = np.bincount(group_ids, weights=values, minlength=num_groups)
        return out.astype(np.float64, copy=False)

    def grouped_count(self, group_ids, num_groups):
        return np.bincount(group_ids, minlength=num_groups).astype(np.int64)

    def grouped_extreme(self, group_ids, values, num_groups, take_min):
        if values.dtype.kind in "OSU":
            # Per-chunk fallback: min/max ufuncs have no string loop.
            return self._scalar.grouped_extreme(group_ids, values, num_groups, take_min)
        if num_groups == 0:
            return values[:0]
        order = np.argsort(group_ids, kind="stable")
        sorted_values = values[order]
        boundaries = np.searchsorted(group_ids[order], np.arange(num_groups))
        reducer = np.minimum if take_min else np.maximum
        return reducer.reduceat(sorted_values, boundaries)

    def build_order(self, codes):
        order = np.argsort(codes, kind="stable").astype(np.int64)
        return codes[order], order

    def probe_index(self, codes_sorted):
        """A :class:`DenseProbeIndex` when the build keys span few slots.

        Taken for non-empty int64 builds whose span ``hi - lo + 1`` is at
        most ``2**18`` and whose padding slots ``lo - 1`` / ``hi + 1`` are
        representable; the rest use ``searchsorted``.
        """
        if len(codes_sorted) == 0 or codes_sorted.dtype != np.int64:
            return None
        lo, hi = int(codes_sorted[0]), int(codes_sorted[-1])
        if lo == _INT64.min or hi == _INT64.max:
            return None
        span = hi - lo + 1
        if span > _DENSE_SPAN_MAX:
            return None
        count = np.zeros(span + 2, dtype=np.int64)
        count[1:-1] = np.bincount(codes_sorted - codes_sorted[0], minlength=span)
        first = np.cumsum(count) - count
        return DenseProbeIndex(lo - 1, hi + 1, first, count)

    def probe_ranges(self, codes_sorted, probe_codes, index=None):
        if index is not None:
            slot = np.clip(probe_codes, index.below, index.above)
            slot -= index.below
            left = index.first[slot]
            return left, left + index.count[slot]
        left = np.searchsorted(codes_sorted, probe_codes, side="left").astype(np.int64)
        right = np.searchsorted(codes_sorted, probe_codes, side="right").astype(np.int64)
        return left, right

    def expand_matches(self, left, counts, order):
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        probe_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        starts = np.repeat(left.astype(np.int64), counts)
        run_starts = np.repeat(np.cumsum(counts) - counts, counts)
        within = np.arange(total, dtype=np.int64) - run_starts
        return probe_idx, order[starts + within]


class ScalarKernels(KernelSet):
    """Row-at-a-time reference kernels, bit-identical to the numpy set."""

    name = "scalar"

    def evaluate(self, expression, chunk) -> np.ndarray:
        num_rows = chunk.num_rows
        if num_rows == 0:
            # Result dtypes are value-independent, so the empty chunk
            # evaluates to the correctly-typed empty array directly.
            return expression.evaluate(chunk)
        parts = [
            expression.evaluate(chunk.slice(row, row + 1)) for row in range(num_rows)
        ]
        return np.concatenate(parts)

    def group_rows(self, arrays):
        keys = _row_keys(arrays)
        first: dict[bytes, int] = {}
        for row, key in enumerate(keys):
            if key not in first:
                first[key] = row
        # Python bytes order lexicographically by byte value — the same
        # memcmp order np.unique applies to packed void keys.
        ordered = sorted(first)
        group_of = {key: gid for gid, key in enumerate(ordered)}
        group_ids = np.fromiter(
            (group_of[key] for key in keys), dtype=np.int64, count=len(keys)
        )
        first_idx = np.fromiter(
            (first[key] for key in ordered), dtype=np.int64, count=len(ordered)
        )
        return group_ids, first_idx, len(ordered)

    def grouped_sum(self, group_ids, values, num_groups):
        out = np.zeros(num_groups, dtype=np.float64)
        doubles = np.asarray(values, dtype=np.float64)
        for row, gid in enumerate(group_ids.tolist()):
            out[gid] += doubles[row]
        return out

    def grouped_count(self, group_ids, num_groups):
        out = np.zeros(num_groups, dtype=np.int64)
        for gid in group_ids.tolist():
            out[gid] += 1
        return out

    def grouped_extreme(self, group_ids, values, num_groups, take_min):
        if num_groups == 0:
            return values[:0]
        out = np.empty(num_groups, dtype=values.dtype)
        seen = np.zeros(num_groups, dtype=bool)
        numeric = values.dtype.kind not in "OSU"
        if numeric:
            pick = np.minimum if take_min else np.maximum
        else:
            pick = min if take_min else max
        for row, gid in enumerate(group_ids.tolist()):
            value = values[row]
            if not seen[gid]:
                out[gid] = value
                seen[gid] = True
            else:
                out[gid] = pick(out[gid], value)
        return out

    def build_order(self, codes):
        order = np.fromiter(
            sorted(range(len(codes)), key=codes.__getitem__),
            dtype=np.int64,
            count=len(codes),
        )
        return codes[order], order

    def probe_ranges(self, codes_sorted, probe_codes, index=None):
        haystack = codes_sorted.tolist()
        count = len(probe_codes)
        left = np.fromiter(
            (bisect.bisect_left(haystack, code) for code in probe_codes.tolist()),
            dtype=np.int64,
            count=count,
        )
        right = np.fromiter(
            (bisect.bisect_right(haystack, code) for code in probe_codes.tolist()),
            dtype=np.int64,
            count=count,
        )
        return left, right

    def expand_matches(self, left, counts, order):
        probe_out: list[int] = []
        build_out: list[int] = []
        for row in range(len(counts)):
            start = int(left[row])
            for position in range(start, start + int(counts[row])):
                probe_out.append(row)
                build_out.append(int(order[position]))
        return (
            np.array(probe_out, dtype=np.int64),
            np.array(build_out, dtype=np.int64),
        )


def _row_keys(arrays: list[np.ndarray]) -> list[bytes]:
    """Per-row packed key bytes, matching :func:`repro.engine.keys.pack_rows`.

    Columns are normalized exactly like ``pack_rows`` (objects to their
    common string width, floats to float64, ints to int64, bools to
    uint8) and each row key is the concatenation of the columns' raw
    little-endian bytes — so equality and lexicographic order match the
    packed void keys bit for bit.
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
    return [
        b"".join(column[row : row + 1].tobytes() for column in normalized)
        for row in range(length)
    ]


_KERNEL_SETS: dict[str, KernelSet] = {
    "numpy": NumpyKernels(),
    "scalar": ScalarKernels(),
}

_active: KernelSet = _KERNEL_SETS["numpy"]


def resolve_kernels(spec: KernelSet | str | None) -> KernelSet:
    """Map a CLI/executor spec (name, instance, or None) to a kernel set."""
    if spec is None:
        return _KERNEL_SETS["numpy"]
    if isinstance(spec, KernelSet):
        return spec
    try:
        return _KERNEL_SETS[spec]
    except KeyError:
        raise EngineError(
            f"unknown kernel set {spec!r}; expected one of {KERNEL_NAMES}"
        ) from None


def get_kernels() -> KernelSet:
    """The kernel set active for the current process."""
    return _active


def set_kernels(spec: KernelSet | str | None) -> KernelSet:
    """Install a kernel set; returns the previous one (for restore)."""
    global _active
    previous = _active
    _active = resolve_kernels(spec)
    return previous
