"""Sort (optionally with a row limit, i.e. top-N) — a pipeline breaker."""

from __future__ import annotations

import math

import numpy as np

from repro.engine.operators.base import MaterializedState, Sink
from repro.engine.types import Schema

__all__ = ["SortSink", "SortGlobalState", "sort_indices"]


def sort_indices(arrays: list[np.ndarray], ascending: list[bool]) -> np.ndarray:
    """Row order sorting by *arrays* (first array is the primary key).

    Descending order on strings is handled by factorizing to integer codes
    and negating; numeric keys are negated directly.
    """
    if len(arrays) != len(ascending):
        raise ValueError("one ascending flag per sort key is required")
    lexsort_keys = []
    for array, asc in zip(arrays, ascending):
        if not asc:
            if array.dtype.kind in "iufb":
                array = -array.astype(np.float64 if array.dtype.kind == "f" else np.int64)
            else:
                _, codes = np.unique(array, return_inverse=True)
                array = -codes.astype(np.int64)
        lexsort_keys.append(array)
    # np.lexsort treats the LAST key as primary.
    return np.lexsort(tuple(reversed(lexsort_keys)))


class SortGlobalState(MaterializedState):
    """Buffered input chunks, then the finalized sorted (limited) chunk."""

    #: rows sorted at finalize, for :meth:`SortSink.finalize_cost_rows`
    input_rows = 0


class SortSink(Sink):
    """Materializes input, sorts it by the given keys, applies a limit."""

    kind = "sort"
    global_state_type = SortGlobalState

    def __init__(
        self,
        input_schema: Schema,
        sort_keys: list[tuple[str, bool]],
        limit: int | None = None,
    ):
        super().__init__(input_schema)
        for name, _asc in sort_keys:
            if name not in input_schema:
                raise KeyError(f"sort key {name!r} not in schema {input_schema.names}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        self.sort_keys = list(sort_keys)
        self.limit = limit
        self.output_schema = input_schema

    def finalize(self, global_state: SortGlobalState) -> None:
        super().finalize(global_state)
        merged = global_state.result
        global_state.input_rows = merged.num_rows
        if self.sort_keys and merged.num_rows:
            order = sort_indices(
                [merged.column(name) for name, _ in self.sort_keys],
                [asc for _, asc in self.sort_keys],
            )
            merged = merged.take(order)
        if self.limit is not None:
            merged = merged.slice(0, min(self.limit, merged.num_rows))
        global_state.result = merged

    def finalize_cost_rows(self, global_state: SortGlobalState) -> int:
        rows = global_state.input_rows
        # n log n sorting work expressed in row-equivalents for the clock
        return int(rows * max(1.0, math.log2(rows + 2) / 4.0))
