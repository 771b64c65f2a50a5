"""Limit sink: materializes at most N input rows (a pipeline breaker)."""

from __future__ import annotations

from repro.engine.chunk import DataChunk
from repro.engine.operators.base import ChunkListLocalState, MaterializedState, Sink
from repro.engine.types import Schema

__all__ = ["LimitSink"]


class LimitSink(Sink):
    """Keeps the first *limit* rows in input order."""

    kind = "limit"

    def __init__(self, input_schema: Schema, limit: int):
        super().__init__(input_schema)
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        self.limit = limit
        self.output_schema = input_schema

    # Note: sink() reads the local state (early cut-off once a worker has
    # buffered enough rows), so this sink keeps the default Sink.prepare —
    # the keep/drop decision must happen on the coordinator, in morsel
    # order, for parallel runs to stay byte-identical to inline runs.
    def sink(self, state: ChunkListLocalState, chunk: DataChunk) -> None:
        if state.num_rows < self.limit:
            state.chunks.append(chunk)

    def finalize(self, global_state: MaterializedState) -> None:
        super().finalize(global_state)
        merged = global_state.result
        global_state.result = merged.slice(0, min(self.limit, merged.num_rows))
