"""Operator framework for the push-based engine.

A pipeline is ``Source → [StreamingOperator...] → Sink``.  Streaming
operators transform one chunk into another without retaining state.  Sinks
accumulate per-worker :class:`LocalSinkState` objects which are merged into
one :class:`GlobalSinkState` when the pipeline completes — the structure
Riveter's pipeline-level strategy relies on (Fig. 2 of the paper: suspend
only once thread-local results are merged into the global state, then
serialize the global state).

Both state kinds are byte-serializable: global states feed pipeline-level
snapshots, and local states additionally feed process-level images.
"""

from __future__ import annotations

import io

from repro.engine.chunk import DataChunk, concat_chunks
from repro.engine.types import DataType, Schema
from repro.storage import serialize

__all__ = [
    "StreamingOperator",
    "Source",
    "Sink",
    "LocalSinkState",
    "GlobalSinkState",
    "ChunkListLocalState",
    "MaterializedState",
    "chunk_to_stream",
    "chunk_from_stream",
    "chunks_to_bytes",
    "chunks_from_bytes",
    "schema_to_json",
    "schema_from_json",
]


def schema_to_json(schema: Schema) -> list[list[str]]:
    """JSON-serializable form of a schema."""
    return [[field.name, field.dtype.value] for field in schema]


def schema_from_json(payload: list[list[str]]) -> Schema:
    """Inverse of :func:`schema_to_json`."""
    return Schema.of(*[(name, DataType(tname)) for name, tname in payload])


def chunk_to_stream(stream: io.BytesIO, chunk: DataChunk) -> None:
    """Write a chunk (schema + columns) to *stream*."""
    serialize.write_json(stream, schema_to_json(chunk.schema))
    serialize.write_named_arrays(stream, chunk.to_dict())


def chunk_from_stream(stream: io.BytesIO) -> DataChunk:
    """Inverse of :func:`chunk_to_stream`."""
    schema = schema_from_json(serialize.read_json(stream))  # type: ignore[arg-type]
    arrays = serialize.read_named_arrays(stream)
    return DataChunk(schema, [arrays[name] for name in schema.names])


def chunks_to_bytes(chunks: list[DataChunk]) -> bytes:
    """Serialize a list of chunks."""
    buffer = io.BytesIO()
    serialize.write_json(buffer, len(chunks))
    for chunk in chunks:
        chunk_to_stream(buffer, chunk)
    return buffer.getvalue()


def chunks_from_bytes(blob: bytes) -> list[DataChunk]:
    """Inverse of :func:`chunks_to_bytes`."""
    buffer = io.BytesIO(blob)
    count = serialize.read_json(buffer)
    return [chunk_from_stream(buffer) for _ in range(int(count))]


class StreamingOperator:
    """Stateless chunk-at-a-time transformation within a pipeline."""

    #: cost-model kind, keyed into ``HardwareProfile.operator_cost_factors``
    kind: str = "project"

    def __init__(self, output_schema: Schema):
        self.output_schema = output_schema

    def execute(self, chunk: DataChunk) -> DataChunk:
        """Transform *chunk*; must not retain references to it."""
        raise NotImplementedError

    def bind_state(self, states: dict[int, "GlobalSinkState"]) -> None:
        """Resolve references to dependency global states (joins override)."""
        return None


class Source:
    """Morsel provider for a pipeline; supports cursor-based resumption."""

    kind: str = "scan"

    @property
    def output_schema(self) -> Schema:
        raise NotImplementedError

    @property
    def morsel_count(self) -> int:
        raise NotImplementedError

    @property
    def total_rows(self) -> int:
        raise NotImplementedError

    def get_morsel(self, index: int) -> DataChunk:
        """Chunk for morsel *index* in ``[0, morsel_count)``."""
        raise NotImplementedError


class LocalSinkState:
    """Per-worker accumulation state; serializable for process images."""

    @property
    def nbytes(self) -> int:
        raise NotImplementedError

    def serialize(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def deserialize(cls, blob: bytes) -> "LocalSinkState":
        raise NotImplementedError


class GlobalSinkState:
    """Merged pipeline result; serializable for pipeline-level snapshots."""

    finalized: bool = False

    @property
    def nbytes(self) -> int:
        raise NotImplementedError

    def serialize(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def deserialize(cls, blob: bytes) -> "GlobalSinkState":
        raise NotImplementedError


class ChunkListLocalState(LocalSinkState):
    """Common local state: a list of buffered chunks."""

    def __init__(self, chunks: list[DataChunk] | None = None):
        self.chunks: list[DataChunk] = list(chunks) if chunks else []

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self.chunks)

    @property
    def num_rows(self) -> int:
        return sum(c.num_rows for c in self.chunks)

    def serialize(self) -> bytes:
        return chunks_to_bytes(self.chunks)

    @classmethod
    def deserialize(cls, blob: bytes) -> "ChunkListLocalState":
        return cls(chunks_from_bytes(blob))


class MaterializedState(GlobalSinkState):
    """Buffered input chunks, then the one finalized result chunk.

    Only the finalized result is persisted: a snapshot holds exactly
    :func:`chunk_to_stream` of it.
    """

    def __init__(self) -> None:
        self.pending: list[DataChunk] = []
        self.result: DataChunk | None = None
        self.finalized = False

    @property
    def nbytes(self) -> int:
        total = sum(c.nbytes for c in self.pending)
        if self.result is not None:
            total += self.result.nbytes
        return int(total)

    def serialize(self) -> bytes:
        if not self.finalized:
            raise ValueError(f"cannot serialize an unfinalized {type(self).__name__}")
        buffer = io.BytesIO()
        chunk_to_stream(buffer, self.result)
        return buffer.getvalue()

    @classmethod
    def deserialize(cls, blob: bytes) -> "MaterializedState":
        state = cls()
        state.result = chunk_from_stream(io.BytesIO(blob))
        state.finalized = True
        return state


class Sink:
    """Pipeline terminator (a pipeline breaker in DuckDB terms).

    The base owns the state lifecycle: it builds and deserializes states
    through the two type attributes, buffers chunks into a
    :class:`ChunkListLocalState`, merges them into the global ``pending``
    list and concatenates them at finalize.  Sinks override only what
    differs.
    """

    kind: str = "result"
    local_state_type: type[LocalSinkState] = ChunkListLocalState
    global_state_type: type[GlobalSinkState] = MaterializedState

    def __init__(self, input_schema: Schema):
        self.input_schema = input_schema

    def make_local_state(self) -> LocalSinkState:
        """Fresh per-worker state."""
        return self.local_state_type()

    def make_global_state(self) -> GlobalSinkState:
        """Fresh (empty) global state."""
        return self.global_state_type()

    def sink(self, state: LocalSinkState, chunk: DataChunk) -> None:
        """Accumulate *chunk* into worker-local *state*."""
        state.chunks.append(chunk)

    def prepare(self, chunk: DataChunk) -> object:
        """Worker-side precomputation for :meth:`sink_prepared`.

        Must be a *pure function of the chunk* — no access to sink-local
        or global state — because the parallel backend runs it in a
        forked worker process and ships the returned payload back to the
        coordinator.  The default is the identity (the chunk itself);
        sinks whose per-chunk work is state-independent and expensive
        (e.g. hash aggregation's partial aggregate) override it to move
        that work onto the workers.  Sinks whose ``sink`` is
        state-dependent (e.g. LIMIT's early cut-off) must keep the
        default so the decision happens on the coordinator.
        """
        return chunk

    def sink_prepared(self, state: LocalSinkState, prepared: object) -> None:
        """Apply a payload from :meth:`prepare` to worker-local *state*.

        Called on the coordinator, strictly in morsel order.  Default:
        the payload is the chunk, so delegate to :meth:`sink`.
        """
        self.sink(state, prepared)

    def combine(self, global_state: GlobalSinkState, local_state: LocalSinkState) -> None:
        """Merge one worker's local state into the global state."""
        global_state.pending.extend(local_state.chunks)
        local_state.chunks = []

    def finalize(self, global_state: GlobalSinkState) -> None:
        """Complete the global state once all locals are combined."""
        global_state.result = concat_chunks(self.input_schema, global_state.pending)
        global_state.pending = []
        global_state.finalized = True

    def finalize_cost_rows(self, global_state: GlobalSinkState) -> int:
        """Row-equivalents of work done at finalize, for the clock."""
        return 0

    def deserialize_global_state(self, blob: bytes) -> GlobalSinkState:
        """Rebuild a finalized global state from snapshot bytes."""
        return self.global_state_type.deserialize(blob)

    def deserialize_local_state(self, blob: bytes) -> LocalSinkState:
        """Rebuild a local state from process-image bytes."""
        return self.local_state_type.deserialize(blob)

    def result_chunk(self, global_state: GlobalSinkState) -> DataChunk:
        """Materialized result for sinks that downstream pipelines scan."""
        if not isinstance(global_state, MaterializedState):
            raise NotImplementedError(f"{type(self).__name__} has no scannable result")
        if not global_state.finalized:
            raise ValueError(f"{self.kind} state not finalized")
        return global_state.result
