"""Hash join: build sink (a pipeline breaker) and streaming probe operator.

Mirrors the paper's Fig. 4: the build side is its own pipeline whose sink
accumulates per-worker chunk lists; at pipeline completion the locals are
merged into a global state holding the "hash table" (here: sorted join-key
codes plus the payload rows).  The probe side is a streaming operator in a
later pipeline that binds to that global state.

The build global state is exactly what the pipeline-level strategy must
persist when a query is suspended after a build pipeline — which is why
join-suspended queries show large intermediate data in Fig. 8.
"""

from __future__ import annotations

import enum
import io

import numpy as np

from repro.engine.chunk import DataChunk, concat_chunks, record_materialization
from repro.engine.expressions import Expression
from repro.engine.kernels import get_kernels
from repro.engine.operators.base import (
    GlobalSinkState,
    Sink,
    StreamingOperator,
    chunk_from_stream,
    chunk_to_stream,
)
from repro.engine.types import DataType, Schema
from repro.storage import serialize

__all__ = ["JoinType", "HashJoinBuildSink", "HashJoinProbeOperator", "JoinBuildGlobalState"]


class JoinType(enum.Enum):
    """Supported join semantics (probe side is the left/outer side)."""

    INNER = "inner"
    LEFT_OUTER = "left_outer"
    SEMI = "semi"
    ANTI = "anti"


class JoinBuildGlobalState(GlobalSinkState):
    """Merged build side: sorted key codes + payload rows."""

    def __init__(self) -> None:
        self.pending: list[DataChunk] = []
        self.codes_sorted: np.ndarray | None = None
        self.order: np.ndarray | None = None
        self.payload: DataChunk | None = None
        self.finalized = False

    @property
    def nbytes(self) -> int:
        total = sum(c.nbytes for c in self.pending)
        if self.codes_sorted is not None:
            total += self.codes_sorted.nbytes
        if self.order is not None:
            total += self.order.nbytes
        if self.payload is not None:
            total += self.payload.nbytes
        return int(total)

    def serialize(self) -> bytes:
        if not self.finalized:
            raise ValueError("cannot serialize an unfinalized join build state")
        buffer = io.BytesIO()
        serialize.write_named_arrays(
            buffer, {"codes_sorted": self.codes_sorted, "order": self.order}
        )
        chunk_to_stream(buffer, self.payload)
        return buffer.getvalue()

    @classmethod
    def deserialize(cls, blob: bytes) -> "JoinBuildGlobalState":
        buffer = io.BytesIO(blob)
        arrays = serialize.read_named_arrays(buffer)
        state = cls()
        state.codes_sorted = arrays["codes_sorted"]
        state.order = arrays["order"]
        state.payload = chunk_from_stream(buffer)
        state.finalized = True
        return state


class HashJoinBuildSink(Sink):
    """Accumulates the build side and finalizes the join 'hash table'."""

    kind = "join_build"
    global_state_type = JoinBuildGlobalState

    def __init__(self, input_schema: Schema, key_columns: list[str]):
        super().__init__(input_schema)
        for name in key_columns:
            if name not in input_schema:
                raise KeyError(f"build key {name!r} not in build schema {input_schema.names}")
        self.key_columns = list(key_columns)

    def finalize(self, global_state: JoinBuildGlobalState) -> None:
        kernels = get_kernels()
        payload = concat_chunks(self.input_schema, global_state.pending)
        global_state.pending = []
        codes = kernels.join_codes([payload.column(name) for name in self.key_columns])
        codes_sorted, order = kernels.build_order(codes)
        global_state.codes_sorted = codes_sorted
        global_state.order = order
        global_state.payload = payload
        global_state.finalized = True

    def finalize_cost_rows(self, global_state: JoinBuildGlobalState) -> int:
        return 0 if global_state.payload is None else global_state.payload.num_rows


class HashJoinProbeOperator(StreamingOperator):
    """Streams probe chunks against a bound build global state."""

    kind = "join_probe"

    def __init__(
        self,
        probe_schema: Schema,
        probe_keys: list[str],
        build_pipeline_id: int,
        join_type: JoinType,
        payload_columns: list[str],
        payload_schema: Schema,
        residual: Expression | None = None,
        default_row: dict[str, object] | None = None,
    ):
        for name in probe_keys:
            if name not in probe_schema:
                raise KeyError(f"probe key {name!r} not in probe schema {probe_schema.names}")
        if join_type in (JoinType.SEMI, JoinType.ANTI):
            output_schema = probe_schema
        else:
            collisions = set(probe_schema.names) & set(payload_schema.names)
            if collisions:
                raise ValueError(f"join output column collision: {sorted(collisions)}")
            output_schema = probe_schema.concat(payload_schema)
        super().__init__(output_schema)
        self.probe_schema = probe_schema
        self.probe_keys = list(probe_keys)
        self.build_pipeline_id = build_pipeline_id
        self.join_type = join_type
        self.payload_columns = list(payload_columns)
        self.payload_schema = payload_schema
        self.residual = residual
        self.default_row = dict(default_row) if default_row else None
        if join_type is JoinType.LEFT_OUTER:
            if residual is not None:
                raise ValueError("LEFT OUTER join does not support residual predicates")
            if self.default_row is None or set(self.default_row) != set(payload_schema.names):
                raise ValueError(
                    "LEFT OUTER join requires a default value for every payload column"
                )
        self._build_state: JoinBuildGlobalState | None = None
        self._probe_index: object | None = None
        self._payload_cols: list[np.ndarray] | None = None
        self._match_buffer: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"HashJoinProbe({self.join_type.value}, keys={self.probe_keys})"

    def bind_state(self, states: dict[int, GlobalSinkState]) -> None:
        state = states[self.build_pipeline_id]
        if not isinstance(state, JoinBuildGlobalState) or not state.finalized:
            raise ValueError("probe bound to a non-finalized join build state")
        self._build_state = state
        # The probe index is derived from the build codes and lives here,
        # not on the state: it is never serialized or memory-accounted,
        # and a resumed query rebuilds it from the reloaded codes.
        self._probe_index = get_kernels().probe_index(state.codes_sorted)
        # Resolve payload columns once; per-chunk name lookups add up on
        # large probe sides.
        self._payload_cols = [
            state.payload.column(name) for name in self.payload_columns
        ]

    def execute(self, chunk: DataChunk) -> DataChunk:
        build = self._build_state
        if build is None:
            raise RuntimeError("probe operator not bound to a build state")
        kernels = get_kernels()
        probe_codes = kernels.join_codes(
            [chunk.column(name) for name in self.probe_keys]
        )
        left, right = kernels.probe_ranges(
            build.codes_sorted, probe_codes, self._probe_index
        )
        counts = (right - left).astype(np.int64)

        if self.join_type in (JoinType.SEMI, JoinType.ANTI) and self.residual is None:
            matched = counts > 0
            mask = matched if self.join_type is JoinType.SEMI else ~matched
            return chunk.filter(mask)

        probe_idx, build_idx = kernels.expand_matches(left, counts, build.order)
        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            combined = self._combine(chunk.take(probe_idx), build_idx)
            pair_mask = kernels.evaluate(self.residual, combined)
            matched = self._matched_buffer(chunk.num_rows)
            matched[probe_idx[pair_mask]] = True
            mask = matched if self.join_type is JoinType.SEMI else ~matched
            return chunk.filter(mask)

        result = self._combine(chunk.take(probe_idx), build_idx)
        if self.residual is not None:
            result = result.filter(kernels.evaluate(self.residual, result))
        if self.join_type is JoinType.LEFT_OUTER:
            unmatched = counts == 0
            if unmatched.any():
                result = concat_chunks(
                    self.output_schema, [result, self._default_rows(chunk.filter(unmatched))]
                )
        return result

    def _matched_buffer(self, num_rows: int) -> np.ndarray:
        """Reusable per-chunk boolean scratch (consumed before the next chunk)."""
        if self._match_buffer is None or self._match_buffer.shape[0] < num_rows:
            self._match_buffer = np.zeros(num_rows, dtype=bool)
            return self._match_buffer
        matched = self._match_buffer[:num_rows]
        matched.fill(False)
        return matched

    def _combine(self, probe_rows: DataChunk, build_idx: np.ndarray) -> DataChunk:
        payload_cols = [column[build_idx] for column in self._payload_cols]
        record_materialization(sum(c.nbytes for c in payload_cols))
        return DataChunk(
            self.probe_schema.concat(self.payload_schema),
            probe_rows.arrays() + payload_cols,
        )

    def _default_rows(self, probe_rows: DataChunk) -> DataChunk:
        columns = probe_rows.arrays()
        for field in self.payload_schema:
            value = self.default_row[field.name]
            dtype = field.dtype.numpy_dtype
            if field.dtype is DataType.STRING:
                dtype = np.dtype(f"U{max(1, len(str(value)))}")
            fill = np.full(probe_rows.num_rows, value, dtype=dtype)
            record_materialization(fill.nbytes)
            columns.append(fill)
        return DataChunk(self.output_schema, columns)
