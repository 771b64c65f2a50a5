"""Hash aggregation sink (a pipeline breaker).

Matches the paper's Fig. 3: each worker pre-aggregates its morsels into a
*local* partial state; at pipeline completion the partials are merged into
the *global* state and finalized.  Because partials are aggregated per
group, the finalized global state is small — the reason aggregation-ending
pipelines persist tiny intermediate data in Fig. 8 (e.g. Q1 < 1 KB).

Aggregate inputs are plain columns; the planner inserts projections for
expression arguments such as ``sum(l_extendedprice * (1 - l_discount))``.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass

import numpy as np

from repro.engine.chunk import DataChunk, concat_chunks
from repro.engine.kernels import get_kernels
from repro.engine.keys import align_rows
from repro.engine.operators.base import (
    LocalSinkState,
    MaterializedState,
    Sink,
    chunks_from_bytes,
    chunks_to_bytes,
)
from repro.engine.types import DataType, Field, Schema
from repro.storage import serialize

__all__ = ["AggFunc", "AggSpec", "HashAggregateSink", "AggGlobalState", "aggregate_output_schema"]


class AggFunc(enum.Enum):
    """Supported aggregate functions."""

    SUM = "sum"
    COUNT = "count"
    COUNT_STAR = "count_star"
    AVG = "avg"
    MIN = "min"
    MAX = "max"
    COUNT_DISTINCT = "count_distinct"


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output: ``name = func(column)``."""

    name: str
    func: AggFunc
    column: str | None = None

    def __post_init__(self) -> None:
        needs_column = self.func is not AggFunc.COUNT_STAR
        if needs_column and self.column is None:
            raise ValueError(f"{self.func.value} requires an input column")
        if not needs_column and self.column is not None:
            raise ValueError("count(*) takes no input column")


def aggregate_output_schema(
    input_schema: Schema, group_keys: list[str], specs: list[AggSpec]
) -> Schema:
    """Schema of the aggregation result: group keys then aggregates."""
    fields = [input_schema.field(name) for name in group_keys]
    for spec in specs:
        if spec.func in (AggFunc.COUNT, AggFunc.COUNT_STAR, AggFunc.COUNT_DISTINCT):
            fields.append(Field(spec.name, DataType.INT64))
        elif spec.func in (AggFunc.SUM, AggFunc.AVG):
            fields.append(Field(spec.name, DataType.FLOAT64))
        else:  # MIN / MAX preserve the input type
            fields.append(Field(spec.name, input_schema.type_of(spec.column)))
    return Schema(tuple(fields))


class AggLocalState(LocalSinkState):
    """Per-worker partial aggregates (and raw distinct tuples)."""

    def __init__(
        self,
        partials: list[DataChunk] | None = None,
        distinct: list[DataChunk] | None = None,
    ):
        self.partials: list[DataChunk] = list(partials) if partials else []
        self.distinct: list[DataChunk] = list(distinct) if distinct else []

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self.partials) + sum(c.nbytes for c in self.distinct)

    def serialize(self) -> bytes:
        buffer = io.BytesIO()
        for blob in (chunks_to_bytes(self.partials), chunks_to_bytes(self.distinct)):
            serialize.write_json(buffer, len(blob))
            buffer.write(blob)
        return buffer.getvalue()

    @classmethod
    def deserialize(cls, blob: bytes) -> "AggLocalState":
        buffer = io.BytesIO(blob)
        lists = []
        for _ in range(2):
            size = int(serialize.read_json(buffer))  # type: ignore[arg-type]
            lists.append(chunks_from_bytes(buffer.read(size)))
        return cls(partials=lists[0], distinct=lists[1])


class AggGlobalState(MaterializedState):
    """Merged partials and distinct tuples; after finalize the result chunk."""

    def __init__(self) -> None:
        super().__init__()
        self.pending_distinct: list[DataChunk] = []

    @property
    def nbytes(self) -> int:
        return super().nbytes + sum(c.nbytes for c in self.pending_distinct)


class HashAggregateSink(Sink):
    """Grouped aggregation with two-phase (local partial / global) merge."""

    kind = "aggregate"
    local_state_type = AggLocalState
    global_state_type = AggGlobalState

    def __init__(self, input_schema: Schema, group_keys: list[str], specs: list[AggSpec]):
        super().__init__(input_schema)
        for name in group_keys:
            if name not in input_schema:
                raise KeyError(f"group key {name!r} not in input schema {input_schema.names}")
        for spec in specs:
            if spec.column is not None and spec.column not in input_schema:
                raise KeyError(f"aggregate input {spec.column!r} not in {input_schema.names}")
            if spec.func in (AggFunc.MIN, AggFunc.MAX):
                if input_schema.type_of(spec.column) is DataType.STRING:
                    raise NotImplementedError("MIN/MAX over strings is not supported")
        self.group_keys = list(group_keys)
        self.specs = list(specs)
        self.output_schema = aggregate_output_schema(input_schema, group_keys, specs)
        self._partial_schema = self._build_partial_schema()
        self._distinct_specs = [s for s in specs if s.func is AggFunc.COUNT_DISTINCT]

    def _build_partial_schema(self) -> Schema:
        fields = [self.input_schema.field(name) for name in self.group_keys]
        for position, spec in enumerate(self.specs):
            if spec.func is AggFunc.SUM:
                fields.append(Field(f"__s{position}", DataType.FLOAT64))
            elif spec.func in (AggFunc.COUNT, AggFunc.COUNT_STAR):
                fields.append(Field(f"__c{position}", DataType.INT64))
            elif spec.func is AggFunc.AVG:
                fields.append(Field(f"__s{position}", DataType.FLOAT64))
                fields.append(Field(f"__c{position}", DataType.INT64))
            elif spec.func in (AggFunc.MIN, AggFunc.MAX):
                fields.append(Field(f"__m{position}", self.input_schema.type_of(spec.column)))
            elif spec.func is AggFunc.COUNT_DISTINCT:
                # Raw distinct tuples travel separately; a per-group row
                # count keeps the partial chunk non-degenerate even when
                # no other aggregate contributes columns.
                fields.append(Field(f"__c{position}", DataType.INT64))
        return Schema(tuple(fields))

    # -- sink interface ----------------------------------------------------
    def sink(self, state: AggLocalState, chunk: DataChunk) -> None:
        self.sink_prepared(state, self.prepare(chunk))

    def prepare(self, chunk: DataChunk) -> tuple[DataChunk, list[DataChunk]] | None:
        """Per-chunk partial aggregation — pure, so workers can run it."""
        if chunk.num_rows == 0:
            return None
        partial = self._partial_aggregate(chunk)
        distinct = [self._dedup_distinct(chunk, spec) for spec in self._distinct_specs]
        return partial, distinct

    def sink_prepared(
        self, state: AggLocalState, prepared: tuple[DataChunk, list[DataChunk]] | None
    ) -> None:
        if prepared is None:
            return
        partial, distinct = prepared
        state.partials.append(partial)
        state.distinct.extend(distinct)

    def combine(self, global_state: AggGlobalState, local_state: AggLocalState) -> None:
        global_state.pending.extend(local_state.partials)
        global_state.pending_distinct.extend(local_state.distinct)
        local_state.partials = []
        local_state.distinct = []

    def finalize(self, global_state: AggGlobalState) -> None:
        global_state.result = self._merge_partials(
            global_state.pending, global_state.pending_distinct
        )
        global_state.pending = []
        global_state.pending_distinct = []
        global_state.finalized = True

    def finalize_cost_rows(self, global_state: AggGlobalState) -> int:
        return 0 if global_state.result is None else global_state.result.num_rows

    # -- aggregation kernels -------------------------------------------------
    def _group_ids(self, chunk: DataChunk) -> tuple[np.ndarray, np.ndarray, int]:
        if self.group_keys:
            return get_kernels().group_rows(
                [chunk.column(name) for name in self.group_keys]
            )
        ids = np.zeros(chunk.num_rows, dtype=np.int64)
        first = np.zeros(1 if chunk.num_rows else 0, dtype=np.int64)
        return ids, first, 1 if chunk.num_rows else 0

    def _partial_aggregate(self, chunk: DataChunk) -> DataChunk:
        kernels = get_kernels()
        group_ids, first_idx, num_groups = self._group_ids(chunk)
        columns: list[np.ndarray] = [
            chunk.column(name)[first_idx] for name in self.group_keys
        ]
        for spec in self.specs:
            if spec.func is AggFunc.SUM:
                values = chunk.column(spec.column).astype(np.float64, copy=False)
                columns.append(kernels.grouped_sum(group_ids, values, num_groups))
            elif spec.func is AggFunc.AVG:
                values = chunk.column(spec.column).astype(np.float64, copy=False)
                columns.append(kernels.grouped_sum(group_ids, values, num_groups))
                columns.append(kernels.grouped_count(group_ids, num_groups))
            elif spec.func in (AggFunc.COUNT, AggFunc.COUNT_STAR):
                columns.append(kernels.grouped_count(group_ids, num_groups))
            elif spec.func in (AggFunc.MIN, AggFunc.MAX):
                values = chunk.column(spec.column)
                columns.append(
                    kernels.grouped_extreme(
                        group_ids, values, num_groups, spec.func is AggFunc.MIN
                    )
                )
            elif spec.func is AggFunc.COUNT_DISTINCT:
                columns.append(kernels.grouped_count(group_ids, num_groups))
        return DataChunk(self._partial_schema, columns)

    def _dedup_distinct(self, chunk: DataChunk, spec: AggSpec) -> DataChunk:
        key_arrays = [chunk.column(name) for name in self.group_keys]
        key_arrays.append(chunk.column(spec.column))
        _, first_idx, _ = get_kernels().group_rows(key_arrays)
        schema = Schema(
            tuple(self.input_schema.field(n) for n in self.group_keys)
            + (Field(spec.name, self.input_schema.type_of(spec.column)),)
        )
        return DataChunk(
            schema,
            [chunk.column(n)[first_idx] for n in self.group_keys]
            + [chunk.column(spec.column)[first_idx]],
        )

    def _merge_partials(
        self, partials: list[DataChunk], distinct: list[DataChunk]
    ) -> DataChunk:
        kernels = get_kernels()
        merged = concat_chunks(self._partial_schema, partials)
        if merged.num_rows == 0 and not self.group_keys:
            return self._empty_global_result()
        if self.group_keys:
            group_ids, first_idx, num_groups = kernels.group_rows(
                [merged.column(name) for name in self.group_keys]
            )
        else:
            group_ids = np.zeros(merged.num_rows, dtype=np.int64)
            first_idx = np.zeros(1, dtype=np.int64)
            num_groups = 1
        columns: list[np.ndarray] = [
            merged.column(name)[first_idx] for name in self.group_keys
        ]
        final_keys = list(columns)
        distinct_counts = (
            self._merge_distinct(distinct, final_keys, num_groups)
            if self._distinct_specs
            else {}
        )
        for position, spec in enumerate(self.specs):
            if spec.func is AggFunc.SUM:
                partial = merged.column(f"__s{position}")
                columns.append(kernels.grouped_sum(group_ids, partial, num_groups))
            elif spec.func in (AggFunc.COUNT, AggFunc.COUNT_STAR):
                partial = merged.column(f"__c{position}").astype(np.float64)
                counts = kernels.grouped_sum(group_ids, partial, num_groups)
                columns.append(counts.astype(np.int64))
            elif spec.func is AggFunc.AVG:
                sums = kernels.grouped_sum(
                    group_ids, merged.column(f"__s{position}"), num_groups
                )
                counts = kernels.grouped_sum(
                    group_ids,
                    merged.column(f"__c{position}").astype(np.float64),
                    num_groups,
                )
                columns.append(sums / np.maximum(counts, 1))
            elif spec.func in (AggFunc.MIN, AggFunc.MAX):
                partial = merged.column(f"__m{position}")
                columns.append(
                    kernels.grouped_extreme(
                        group_ids, partial, num_groups, spec.func is AggFunc.MIN
                    )
                )
            elif spec.func is AggFunc.COUNT_DISTINCT:
                columns.append(distinct_counts[spec.name])
        return DataChunk(self.output_schema, columns)

    def _merge_distinct(
        self,
        distinct: list[DataChunk],
        final_keys: list[np.ndarray],
        num_groups: int,
    ) -> dict[str, np.ndarray]:
        """Per-group distinct-value counts, aligned with the merged groups."""
        kernels = get_kernels()
        counts_by_name: dict[str, np.ndarray] = {}
        for spec in self._distinct_specs:
            spec_chunks = [c for c in distinct if spec.name in c.schema]
            schema = spec_chunks[0].schema if spec_chunks else None
            merged = concat_chunks(schema, spec_chunks) if schema else None
            if merged is None or merged.num_rows == 0:
                counts_by_name[spec.name] = np.zeros(num_groups, dtype=np.int64)
                continue
            key_arrays = [merged.column(n) for n in self.group_keys]
            _, dedup_idx, _ = kernels.group_rows(key_arrays + [merged.column(spec.name)])
            if not self.group_keys:
                counts_by_name[spec.name] = np.array([len(dedup_idx)], dtype=np.int64)
                continue
            dedup_keys = [arr[dedup_idx] for arr in key_arrays]
            group_ids, rep_idx, dgroups = kernels.group_rows(dedup_keys)
            per_group = kernels.grouped_count(group_ids, dgroups)
            rep_keys = [arr[rep_idx] for arr in dedup_keys]
            positions = align_rows(final_keys, rep_keys)
            if (positions < 0).any():
                raise RuntimeError("distinct groups not found among merged groups")
            out = np.zeros(num_groups, dtype=np.int64)
            out[positions] = per_group
            counts_by_name[spec.name] = out
        return counts_by_name

    def _empty_global_result(self) -> DataChunk:
        """SQL semantics for a global aggregate over zero rows: one row."""
        columns: list[np.ndarray] = []
        for spec in self.specs:
            if spec.func in (AggFunc.COUNT, AggFunc.COUNT_STAR, AggFunc.COUNT_DISTINCT):
                columns.append(np.zeros(1, dtype=np.int64))
            elif spec.func in (AggFunc.SUM, AggFunc.AVG):
                columns.append(np.full(1, np.nan))
            else:
                columns.append(np.full(1, np.nan))
        return DataChunk(self.output_schema, columns)
