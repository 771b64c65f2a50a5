"""Watermark-based suspension for pre-sorted aggregation (paper §VI).

The discussion section proposes cutting persistence overhead by sorting
the data before execution and tracking a *watermark* during the scan: the
watermark itself (plus results already finalized below it) becomes the
intermediate data, instead of raw partial state.

This module implements that idea for grouped aggregation over an input
table sorted by the group key:

* groups complete in order, so everything below the watermark (the first
  row of the in-flight group) is final;
* a suspension persists only the finalized group rows and the watermark —
  the in-flight group's partials are *discarded* and recomputed from the
  watermark on resume;
* the snapshot is therefore orders of magnitude smaller than a process
  image of the same moment, at the cost of re-scanning at most one
  group's rows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.engine.chunk import DataChunk, concat_chunks
from repro.engine.clock import Clock, SimulatedClock
from repro.engine.config import ExecutionConfig
from repro.engine.operators.aggregate import AggSpec, HashAggregateSink
from repro.engine.operators.base import chunk_from_stream, chunk_to_stream
from repro.engine.profile import HardwareProfile
from repro.engine.types import Schema
from repro.storage import serialize
from repro.storage.catalog import Catalog

__all__ = ["WatermarkSnapshot", "WatermarkRun", "WatermarkAggregation"]

_MAGIC = b"RIVWMRK1"


@dataclass
class WatermarkSnapshot:
    """Finalized group rows plus the scan watermark."""

    table: str
    watermark_row: int
    finalized: DataChunk

    @property
    def intermediate_bytes(self) -> int:
        return int(self.finalized.nbytes + 8)

    def write(self, path: str | os.PathLike) -> int:
        with open(path, "wb") as stream:
            stream.write(_MAGIC)
            serialize.write_json(
                stream, {"table": self.table, "watermark_row": self.watermark_row}
            )
            chunk_to_stream(stream, self.finalized)
        return Path(path).stat().st_size

    @classmethod
    def read(cls, path: str | os.PathLike) -> "WatermarkSnapshot":
        with open(path, "rb") as stream:
            magic = stream.read(len(_MAGIC))
            if magic != _MAGIC:
                raise ValueError(f"not a watermark snapshot: bad magic {magic!r}")
            header = serialize.read_json(stream)
            finalized = chunk_from_stream(stream)
        return cls(
            table=header["table"],
            watermark_row=int(header["watermark_row"]),
            finalized=finalized,
        )


@dataclass
class WatermarkRun:
    """Outcome of one (possibly suspended) watermark execution."""

    result: DataChunk | None
    snapshot: WatermarkSnapshot | None
    clock_time: float
    rescanned_rows: int = 0


class WatermarkAggregation:
    """Grouped aggregation over a table pre-sorted by the group key."""

    def __init__(
        self,
        catalog: Catalog,
        table: str,
        group_key: str,
        aggregates: list[AggSpec],
        columns: list[str] | None = None,
        profile: HardwareProfile | None = None,
        config: ExecutionConfig | None = None,
        **options,
    ):
        self.catalog = catalog
        self.table_name = table
        self.group_key = group_key
        self.profile = profile if profile is not None else HardwareProfile()
        self.morsel_size = ExecutionConfig.of(config, **options).morsel_size
        data = catalog.get(table)
        needed = columns or data.schema.names
        if group_key not in needed:
            raise KeyError(f"group key {group_key!r} must be among the scanned columns")
        self._columns = list(needed)
        self._input_schema: Schema = data.schema.select(self._columns)
        keys = data.array(group_key)
        if len(keys) > 1 and not (keys[:-1] <= keys[1:]).all():
            raise ValueError(
                f"{table}.{group_key} must be sorted ascending for watermark suspension"
            )
        self._sink = HashAggregateSink(self._input_schema, [group_key], aggregates)
        self.output_schema = self._sink.output_schema

    # -- execution -------------------------------------------------------------
    def run(
        self,
        clock: Clock | None = None,
        request_time: float | None = None,
        resume_from: WatermarkSnapshot | None = None,
    ) -> WatermarkRun:
        """Aggregate; suspend at the first morsel boundary past *request_time*."""
        clock = clock if clock is not None else SimulatedClock()
        data = self.catalog.get(self.table_name)
        keys = data.array(self.group_key)
        total_rows = data.num_rows

        finalized: list[DataChunk] = []
        watermark = 0
        rescanned = 0
        if resume_from is not None:
            if resume_from.table != self.table_name:
                raise ValueError("snapshot belongs to a different table")
            finalized = [resume_from.finalized] if resume_from.finalized.num_rows else []
            watermark = resume_from.watermark_row
            rescanned = 0

        local = self._sink.make_local_state()
        cursor = watermark
        while cursor < total_rows:
            stop = min(cursor + self.morsel_size, total_rows)
            chunk = DataChunk(
                self._input_schema,
                [data.array(name)[cursor:stop] for name in self._columns],
            )
            self._sink.sink(local, chunk)
            clock.advance(self.profile.tuple_cost("aggregate", chunk.num_rows))
            cursor = stop
            if cursor < total_rows:
                # Advance the watermark to the start of the in-flight group.
                boundary_key = keys[cursor - 1]
                if keys[cursor] != boundary_key:
                    # A group just closed exactly at the morsel edge.
                    group_start = cursor
                else:
                    group_start = int(np.searchsorted(keys, boundary_key, side="left"))
                if group_start > watermark:
                    finalized.append(
                        self._finalize_groups(local, keys, watermark, group_start)
                    )
                    watermark = group_start
                    local = self._rebuild_partial(data, keys, watermark, cursor)
                if request_time is not None and clock.now() >= request_time:
                    snapshot = WatermarkSnapshot(
                        table=self.table_name,
                        watermark_row=watermark,
                        finalized=concat_chunks(self.output_schema, finalized),
                    )
                    return WatermarkRun(
                        result=None,
                        snapshot=snapshot,
                        clock_time=clock.now(),
                        rescanned_rows=rescanned,
                    )
        # Input exhausted: finalize whatever remains in the partial state.
        state = self._sink.make_global_state()
        self._sink.combine(state, local)
        self._sink.finalize(state)
        tail = self._sink.result_chunk(state)
        order = np.argsort(tail.column(self.group_key), kind="stable")
        finalized.append(tail.take(order))
        result = concat_chunks(self.output_schema, finalized)
        return WatermarkRun(
            result=result, snapshot=None, clock_time=clock.now(), rescanned_rows=rescanned
        )

    # -- internals -------------------------------------------------------------
    def _finalize_groups(self, local, keys, start: int, stop: int) -> DataChunk:
        """Result rows for the groups fully contained in ``[start, stop)``.

        The local partials may also hold the in-flight group; filter the
        finalized output down to keys strictly below the boundary key.
        """
        state = self._sink.make_global_state()
        # Copy the local state so the running aggregation is untouched.
        copied = self._sink.deserialize_local_state(local.serialize())
        self._sink.combine(state, copied)
        self._sink.finalize(state)
        result = self._sink.result_chunk(state)
        boundary_key = keys[stop] if stop < len(keys) else None
        if boundary_key is not None:
            mask = result.column(self.group_key) < boundary_key
            lower = result.column(self.group_key) >= keys[start]
            result = result.filter(mask & lower)
        # Watermark semantics: groups stream out in key order.
        order = np.argsort(result.column(self.group_key), kind="stable")
        return result.take(order)

    def _rebuild_partial(self, data, keys, watermark: int, cursor: int):
        """Fresh local state holding only the in-flight group's rows."""
        local = self._sink.make_local_state()
        if cursor > watermark:
            chunk = DataChunk(
                self._input_schema,
                [data.array(name)[watermark:cursor] for name in self._columns],
            )
            self._sink.sink(local, chunk)
        return local
