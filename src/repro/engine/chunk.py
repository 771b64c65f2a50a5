"""Data chunks — the vectorized unit of data flow between operators.

Chunks support *selection vectors*: a filter can mark surviving rows with
an index vector instead of copying every column, and the copy (the
"gather") happens lazily, per column, the first time a consumer actually
reads that column.  Columns nobody reads downstream are never gathered at
all, which is what makes projection pruning pay off inside a pipeline and
not just at scan boundaries.  ``materialize()`` collapses a lazy chunk
into a plain one; the executor does this before every sink so that all
buffered/serialized state is selection-free.

Physical copies (eager filters, gathers, takes, concatenations) are
tallied in a module-level counter so benchmarks can report *bytes
materialized* — the quantity the optimizer exists to shrink.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.engine.types import Schema

__all__ = [
    "DataChunk",
    "chunk_digest",
    "concat_chunks",
    "materialized_bytes",
    "record_materialization",
    "reset_materialization",
]


#: Total bytes physically copied into fresh column buffers by row-moving
#: operations (filter/take/gather/concat) since the last reset.  Scans and
#: slices are zero-copy views and do not count.
_materialized_bytes = 0


def record_materialization(nbytes: int) -> None:
    """Add *nbytes* of physically copied column data to the tally."""
    global _materialized_bytes
    _materialized_bytes += int(nbytes)


def materialized_bytes() -> int:
    """Bytes physically copied since the last :func:`reset_materialization`."""
    return _materialized_bytes


def reset_materialization() -> None:
    """Reset the materialized-bytes tally (benchmarks call this per run)."""
    global _materialized_bytes
    _materialized_bytes = 0


class DataChunk:
    """A batch of rows stored column-wise.

    Operators consume and produce chunks; a chunk pairs a :class:`Schema`
    with one NumPy array per column.  Chunks are cheap views where possible
    (slicing, selection vectors) and validated on construction.

    When ``_sel`` is set, ``columns`` holds the *physical* base arrays and
    the chunk logically contains only the rows ``columns[i][_sel]``;
    :meth:`column` gathers lazily and caches per column.  All row-count,
    size, and serialization accessors speak in logical rows, so a lazy
    chunk is observationally identical to its materialized form.
    """

    __slots__ = ("schema", "columns", "_base_rows", "_sel", "_gathered", "_nbytes")

    def __init__(self, schema: Schema, columns: list[np.ndarray]):
        if len(columns) != len(schema):
            raise ValueError(f"schema has {len(schema)} fields but got {len(columns)} columns")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged chunk columns: lengths {sorted(lengths)}")
        self.schema = schema
        self.columns = columns
        self._base_rows = lengths.pop() if lengths else 0
        self._sel: np.ndarray | None = None
        self._gathered: dict[int, np.ndarray] | None = None
        self._nbytes: int | None = None

    def _derive(self, sel: np.ndarray) -> "DataChunk":
        """Lazy sibling sharing this chunk's base columns under *sel*."""
        chunk = DataChunk.__new__(DataChunk)
        chunk.schema = self.schema
        chunk.columns = self.columns
        chunk._base_rows = self._base_rows
        chunk._sel = sel
        chunk._gathered = None
        chunk._nbytes = None
        return chunk

    def __repr__(self) -> str:
        lazy = "" if self._sel is None else ", lazy"
        return f"DataChunk(rows={self.num_rows}, cols={self.schema.names}{lazy})"

    def __len__(self) -> int:
        return self.num_rows

    @property
    def num_rows(self) -> int:
        return self._base_rows if self._sel is None else len(self._sel)

    @property
    def is_lazy(self) -> bool:
        """Whether the chunk carries an unapplied selection vector."""
        return self._sel is not None

    @property
    def selection(self) -> np.ndarray | None:
        """The selection vector, or ``None`` for a plain chunk."""
        return self._sel

    @property
    def nbytes(self) -> int:
        """Logical payload size of the chunk (cached).

        For a lazy chunk this is the size its materialized form would
        have, so memory accounting and operator stats are identical
        whether or not selection vectors are enabled.
        """
        if self._nbytes is None:
            if self._sel is None:
                self._nbytes = int(sum(c.nbytes for c in self.columns))
            else:
                rows = len(self._sel)
                self._nbytes = int(sum(c.dtype.itemsize * rows for c in self.columns))
        return self._nbytes

    def column(self, name: str) -> np.ndarray:
        """Array of the column called *name* (gathers lazily if needed)."""
        return self.column_at(self.schema.index_of(name))

    def column_at(self, index: int) -> np.ndarray:
        """Array of the column at *index* (gathers lazily if needed)."""
        base = self.columns[index]
        if self._sel is None:
            return base
        if self._gathered is None:
            self._gathered = {}
        array = self._gathered.get(index)
        if array is None:
            array = base[self._sel]
            record_materialization(array.nbytes)
            self._gathered[index] = array
        return array

    def base_view(self) -> "DataChunk":
        """Full-length plain chunk over the base arrays (self when plain).

        Lets vectorized operators evaluate expressions over the shared
        base columns without gathering — compute on full vectors, then
        carry the selection through (:meth:`with_selection`).  Rows the
        selection excludes are real rows of the base data, so expression
        kernels stay well-defined on them.
        """
        if self._sel is None:
            return self
        return DataChunk(self.schema, self.columns)

    @classmethod
    def with_selection(
        cls, schema: Schema, columns: list[np.ndarray], selection: np.ndarray | None
    ) -> "DataChunk":
        """Chunk over *columns* restricted by *selection* (plain when None)."""
        chunk = cls(schema, columns)
        if selection is None:
            return chunk
        return chunk._derive(selection)

    def arrays(self) -> list[np.ndarray]:
        """All logical column arrays, gathering any still-lazy ones."""
        return [self.column_at(i) for i in range(len(self.schema))]

    def materialize(self) -> "DataChunk":
        """Selection-free equivalent of this chunk (self when already plain)."""
        if self._sel is None:
            return self
        return DataChunk(self.schema, self.arrays())

    def set_column(self, index: int, array: np.ndarray) -> None:
        """Replace the column at *index*, invalidating cached sizes/gathers."""
        if len(array) != self._base_rows:
            raise ValueError(
                f"replacement column has {len(array)} rows, chunk has {self._base_rows}"
            )
        self.columns[index] = array
        self._nbytes = None
        if self._gathered is not None:
            self._gathered.pop(index, None)

    def filter(self, mask: np.ndarray, lazy: bool = False) -> "DataChunk":
        """Rows where *mask* is true.

        With ``lazy=True`` (or when the chunk already carries a selection
        vector) no column data is copied: the surviving row indices are
        recorded and gathers are deferred to first column access.
        """
        if mask.dtype != np.bool_ or len(mask) != self.num_rows:
            raise ValueError("mask must be a bool array matching the row count")
        if self._sel is not None:
            if mask.all():
                return self
            return self._derive(self._sel[mask])
        if lazy:
            # All-pass filters keep the chunk flat (DuckDB-style): no
            # selection vector means downstream consumers keep reading
            # the base arrays with zero copies.
            if mask.all():
                return self
            return self._derive(np.flatnonzero(mask).astype(np.int64))
        columns = [c[mask] for c in self.columns]
        record_materialization(sum(c.nbytes for c in columns))
        return DataChunk(self.schema, columns)

    def take(self, indices: np.ndarray) -> "DataChunk":
        """Rows gathered at *indices* (may repeat / reorder)."""
        if self._sel is not None:
            return self._derive(self._sel[indices])
        columns = [c[indices] for c in self.columns]
        record_materialization(sum(c.nbytes for c in columns))
        return DataChunk(self.schema, columns)

    def slice(self, start: int, stop: int) -> "DataChunk":
        """Zero-copy view of rows ``[start, stop)``."""
        if self._sel is not None:
            return self._derive(self._sel[start:stop])
        return DataChunk(self.schema, [c[start:stop] for c in self.columns])

    def select(self, names: list[str]) -> "DataChunk":
        """Chunk projected to *names* in the given order (zero copy)."""
        indices = [self.schema.index_of(n) for n in names]
        chunk = DataChunk.__new__(DataChunk)
        chunk.schema = self.schema.select(names)
        chunk.columns = [self.columns[i] for i in indices]
        chunk._base_rows = self._base_rows
        chunk._sel = self._sel
        chunk._nbytes = None
        if self._sel is not None and self._gathered:
            chunk._gathered = {
                new: self._gathered[old]
                for new, old in enumerate(indices)
                if old in self._gathered
            }
        else:
            chunk._gathered = None
        return chunk

    def with_schema(self, schema: Schema) -> "DataChunk":
        """Same data, relabelled with *schema* (arity must match)."""
        chunk = DataChunk.__new__(DataChunk)
        chunk.schema = schema
        chunk.columns = self.columns
        chunk._base_rows = self._base_rows
        chunk._sel = self._sel
        chunk._gathered = self._gathered
        chunk._nbytes = self._nbytes
        return chunk

    def to_dict(self) -> dict[str, np.ndarray]:
        """Columns keyed by name (gathered, selection-free)."""
        return dict(zip(self.schema.names, self.arrays()))

    @classmethod
    def empty(cls, schema: Schema) -> "DataChunk":
        """Zero-row chunk with the canonical dtype per column."""
        columns = []
        for field in schema:
            dtype = field.dtype.numpy_dtype
            if dtype.kind == "U":
                dtype = np.dtype("U1")
            columns.append(np.empty(0, dtype=dtype))
        return cls(schema, columns)


def concat_chunks(schema: Schema, chunks: list[DataChunk]) -> DataChunk:
    """Concatenate *chunks* (all sharing *schema*) into one chunk."""
    live = [c.materialize() for c in chunks if c.num_rows]
    if not live:
        return DataChunk.empty(schema)
    if len(live) == 1:
        return live[0]
    columns = [
        np.concatenate([c.columns[i] for c in live]) for i in range(len(schema))
    ]
    record_materialization(sum(c.nbytes for c in columns))
    return DataChunk(schema, columns)


def chunk_digest(chunk: DataChunk) -> str:
    """Byte-for-byte identity of a result chunk (names, dtypes, shapes, data)."""
    digest = hashlib.sha1()
    for name, array in zip(chunk.schema.names, chunk.arrays()):
        digest.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()
