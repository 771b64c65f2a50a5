"""Persisted suspension snapshots: one dataclass, one file container.

A :class:`Snapshot` is the serialized form of an
:class:`~repro.engine.executor.ExecutionCapture`.  The paper's two
persisting strategies differ only in its ``kind``:

* ``"pipeline"`` — taken at a pipeline breaker; keeps the *live* global
  states (those unfinished pipelines still need) and sizes the persisted
  data by the encoded blobs themselves.
* ``"process"`` — taken by the simulated CRIU at any morsel boundary;
  keeps *every* completed global state plus the in-flight pipeline's
  worker-local states and morsel cursor, and sizes the persisted data by
  the process's allocated memory plus a fixed context overhead.

Both record the finished-pipeline set and the plan fingerprint; resuming
against a different plan is rejected (the paper assumes plans are
unchanged across suspension, §VI).

Every snapshot file — pipeline snapshot, process image, and the *delta*
the :class:`~repro.suspend.store.SnapshotStore` rewrites them into — is
one container, written by :func:`write_container` and read front to back
by :class:`SnapshotFile`::

    magic (8 bytes) | header JSON | state blobs (ascending id) | local blobs

The header lists the ids of the state blobs that follow and the number of
local blobs; every blob is length-prefixed.  Snapshots are codec-aware and
content-addressed: states may be encoded through
:mod:`repro.storage.codec`, and the header records the codec, the
raw-vs-encoded byte accounting and a SHA-256 per state, which is what lets
a delta store only the states whose hash changed since a base snapshot.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.engine.executor import ExecutionCapture, ResumeState
from repro.engine.pipeline import Pipeline
from repro.engine.stats import OperatorStats, PipelineStats, QueryStats
from repro.storage import codec as codec_mod
from repro.storage import serialize

__all__ = [
    "SnapshotError",
    "SnapshotMeta",
    "Snapshot",
    "SnapshotFile",
    "hash_blob",
    "write_container",
    "write_delta_snapshot",
]

_MAGIC = {"pipeline": b"RIVSNAP1", "process": b"RIVPROC1", "delta": b"RIVDELT1"}
_KIND_OF_MAGIC = {magic: kind for kind, magic in _MAGIC.items()}
_MAGIC_LEN = 8


def hash_blob(blob: bytes) -> str:
    """Content hash used to address per-pipeline state segments."""
    return hashlib.sha256(blob).hexdigest()


class SnapshotError(ValueError):
    """Raised for malformed or incompatible snapshots."""


@dataclass
class SnapshotMeta:
    """Common snapshot header: the fields, in order, are the ``meta`` keys."""

    strategy: str
    query_name: str
    plan_fingerprint: str
    clock_time: float
    num_threads: int
    morsel_size: int
    memory_bytes: int


def _stats_from_json(payload: dict) -> QueryStats:
    """Inverse of ``dataclasses.asdict`` on a :class:`QueryStats`."""
    pipelines = [
        PipelineStats(
            **{
                **entry,
                "operators": [OperatorStats(**op) for op in entry.get("operators", [])],
            }
        )
        for entry in payload["pipelines"]
    ]
    return QueryStats(**{**payload, "pipelines": pipelines})


def write_container(
    path: str | os.PathLike,
    kind: str,
    header: dict,
    state_blobs: dict[int, bytes],
    local_blobs: list[bytes],
) -> None:
    """Write one snapshot file of any *kind*.

    *header* must list the ids of *state_blobs* and the number of
    *local_blobs* (see :class:`SnapshotFile`).  A delta's header is mostly
    hex hashes and a copy of the full header; compressed, it stops
    dominating small all-refs deltas.
    """
    write_header = (
        serialize.write_compressed_json if kind == "delta" else serialize.write_json
    )
    with open(path, "wb") as stream:
        stream.write(_MAGIC[kind])
        write_header(stream, header)
        for blob in [state_blobs[pid] for pid in sorted(state_blobs)] + local_blobs:
            serialize.write_json(stream, len(blob))
            stream.write(blob)


class SnapshotFile:
    """An open snapshot file of any kind, read front to back at most once.

    Opening parses the magic and the header, so ``kind`` (``"pipeline"``,
    ``"process"`` or ``"delta"``) and ``header`` are available before any
    blob is touched; :meth:`read_blobs` then walks the blob sections once.
    For deltas ``header`` is the wrapper (``kind`` / ``header`` /
    ``inline_ids`` / ``refs`` / ``num_locals``) and only the inline states
    are stored; references are resolved by the store.

    Every read is exact: a truncated or torn file raises
    :class:`SnapshotError` naming the file and the section.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._stream = open(self.path, "rb")
        try:
            self._size = os.fstat(self._stream.fileno()).st_size
            magic = self._stream.read(_MAGIC_LEN)
            if magic not in _KIND_OF_MAGIC:
                raise SnapshotError(
                    f"{self.path.name}: unrecognized snapshot magic {magic!r}"
                )
            self.kind = _KIND_OF_MAGIC[magic]
            self.header = self._read_json(
                "header",
                serialize.read_compressed_json
                if self.kind == "delta"
                else serialize.read_json,
            )
        except BaseException:
            self._stream.close()
            raise

    def __enter__(self) -> "SnapshotFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self._stream.close()

    def _read_json(self, section: str, reader=serialize.read_json):
        try:
            return reader(self._stream)
        except (ValueError, zlib.error) as exc:
            raise SnapshotError(
                f"{self.path.name}: unreadable {section}: {exc}"
            ) from exc

    def _read_blob(self, section: str, wanted: bool) -> bytes | None:
        size = int(self._read_json(f"{section} length"))
        remaining = self._size - self._stream.tell()
        if not 0 <= size <= remaining:
            raise SnapshotError(
                f"{self.path.name}: truncated in {section}: wanted {size} bytes, "
                f"{remaining} left"
            )
        if wanted:
            return self._stream.read(size)
        self._stream.seek(size, os.SEEK_CUR)
        return None

    def read_blobs(
        self, want=None, local_blobs: bool = True
    ) -> tuple[dict[int, bytes], list[bytes]]:
        """One pass over the blob sections: ``(state blobs, local blobs)``.

        *want* restricts the state blobs loaded to those ids (``None`` =
        every stored state); the others are seeked past.  With
        ``local_blobs=False`` the pass stops after the last wanted state.
        Raises :class:`SnapshotError` when a wanted id is not stored inline.
        """
        ids_key = "inline_ids" if self.kind == "delta" else "state_ids"
        stored = [int(pid) for pid in self.header[ids_key]]
        wanted = set(stored) if want is None else {int(pid) for pid in want}
        if not wanted <= set(stored):
            raise SnapshotError(
                f"state {min(wanted - set(stored))} not stored inline in {self.path.name}"
            )
        states: dict[int, bytes] = {}
        for pid in stored:
            if not local_blobs and len(states) == len(wanted):
                break
            blob = self._read_blob(f"state {pid}", pid in wanted)
            if blob is not None:
                states[pid] = blob
        num_locals = int(self.header.get("num_locals", 0)) if local_blobs else 0
        return states, [
            self._read_blob(f"local state {index}", True) for index in range(num_locals)
        ]


def write_delta_snapshot(
    path: str | os.PathLike,
    kind: str,
    header: dict,
    inline_blobs: dict[int, bytes],
    refs: dict[str, dict],
    local_blobs: list[bytes],
) -> None:
    """Persist an incremental snapshot.

    A delta stands in for the full snapshot of flavour *kind* whose header
    JSON is *header*: changed states are stored inline, the rest are
    *refs* into the files that hold them (``{"hash", "source"}`` per state
    id, keyed like ``hashes``), so materializing it only requires resolving
    those blobs.
    Worker-local states change every suspension and are always inline.
    """
    wrapper = {
        "kind": kind,
        "header": header,
        "inline_ids": sorted(inline_blobs),
        "refs": refs,
        "num_locals": len(local_blobs),
    }
    write_container(path, "delta", wrapper, inline_blobs, local_blobs)


@dataclass
class Snapshot:
    """Serialized suspension state of either persisting strategy."""

    kind: str
    meta: SnapshotMeta
    #: Every pipeline the query has finished, in any suspension generation.
    completed_pipelines: list[int]
    state_blobs: dict[int, bytes]
    stats: QueryStats
    codec: str = "raw"
    state_hashes: dict[int, str] = field(default_factory=dict)
    #: Pre-codec size: of the state blobs (pipeline), or of the modelled
    #: process image — allocated memory plus context (process).
    raw_bytes: int = 0
    #: Modelled post-codec image size; process kind only (a pipeline
    #: snapshot's encoded size is the size of its blobs).
    encoded_bytes: int = 0
    codec_stats: dict | None = None
    # In-flight pipeline, process kind only.
    current_pipeline: int | None = None
    next_morsel: int = 0
    rows_in_pipeline: int = 0
    local_state_blobs: list[bytes] = field(default_factory=list)

    @property
    def intermediate_bytes(self) -> int:
        """Size of the persisted intermediate data (what hits the disk)."""
        if self.kind == "pipeline":
            return sum(len(blob) for blob in self.state_blobs.values())
        if self.codec != "raw" and self.encoded_bytes:
            return self.encoded_bytes
        return self.raw_bytes

    @property
    def raw_state_bytes(self) -> int:
        """Pre-codec size of the same data (equals encoded size for raw)."""
        return self.raw_bytes or self.intermediate_bytes

    @classmethod
    def from_capture(
        cls,
        capture: ExecutionCapture,
        codec_name: str = "raw",
        process_context_bytes: int = 0,
    ) -> "Snapshot":
        """Serialize *capture*; its ``kind`` becomes the snapshot's."""
        process = capture.kind == "process"
        states = capture.completed_states if process else capture.live_states()
        encoded, stats = codec_mod.serialize_all(
            [*states.values(), *(capture.local_states or [])], codec_name
        )
        blobs = dict(zip(states, encoded))
        locals_blobs = encoded[len(states):]
        if process:
            # The process image is memory-accounting based, not a byte
            # stream we compress directly; model the encoded size by
            # applying the measured payload compression ratio to the memory
            # portion.  Process context (page tables, file descriptors, ...)
            # does not compress.
            raw_bytes = capture.memory_bytes + process_context_bytes
            encoded_bytes = process_context_bytes + int(
                capture.memory_bytes * stats.ratio
            )
        else:
            # What the same blobs would weigh uncompressed: the encoded
            # stream plus the payload bytes the codec saved.
            raw_bytes = sum(len(blob) for blob in blobs.values()) + stats.saved_bytes
            encoded_bytes = 0
        return cls(
            kind=capture.kind,
            meta=SnapshotMeta(
                strategy=capture.kind,
                query_name=capture.query_name,
                plan_fingerprint=capture.plan_fingerprint,
                clock_time=capture.clock_time,
                num_threads=capture.num_threads,
                morsel_size=capture.morsel_size,
                memory_bytes=capture.memory_bytes,
            ),
            # Union with the resume-skipped set: after a chained suspend
            # the in-memory completed states only cover the ones restored
            # by the last resume — the earlier generations' pipelines are
            # finished too, and forgetting them here would make the next
            # resume re-run work the query already did.
            completed_pipelines=sorted(
                set(capture.completed_states) | capture.skipped_pipelines
            ),
            state_blobs=blobs,
            stats=capture.stats,
            codec=codec_name,
            state_hashes={pid: hash_blob(blob) for pid, blob in blobs.items()},
            raw_bytes=raw_bytes,
            encoded_bytes=encoded_bytes,
            codec_stats=stats.to_json(),
            current_pipeline=capture.current_pipeline,
            next_morsel=capture.next_morsel,
            rows_in_pipeline=capture.rows_in_pipeline,
            local_state_blobs=locals_blobs,
        )

    def header_json(self) -> dict:
        """The file header.  Key order is part of the on-disk format."""
        process = self.kind == "process"
        header = {
            "meta": asdict(self.meta),
            "completed": self.completed_pipelines,
            "stats": asdict(self.stats),
            "state_ids": sorted(self.state_blobs),
        }
        if process:
            header.update(
                memory_charges={},  # reserved; always empty
                image_bytes=self.raw_bytes,
                current_pipeline=self.current_pipeline,
                next_morsel=self.next_morsel,
                rows_in_pipeline=self.rows_in_pipeline,
                num_locals=len(self.local_state_blobs),
            )
        header["codec"] = self.codec
        header["hashes"] = {str(pid): h for pid, h in self.state_hashes.items()}
        if process:
            header["encoded_bytes"] = self.encoded_bytes
        else:
            header["raw_bytes"] = self.raw_bytes
        header["codec_stats"] = self.codec_stats
        return header

    def write(self, path: str | os.PathLike) -> None:
        """Persist to *path*."""
        write_container(
            path, self.kind, self.header_json(), self.state_blobs, self.local_state_blobs
        )

    @classmethod
    def read(cls, path: str | os.PathLike, kind: str) -> "Snapshot":
        """Load the full snapshot of flavour *kind* at *path*."""
        with SnapshotFile(path) as source:
            if source.kind != kind:
                raise SnapshotError(
                    f"not a {kind} snapshot: bad magic {_MAGIC[source.kind]!r}"
                )
            header = source.header
            blobs, locals_blobs = source.read_blobs()
        current = header.get("current_pipeline")
        return cls(
            kind=kind,
            meta=SnapshotMeta(**header["meta"]),
            completed_pipelines=[int(p) for p in header["completed"]],
            state_blobs=blobs,
            stats=_stats_from_json(header["stats"]),
            codec=header.get("codec", "raw"),
            state_hashes={int(p): h for p, h in header.get("hashes", {}).items()},
            raw_bytes=int(
                header.get("image_bytes" if kind == "process" else "raw_bytes", 0)
            ),
            encoded_bytes=int(header.get("encoded_bytes", 0)),
            codec_stats=header.get("codec_stats"),
            current_pipeline=None if current is None else int(current),
            next_morsel=int(header.get("next_morsel", 0)),
            rows_in_pipeline=int(header.get("rows_in_pipeline", 0)),
            local_state_blobs=locals_blobs,
        )

    def resume_state(
        self, pipelines: list[Pipeline], plan_fingerprint: str
    ) -> ResumeState:
        """Deserialize the states through *pipelines*' sinks."""
        if self.meta.plan_fingerprint != plan_fingerprint:
            raise SnapshotError(
                f"{self.kind} snapshot was taken from a different query plan"
            )
        by_id = {p.pipeline_id: p for p in pipelines}
        completed = {}
        for pid, blob in self.state_blobs.items():
            if pid not in by_id:
                raise SnapshotError(f"snapshot references unknown pipeline {pid}")
            completed[pid] = by_id[pid].sink.deserialize_global_state(blob)
        local_states = None
        if self.current_pipeline is not None:
            sink = by_id[self.current_pipeline].sink
            local_states = [
                sink.deserialize_local_state(blob) for blob in self.local_state_blobs
            ]
        return ResumeState(
            completed_states=completed,
            stats=self.stats,
            clock_time=0.0,
            skipped_pipelines=set(self.completed_pipelines),
            current_pipeline=self.current_pipeline,
            next_morsel=self.next_morsel,
            rows_in_pipeline=self.rows_in_pipeline,
            local_states=local_states,
            # The morsel cursor counts morsels, so a mid-pipeline restore
            # also pins the morsel size (enforced by the executor).
            morsel_size=self.meta.morsel_size,
        )
