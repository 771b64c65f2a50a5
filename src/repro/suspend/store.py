"""Snapshot store: durable management of suspension artifacts.

Long-lived deployments accumulate snapshots across many suspensions; this
store gives them a home with the bookkeeping a service needs:

* content-addressed file names (query, strategy, monotonically increasing
  sequence) under one directory;
* a JSON manifest recording metadata (strategy, sizes, codec, timestamps
  on the simulated timeline) without loading snapshot payloads;
* retention: keep the newest N snapshots per query, prune the rest;
* integrity: registration refuses a missing, empty or torn staged file,
  and lookup finds the latest resumable snapshot per query.

With ``incremental=True`` the store persists *delta snapshots*: each
per-pipeline global state carries a content hash, and a new snapshot of a
query re-persists only the states whose hash changed since the previous
snapshot of the same query/strategy, storing references to the base's
segments for the rest.  Every record tracks a ``segments`` map — for each
state id, the hash and the *file that holds the blob inline* — so
references resolve in one hop regardless of how long the delta chain
grows.  A committed delta is read where it lies: ``Snapshot.read`` opens
its base files beside it and SHA-256-verifies every state, so no second,
full copy is written.  Retention refuses to delete a file that a live
delta still references: the record is dropped but the file is kept
(tracked in the manifest's ``retained`` list) until no live record
references it.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.suspend.snapshot import SnapshotFile, write_delta_snapshot
from repro.suspend.strategy import SuspendOutcome

__all__ = ["SnapshotRecord", "SnapshotStore"]

_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class SnapshotRecord:
    """One registered snapshot."""

    query_name: str
    strategy: str
    sequence: int
    file_name: str
    intermediate_bytes: int
    file_bytes: int
    suspended_at: float
    raw_bytes: int = 0
    codec: str = "raw"
    delta_of: int | None = None
    segments: dict = field(default_factory=dict)

    @property
    def is_delta(self) -> bool:
        return self.delta_of is not None


@dataclass
class SnapshotStore:
    """Directory-backed snapshot registry with retention."""

    directory: str | os.PathLike
    keep_per_query: int = 3
    incremental: bool = False
    _records: list[SnapshotRecord] = field(default_factory=list)
    _next_sequence: int = 0
    _retained: list[str] = field(default_factory=list)
    _journals: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = self.directory / _MANIFEST
        if manifest.exists():
            payload = json.loads(manifest.read_text())
            # The manifest's keys are the fields; older manifests lack the
            # later ones, which keep their defaults.
            self._records = [SnapshotRecord(**r) for r in payload["records"]]
            self._next_sequence = int(payload["next_sequence"])
            self._retained = list(payload.get("retained", []))
            # Older manifests predate decision journals; default to none.
            self._journals = dict(payload.get("journals", {}))

    # -- registration ------------------------------------------------------------
    def register(self, outcome: SuspendOutcome, query_name: str) -> SnapshotRecord:
        """Move a freshly persisted snapshot into the store.

        Raises ``ValueError`` when the outcome carries no snapshot file
        (the redo strategy) or the file is missing/empty, and
        ``SnapshotError`` when it is torn; the store is then unchanged.  In
        incremental mode, a snapshot whose state hashes partly match the
        previous snapshot of the same query/strategy is rewritten as a delta.
        """
        if outcome.snapshot_path is None:
            raise ValueError(f"{outcome.strategy!r} persisted no snapshot to store")
        source = Path(outcome.snapshot_path)
        if not source.exists() or source.stat().st_size == 0:
            raise ValueError(f"snapshot file missing or empty: {source}")
        sequence = self._next_sequence
        file_name = f"{query_name}.{outcome.strategy}.{sequence:06d}.snapshot"
        target = self.directory / file_name

        delta_of, segments = self._stage(source, target, query_name, outcome.strategy)
        self._next_sequence += 1
        if delta_of is None:
            source.replace(target)
        else:
            source.unlink()

        record = SnapshotRecord(
            query_name=query_name,
            strategy=outcome.strategy,
            sequence=sequence,
            file_name=file_name,
            intermediate_bytes=outcome.intermediate_bytes,
            file_bytes=target.stat().st_size,
            suspended_at=outcome.suspended_at,
            raw_bytes=outcome.raw_bytes or 0,
            codec=outcome.codec,
            delta_of=delta_of,
            segments=segments,
        )
        self._records.append(record)
        self._drop(query_name, self.keep_per_query)
        self._save()
        return record

    def _stage(
        self, source: Path, target: Path, query_name: str, strategy: str
    ) -> tuple[int | None, dict]:
        """Read the staged snapshot once; returns ``(delta_of, segments)``.

        The segment map says, per state id, which file holds the blob
        inline.  In incremental mode, states whose hash matches the newest
        snapshot of the same query/strategy point at that base's segment
        files, and — when at least one does — the staged file is rewritten
        at *target* as a delta holding only the changed states.  A torn
        staged file raises ``SnapshotError`` before anything is written.
        """
        with SnapshotFile(source) as staged:
            hashes = staged.header.get("hashes") or {}
            # Newest first: the base is the latest snapshot with segments.
            candidates = self.records(query_name) if self.incremental else []
            bases = [r for r in candidates if r.strategy == strategy and r.segments]
            held_by_base = bases[0].segments if bases else {}
            changed: list[int] = []
            segments: dict = {}
            for pid, digest in hashes.items():
                held = held_by_base.get(pid)
                if held is not None and held["hash"] == digest:
                    # Point straight at the file that stores the blob inline
                    # (never another reference), so chains stay one hop deep.
                    segments[pid] = {"hash": digest, "source": held["source"]}
                else:
                    changed.append(int(pid))
                    segments[pid] = {"hash": digest, "source": target.name}
            if len(changed) == len(hashes):
                staged.skip_blobs()
                return None, segments
            inline, local_blobs = staged.read_blobs(changed)
            refs = {
                pid: dict(segment)
                for pid, segment in segments.items()
                if segment["source"] != target.name
            }
            write_delta_snapshot(
                target, staged.kind, staged.header, inline, refs, local_blobs
            )
        return bases[0].sequence, segments

    # -- queries -----------------------------------------------------------------
    def records(self, query_name: str | None = None) -> list[SnapshotRecord]:
        """Records, newest first, optionally filtered by query."""
        chosen = [
            r for r in self._records if query_name is None or r.query_name == query_name
        ]
        return sorted(chosen, key=lambda r: -r.sequence)

    def latest(self, query_name: str) -> SnapshotRecord | None:
        """The newest snapshot of *query_name*, or ``None``."""
        matching = self.records(query_name)
        return matching[0] if matching else None

    def path_of(self, record: SnapshotRecord) -> Path:
        """Absolute path of a record's snapshot file."""
        return Path(self.directory) / record.file_name

    @property
    def total_bytes(self) -> int:
        """Bytes currently held by the store's snapshot files."""
        return sum(r.file_bytes for r in self._records)

    # -- materialization ---------------------------------------------------------
    def materialize(self, record: SnapshotRecord) -> Path:
        """The path ``prepare_resume`` reads for *record*: its own file.

        A delta needs no expansion — ``Snapshot.read`` resolves its
        references beside it — so nothing is read or written here.
        """
        return self.path_of(record)

    # -- decision journals -------------------------------------------------------
    def journal_path(self, query_name: str) -> Path | None:
        """Path of *query_name*'s persisted decision journal, or ``None``."""
        file_name = self._journals.get(query_name)
        if file_name is None:
            return None
        return Path(self.directory) / file_name

    def save_journal(self, query_name: str, journal) -> Path:
        """Persist *query_name*'s decision journal next to its snapshots.

        Journals are never pruned with snapshots — a resumed query keeps
        its full decision history even after old snapshot files rotate out.
        Published like the manifest, so a failed save keeps the previous one.
        """
        file_name = f"{query_name}.journal.jsonl"
        path = Path(self.directory) / file_name
        _publish(path, journal.to_jsonl())
        self._journals[query_name] = file_name
        self._save()
        return path

    def load_journal(self, query_name: str):
        """Load *query_name*'s persisted journal, or ``None`` when absent.

        Appends to the returned journal continue the persisted sequence
        numbering, so suspend → resume produces one coherent history.
        """
        from repro.obs.audit import DecisionJournal

        path = self.journal_path(query_name)
        if path is None or not path.exists():
            return None
        return DecisionJournal.from_jsonl(path.read_text())

    # -- maintenance ------------------------------------------------------------
    def _referenced_files(self, records: list[SnapshotRecord]) -> set[str]:
        referenced = {r.file_name for r in records}
        for record in records:
            for segment in record.segments.values():
                referenced.add(segment["source"])
        return referenced

    def prune_query(self, query_name: str, keep: int = 0) -> int:
        """Drop all but the newest *keep* snapshots of one query.

        A pruned snapshot's *record* always goes away, but its file is kept
        on disk while any surviving delta still references it (it moves to
        the manifest's ``retained`` list, and is swept once unreferenced).
        """
        removed = self._drop(query_name, keep)
        self._save()
        return removed

    def _drop(self, query_name: str, keep: int) -> int:
        """:meth:`prune_query` without the manifest save."""
        removed = 0
        keepers = self.records(query_name)[:keep]
        keep_names = {r.file_name for r in keepers}
        survivors = [
            r
            for r in self._records
            if r.query_name != query_name or r.file_name in keep_names
        ]
        referenced = self._referenced_files(survivors)
        for record in self.records(query_name):
            if record.file_name in keep_names:
                continue
            if record.file_name in referenced:
                # A live delta chain still needs this file: drop the record,
                # keep the bytes.
                self._retained.append(record.file_name)
            else:
                self.path_of(record).unlink(missing_ok=True)
            self._records.remove(record)
            removed += 1
        self._sweep_retained()
        return removed

    def _sweep_retained(self) -> None:
        referenced = self._referenced_files(self._records)
        still_retained: list[str] = []
        for file_name in self._retained:
            if file_name in referenced:
                still_retained.append(file_name)
            else:
                (Path(self.directory) / file_name).unlink(missing_ok=True)
        self._retained = still_retained

    def _save(self) -> None:
        _publish(
            Path(self.directory) / _MANIFEST,
            json.dumps(
                {
                    "next_sequence": self._next_sequence,
                    "records": [asdict(r) for r in self._records],
                    "retained": self._retained,
                    "journals": dict(sorted(self._journals.items())),
                },
                indent=2,
            ),
        )


def _publish(path: Path, text: str) -> None:
    """Write *text* to a ``.tmp`` sibling and rename it over *path*, so a
    failed write leaves the previous file in place."""
    staging = path.with_name(path.name + ".tmp")
    staging.write_text(text, encoding="utf-8")
    os.replace(staging, path)
