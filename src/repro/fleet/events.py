"""Indexed, heap-based event structures for the fleet simulator.

``FleetCluster.run`` used to rescan and re-sort its pending list on every
dispatch — O(P) per event, fine at 37 arrivals, hopeless at 100k.  This
module provides the indexed replacements (the nandseqgen ``event_queue``
design named in ROADMAP.md):

* :class:`EventQueue` — a deterministic min-heap of ``(time, kind, name)``
  events with lazy invalidation: ``cancel`` marks a token dead in O(1) and
  stale entries are discarded when they surface at the top.  Ties break on
  ``(time, kind, name, seq)`` so two same-seed runs pop byte-identical
  sequences regardless of insertion pattern.
* :class:`ReadyQueue` / :class:`FairShareReadyQueue` — policy-ordered
  ready sets.  Static-key policies (fifo, suspend-aware) sit in a plain
  heap; fair-share keeps one heap per tenant ordered by
  ``(arrival_time, name)`` plus a lazily re-keyed tenant-level heap on
  ``(served_per_weight, head arrival, head name)``, re-pushed whenever a
  tenant's served time or queue head changes.
* :class:`WorkerIndex` — one live heap entry per worker keyed by the
  earliest feasible start ``(slot_at(free_at), wid)``; the common case
  (an idle worker whose window is already open) dispatches in O(log W)
  without scanning the fleet.

All orderings compare the exact tuples the old list-based code sorted by,
so the refactor is byte-identical at every seed.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Iterable

__all__ = [
    "Event",
    "EventQueue",
    "ReadyQueue",
    "FairShareReadyQueue",
    "WorkerIndex",
]


class Event:
    """One scheduled event; ``alive`` flips to False on cancellation."""

    __slots__ = ("time", "kind", "name", "payload", "seq", "alive")

    def __init__(self, time: float, kind: str, name: str, payload, seq: int):
        self.time = time
        self.kind = kind
        self.name = name
        self.payload = payload
        self.seq = seq
        self.alive = True

    def key(self) -> tuple:
        return (self.time, self.kind, self.name, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.key() < other.key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.alive else "dead"
        return f"Event({self.time!r}, {self.kind!r}, {self.name!r}, {state})"


class EventQueue:
    """Deterministic min-heap event queue with O(1) lazy cancellation.

    ``push`` returns the :class:`Event` itself as the cancellation token.
    Cancelled entries stay in the heap until they surface, at which point
    ``peek``/``pop`` silently discard them — the classic lazy-invalidation
    pattern, which keeps every operation O(log n) amortised without the
    bookkeeping of a decrease-key heap.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, kind: str, name: str, payload: Any = None) -> Event:
        event = Event(time, kind, name, payload, next(self._seq))
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Mark *event* dead; it is skipped when it reaches the top."""
        if event.alive:
            event.alive = False
            self._live -= 1

    def _settle(self) -> None:
        heap = self._heap
        while heap and not heap[0].alive:
            heapq.heappop(heap)

    def peek(self) -> Event | None:
        """The earliest live event, or ``None`` when empty."""
        self._settle()
        return self._heap[0] if self._heap else None

    def pop(self) -> Event | None:
        """Remove and return the earliest live event."""
        self._settle()
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)
        event.alive = False
        self._live -= 1
        return event

    def pop_until(self, time: float) -> list[Event]:
        """Pop every live event with ``event.time <= time``, in order."""
        drained: list[Event] = []
        while True:
            head = self.peek()
            if head is None or head.time > time:
                return drained
            drained.append(self.pop())


class ReadyQueue:
    """Policy-ordered ready set for static-key scheduling policies.

    The key function must be stable for a given query (fifo's
    ``(arrival_time, name)``, suspend-aware's ``(not interactive,
    arrival_time, name)``) — queries enter when they become ready and
    leave only by being selected, so a plain heap suffices.
    """

    def __init__(self, key: Callable[[Any], tuple]):
        self._key = key
        self._heap: list[tuple] = []
        self._seq = count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def add(self, query) -> None:
        heapq.heappush(self._heap, (self._key(query), next(self._seq), query))

    def pop_min(self):
        """Remove and return the policy's next pick."""
        if not self._heap:
            raise IndexError("pop from empty ready queue")
        return heapq.heappop(self._heap)[2]

    def reorder(self, tenant: str) -> None:
        """Static keys never depend on served time; nothing to do."""


class FairShareReadyQueue:
    """Two-level ready set for the fair-share policy.

    Within a tenant the order is static ``(arrival_time, name)`` — one
    heap per tenant.  Across tenants the order is ``(served_per_weight,
    head arrival_time, head name)``, which changes whenever a tenant is
    served or its queue head changes; a fresh tenant entry is pushed on
    every such change and stale entries are discarded at pop time by
    comparing against the tenant's current true key (lazy re-keying).
    """

    def __init__(self, served_per_weight: dict) -> None:
        #: the cluster's live served-time map, read at every comparison
        self._served = served_per_weight
        self._tenants: dict[str, list[tuple]] = {}
        self._order: list[tuple] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def _tenant_key(self, tenant: str) -> tuple | None:
        heap = self._tenants.get(tenant)
        if not heap:
            return None
        head = heap[0]
        return (self._served.get(tenant, 0.0), head[0], head[1], tenant)

    def _push_order(self, tenant: str) -> None:
        key = self._tenant_key(tenant)
        if key is not None:
            heapq.heappush(self._order, key)

    def add(self, query) -> None:
        tenant = query.arrival.tenant
        heap = self._tenants.setdefault(tenant, [])
        heapq.heappush(heap, (query.arrival.arrival_time, query.arrival.name, query))
        self._size += 1
        # The head (and thus the tenant's cross-tenant key) may have
        # changed; push a fresh entry, the stale one dies at pop time.
        self._push_order(tenant)

    def pop_min(self):
        """Remove and return the fair-share pick."""
        if self._size == 0:
            raise IndexError("pop from empty ready queue")
        while True:
            entry = self._order[0]
            tenant = entry[3]
            current = self._tenant_key(tenant)
            if current is None or entry != current:
                heapq.heappop(self._order)  # stale: emptied or re-keyed
                continue
            heapq.heappop(self._order)
            query = heapq.heappop(self._tenants[tenant])[2]
            self._size -= 1
            self._push_order(tenant)
            return query

    def reorder(self, tenant: str) -> None:
        """Re-key *tenant* after its served-per-weight changed."""
        self._push_order(tenant)


class WorkerIndex:
    """Earliest-feasible-start index over the fleet's workers.

    The dispatch target minimises ``(slot_at(max(er, free_at)), wid)``
    over all workers — the old O(W)-per-event scan.  Two indexed regimes
    cover virtually every dispatch:

    * **Backed-up fleet** (``er <= top key``): each worker keeps one live
      entry keyed ``(slot_at(free_at), wid)``.  ``slot_at(x)`` is
      constant over ``x ∈ [free_at, key]``, so the top entry IS the
      answer and its key IS the start.
    * **Idle fleet** (``er`` past the cached keys): every worker with
      ``free_at <= er`` and an availability window open at ``er`` starts
      exactly at ``er`` — the global lower bound — so the smallest-wid
      such worker wins outright.  A wid-ordered idle pool (fed from a
      ``free_at``-ordered heap as the ready bound advances) yields it in
      a handful of pops, since windows are open most of the time.

    Only when every idle worker sits inside an availability gap does the
    index fall back to the full scan.  All entries use epoch-based lazy
    invalidation: ``reschedule`` bumps the worker's epoch and pushes
    fresh entries; stale ones are discarded when they surface.
    """

    #: Fleet size at or below which ``best_slot`` just scans: the scan is
    #: the definitional answer, and for a handful of workers it is cheaper
    #: than any heap bookkeeping.
    SCAN_THRESHOLD = 4

    def __init__(self, workers: Iterable) -> None:
        self._workers = list(workers)
        self._small = len(self._workers) <= self.SCAN_THRESHOLD
        self._epoch: dict[int, int] = {w.wid: 0 for w in self._workers}
        if self._small:
            self._heap = []
            self._free_heap = []
            self._idle = []
            return
        self._heap: list[tuple] = [
            (w.slot_at(w.free_at)[0], w.wid, 0, w) for w in self._workers
        ]
        heapq.heapify(self._heap)
        #: workers not yet proven idle, ordered by ``free_at``
        self._free_heap: list[tuple] = [
            (w.free_at, w.wid, 0, w) for w in self._workers
        ]
        heapq.heapify(self._free_heap)
        #: wid-ordered pool of workers whose ``free_at`` fell at/below a
        #: previous ready bound (entries: ``(wid, epoch, worker)``)
        self._idle: list[tuple] = []

    def _settle(self) -> None:
        heap = self._heap
        while heap and heap[0][2] != self._epoch[heap[0][1]]:
            heapq.heappop(heap)

    def _scan(self, earliest_ready: float) -> tuple[float, float, Any]:
        best: tuple[float, float, Any] | None = None
        for worker in self._workers:
            start, window_end = worker.slot_at(max(earliest_ready, worker.free_at))
            if best is None or (start, worker.wid) < (best[0], best[2].wid):
                best = (start, window_end, worker)
        return best

    def best_slot(self, earliest_ready: float) -> tuple[float, float, Any]:
        """Earliest ``(start, window_end, worker)`` for a query ready then."""
        if self._small:
            return self._scan(earliest_ready)
        self._settle()
        top_key, _, _, top_worker = self._heap[0]
        if earliest_ready <= top_key:
            # slot_at(max(er, free_at)) == slot_at(free_at) == top_key for
            # the top worker (feasibility margins only shrink as the lower
            # bound grows, for windows of any width), and no other worker
            # can start earlier.
            start, window_end = top_worker.slot_at(
                max(earliest_ready, top_worker.free_at)
            )
            return start, window_end, top_worker
        # Pull every worker free by the ready bound into the idle pool.
        free_heap = self._free_heap
        while free_heap and free_heap[0][0] <= earliest_ready:
            _, wid, epoch, worker = heapq.heappop(free_heap)
            if epoch == self._epoch[wid]:
                heapq.heappush(self._idle, (wid, epoch, worker))
        # Smallest-wid idle worker whose window is open at the bound: it
        # starts at earliest_ready, which nothing can beat (busy workers
        # start at free_at > er; gap-bound idle workers start later).
        idle = self._idle
        stash: list[tuple] = []
        found: tuple[float, float, Any] | None = None
        while idle:
            entry = heapq.heappop(idle)
            wid, epoch, worker = entry
            if epoch != self._epoch[wid]:
                continue
            if worker.free_at > earliest_ready:
                # The ready bound regressed below this worker's free time
                # (an admit can pull it back); re-stage for a later drain.
                heapq.heappush(free_heap, (worker.free_at, wid, epoch, worker))
                continue
            stash.append(entry)
            start, window_end = worker.slot_at(earliest_ready)
            if start <= earliest_ready:
                found = (start, window_end, worker)
                break
        for entry in stash:
            heapq.heappush(idle, entry)
        if found is not None:
            return found
        # Rare: every idle worker sits inside an availability gap.
        return self._scan(earliest_ready)

    def reschedule(self, worker) -> None:
        """Re-key *worker* after its ``free_at`` advanced (post slice)."""
        if self._small:
            return
        epoch = self._epoch[worker.wid] + 1
        self._epoch[worker.wid] = epoch
        heapq.heappush(
            self._heap, (worker.slot_at(worker.free_at)[0], worker.wid, epoch, worker)
        )
        heapq.heappush(self._free_heap, (worker.free_at, worker.wid, epoch, worker))
