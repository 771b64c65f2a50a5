"""Fleet-at-scale structures: event queue, workload vectorization, macro fidelity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    AdmissionController,
    EventQueue,
    FleetCluster,
    WorkerIndex,
    fleet_report,
    generate_workload,
    make_policy,
    make_tenants,
    report_to_json,
)
from repro.cloud.availability import AvailabilityTrace, AvailabilityWindow
from repro.fleet.cluster import _WorkerState
from repro.fleet.workload import workload_to_jsonl
from repro.obs.audit import DecisionJournal
from repro.obs.handle import Obs


# ---------------------------------------------------------------------------
# EventQueue vs. a naive sorted-list reference
# ---------------------------------------------------------------------------

class NaiveQueue:
    """The O(n log n)-per-op reference: a sorted list, eager removal."""

    def __init__(self):
        self._events = []
        self._seq = 0

    def push(self, time, kind, name):
        token = (time, kind, name, self._seq)
        self._seq += 1
        self._events.append(token)
        self._events.sort()
        return token

    def cancel(self, token):
        if token in self._events:
            self._events.remove(token)

    def pop(self):
        return self._events.pop(0) if self._events else None

    def pop_until(self, time):
        drained = []
        while self._events and self._events[0][0] <= time:
            drained.append(self._events.pop(0))
        return drained

    def __len__(self):
        return len(self._events)


#: One queue operation: (op, time, kind, name).  Cancel targets are picked
#: by index into the list of still-live tokens.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["push", "push", "push", "pop", "cancel", "pop_until"]),
        st.floats(0.0, 100.0, allow_nan=False, width=32),
        st.sampled_from(["arrival", "dispatch", "resume"]),
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(0, 7),
    ),
    max_size=60,
)


class TestEventQueue:
    @settings(max_examples=200, deadline=None)
    @given(_ops)
    def test_matches_naive_reference(self, ops):
        queue, naive = EventQueue(), NaiveQueue()
        tokens = []  # (event, naive_token) pairs still live
        for op, time, kind, name, pick in ops:
            if op == "push":
                tokens.append(
                    (queue.push(time, kind, name), naive.push(time, kind, name))
                )
            elif op == "cancel" and tokens:
                event, token = tokens.pop(pick % len(tokens))
                queue.cancel(event)
                naive.cancel(token)
            elif op == "pop":
                got, want = queue.pop(), naive.pop()
                if want is None:
                    assert got is None
                else:
                    assert (got.time, got.kind, got.name, got.seq) == want
                    tokens = [t for t in tokens if t[0] is not got]
            elif op == "pop_until":
                got, want = queue.pop_until(time), naive.pop_until(time)
                assert [(e.time, e.kind, e.name, e.seq) for e in got] == want
                popped = set(id(e) for e in got)
                tokens = [t for t in tokens if id(t[0]) not in popped]
            assert len(queue) == len(naive)

    def test_ties_pop_in_kind_name_order(self):
        queue = EventQueue()
        queue.push(5.0, "resume", "x")
        queue.push(5.0, "arrival", "z")
        queue.push(5.0, "arrival", "a")
        names = [queue.pop().name for _ in range(3)]
        assert names == ["a", "z", "x"]

    def test_double_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, "arrival", "q")
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 0 and queue.pop() is None


# ---------------------------------------------------------------------------
# WorkerIndex: the scan fast path and the indexed path agree
# ---------------------------------------------------------------------------

class FakeWorker:
    """70s-on / 30s-off availability cycle, minimal slot_at contract."""

    def __init__(self, wid, free_at=0.0):
        self.wid = wid
        self.free_at = free_at

    def slot_at(self, at):
        cycle, pos = divmod(at, 100.0)
        if pos < 70.0:
            return at, cycle * 100.0 + 70.0
        return (cycle + 1) * 100.0, (cycle + 1) * 100.0 + 70.0


class IndexedWorkerIndex(WorkerIndex):
    SCAN_THRESHOLD = 0  # force the heap regime at any fleet size


class ScanWorkerIndex(WorkerIndex):
    SCAN_THRESHOLD = 1000  # force the definitional scan at any fleet size


class TestWorkerIndex:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["best", "advance"]),
                st.integers(0, 5),
                st.floats(0.0, 400.0, allow_nan=False, width=32),
            ),
            max_size=40,
        )
    )
    def test_indexed_matches_scan(self, ops):
        scan_fleet = [FakeWorker(w) for w in range(6)]
        heap_fleet = [FakeWorker(w) for w in range(6)]
        scan_index = ScanWorkerIndex(scan_fleet)
        heap_index = IndexedWorkerIndex(heap_fleet)
        assert scan_index._small and not heap_index._small
        for op, wid, value in ops:
            if op == "best":
                s_start, s_end, s_worker = scan_index.best_slot(value)
                h_start, h_end, h_worker = heap_index.best_slot(value)
                assert (s_start, s_end, s_worker.wid) == (
                    h_start, h_end, h_worker.wid,
                )
            else:  # a slice finished: free_at only ever advances
                for fleet, index in (
                    (scan_fleet, scan_index), (heap_fleet, heap_index),
                ):
                    worker = fleet[wid]
                    worker.free_at = max(worker.free_at, value)
                    index.reschedule(worker)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from([0.25, 0.5, 0.99, 1.0, 3.0, 20.0]), max_size=8),
            min_size=6,
            max_size=6,
        ),
        st.lists(
            st.tuples(
                st.sampled_from(["best", "advance"]),
                st.integers(0, 5),
                st.floats(0.0, 120.0, allow_nan=False, width=32),
            ),
            max_size=40,
        ),
    )
    def test_indexed_matches_scan_over_given_traces(self, widths, ops):
        """A given trace may hold windows narrower than a slice; the
        indexed regime's argument does not depend on window width."""

        def trace(window_widths):
            windows, start = [], 0.0
            for width in window_widths:
                windows.append(AvailabilityWindow(start, start + width))
                start += width + 2.0
            return AvailabilityTrace(windows)

        scan_fleet = [_WorkerState(w, trace(widths[w])) for w in range(6)]
        heap_fleet = [_WorkerState(w, trace(widths[w])) for w in range(6)]
        scan_index = ScanWorkerIndex(scan_fleet)
        heap_index = IndexedWorkerIndex(heap_fleet)
        for op, wid, value in ops:
            if op == "best":
                s_start, s_end, s_worker = scan_index.best_slot(value)
                h_start, h_end, h_worker = heap_index.best_slot(value)
                assert (s_start, s_end, s_worker.wid) == (
                    h_start, h_end, h_worker.wid,
                )
            else:
                for fleet, index in (
                    (scan_fleet, scan_index), (heap_fleet, heap_index),
                ):
                    worker = fleet[wid]
                    worker.free_at = max(worker.free_at, value)
                    index.reschedule(worker)


# ---------------------------------------------------------------------------
# Vectorized workload generation
# ---------------------------------------------------------------------------

class TestWorkloadAtScale:
    def test_same_seed_byte_identical_jsonl(self):
        shapes = [(3, 600.0, 42), (40, 7200.0, 7)]
        for tenants, duration, seed in shapes:
            blobs = [
                workload_to_jsonl(
                    generate_workload(make_tenants(tenants, seed), duration, seed)
                )
                for _ in range(2)
            ]
            assert blobs[0] == blobs[1]

    def test_scale_shape_sorted_unique_within_horizon(self):
        arrivals = generate_workload(make_tenants(40, 7), 7200.0, 7)
        assert len(arrivals) > 2000
        times = [a.arrival_time for a in arrivals]
        assert times == sorted(times)
        assert all(0.0 <= t < 7200.0 for t in times)
        names = [a.name for a in arrivals]
        assert len(set(names)) == len(names)


# ---------------------------------------------------------------------------
# Macro fidelity == engine fidelity
# ---------------------------------------------------------------------------

def run_default_fleet(catalog, tmp_path, fidelity, seed=7):
    journal = DecisionJournal()
    cluster = FleetCluster(
        catalog,
        make_policy("suspend-aware"),
        workers=2,
        seed=seed,
        admission=AdmissionController(max_queue_depth=8, obs=Obs(journal=journal)),
        snapshot_dir=tmp_path / f"snap-{fidelity}",
        mean_on_seconds=180.0,
        mean_off_seconds=30.0,
        obs=Obs(journal=journal),
        fidelity=fidelity,
    )
    arrivals = generate_workload(make_tenants(3, seed), 600.0, seed)
    result = cluster.run(arrivals, 600.0)
    return report_to_json(fleet_report(result)), journal.to_jsonl()


class TestMacroFidelity:
    def test_macro_report_and_journal_byte_identical_to_engine(
        self, tpch_tiny, tmp_path
    ):
        engine = run_default_fleet(tpch_tiny, tmp_path, "engine")
        macro = run_default_fleet(tpch_tiny, tmp_path, "macro")
        assert macro[0] == engine[0]
        assert macro[1] == engine[1]

    def test_unknown_fidelity_rejected(self, tpch_tiny):
        with pytest.raises(ValueError):
            FleetCluster(tpch_tiny, make_policy("fifo"), fidelity="approximate")

    def test_policy_without_an_order_rejected(self, tpch_tiny):
        """A policy declares ``order_key`` or ``fair_share``; nothing else is served."""
        from repro.fleet import SchedulingPolicy

        with pytest.raises(ValueError, match="neither"):
            FleetCluster(tpch_tiny, SchedulingPolicy())
