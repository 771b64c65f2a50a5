"""Case 1 (§II-B) scheduling: the fleet with one worker and no trace.

``FleetCluster(catalog, policy, workers=1).run(arrivals, duration=0.0)``
is the single-worker scheduler: ``fifo`` runs to completion in arrival
order, ``suspend-aware`` suspends the long query whenever interactive
work waits.  Every workload runs at both fidelities, which must agree.
"""

import pytest

from repro.fleet import FIDELITIES, FleetCluster, make_policy
from repro.fleet.workload import QueryArrival


def arrival(name, query, at, interactive=False):
    klass = "interactive" if interactive else "analytic"
    return QueryArrival(name, klass, klass, query, at, interactive, 3.0, 1.0)


def workload(long_query="Q9", short_query="Q6", arrivals=(1.0, 2.0)):
    queries = [arrival("long", long_query, 0.0)]
    for index, at in enumerate(arrivals):
        queries.append(arrival(f"short{index}", short_query, at, interactive=True))
    return queries


@pytest.fixture()
def schedule(tpch_tiny, tmp_path):
    """Run *arrivals* under *policy* on one worker; ``{name: completion}``."""

    def run(policy, arrivals):
        results = [
            FleetCluster(
                tpch_tiny,
                make_policy(policy),
                workers=1,
                snapshot_dir=tmp_path / f"{policy}-{fidelity}",
                fidelity=fidelity,
            ).run(arrivals, duration=0.0)
            for fidelity in FIDELITIES
        ]
        engine, macro = ([c.to_json() for c in r.completions] for r in results)
        assert engine == macro
        assert not any(w.reclamations for w in results[0].workers)
        return {c.name: c for c in results[0].completions}

    return run


def mean_latency(completions, names):
    return sum(completions[name].latency for name in names) / len(names)


class TestFifo:
    def test_all_queries_complete(self, schedule):
        assert len(schedule("fifo", workload())) == 3

    def test_short_queries_wait_behind_long(self, schedule):
        done = schedule("fifo", workload())
        for name in ("short0", "short1"):
            assert done[name].finished_at > done["long"].finished_at

    def test_latency_accounts_arrival(self, schedule):
        completion = schedule("fifo", workload())["short1"]
        assert completion.latency == completion.finished_at - 2.0


class TestPreemptive:
    def test_all_queries_complete(self, schedule):
        assert len(schedule("suspend-aware", workload())) == 3

    def test_interactive_latency_improves(self, schedule):
        fifo = schedule("fifo", workload())
        preemptive = schedule("suspend-aware", workload())
        names = {"short0", "short1"}
        assert mean_latency(preemptive, names) < mean_latency(fifo, names)

    def test_long_query_pays_overhead(self, schedule):
        fifo = schedule("fifo", workload())
        preemptive = schedule("suspend-aware", workload())
        assert preemptive["long"].latency >= fifo["long"].latency - 1e-9

    def test_long_query_records_suspensions(self, schedule):
        assert schedule("suspend-aware", workload())["long"].suspensions >= 1

    def test_no_interactive_queries_behaves_like_fifo(self, schedule):
        arrivals = [arrival("only", "Q6", 0.0)]
        fifo = schedule("fifo", arrivals)
        preemptive = schedule("suspend-aware", arrivals)
        assert fifo["only"].to_json() == preemptive["only"].to_json()

    def test_interactive_arriving_before_long_runs_first(self, schedule):
        done = schedule("suspend-aware", short_first_workload())
        assert done["short"].finished_at < done["long"].finished_at


def short_first_workload():
    return [arrival("long", "Q9", 1.0), arrival("short", "Q6", 0.0, interactive=True)]


def queued_gap_workload():
    return [
        arrival("long0", "Q9", 0.0),
        arrival("long1", "Q9", 0.5),
        arrival("short0", "Q6", 1.0, interactive=True),
        arrival("short1", "Q6", 1.5, interactive=True),
    ]


class TestSegmentContiguity:
    """Every completion's phase timeline tiles [arrival, finished]."""

    def assert_tiled(self, completion):
        segments = completion.segments
        assert segments, f"{completion.name} has no segments"
        assert segments[0]["start"] == pytest.approx(completion.arrival_time)
        assert segments[-1]["end"] == pytest.approx(completion.finished_at)
        for before, after in zip(segments, segments[1:]):
            assert before["end"] == pytest.approx(after["start"]), (
                f"{completion.name}: unattributed gap between "
                f"{before} and {after}"
            )

    def test_fifo_segments_tile(self, schedule):
        done = schedule("fifo", workload())
        for completion in done.values():
            self.assert_tiled(completion)
        # A short query's wait behind the long one is its queued segment.
        assert done["short0"].segments[0]["phase"] == "queued"

    def test_preemptive_segments_tile(self, schedule):
        for completion in schedule("suspend-aware", workload()).values():
            self.assert_tiled(completion)

    def test_queued_gap_while_another_query_suspends(self, schedule):
        # A second long query arriving while the first is suspending waits
        # through the interactive drain as well; that wait is attributed.
        done = schedule("suspend-aware", queued_gap_workload())
        for completion in done.values():
            self.assert_tiled(completion)
        long1 = done["long1"]
        assert long1.segments[0]["phase"] == "queued"
        # Its wait covers the interactive drain, not just long0's run.
        assert long1.segments[0]["end"] > 1.0

    def test_reload_is_busy_time_of_the_resumed_run(self, schedule):
        done = schedule("suspend-aware", workload())
        phases = [s["phase"] for s in done["long"].segments]
        assert phases == ["run", "suspended", "run"]
        # The suspended gap ends when the last interactive query finishes:
        # the reload that follows is the first part of the resumed run.
        assert done["long"].segments[1]["end"] == done["short1"].finished_at


#: ``(finished_at, suspensions)`` per query at SF-0.002, exact.  These are
#: the outcomes of the former dedicated single-worker scheduler on the
#: same workloads, which the one-worker fleet reproduces bit for bit.
PINNED = {
    ("workload", "fifo"): {
        "long": (3.0103099999999996, 0),
        "short0": (4.246510000000001, 0),
        "short1": (5.482710000000002, 0),
    },
    ("workload", "suspend-aware"): {
        "long": (5.4837960514640836, 1),
        "short0": (2.7169240343093874, 0),
        "short1": (3.9531240343093876, 0),
    },
    ("queued_gap", "fifo"): {
        "long0": (3.0103099999999996, 0),
        "long1": (6.020620000000002, 0),
        "short0": (7.256820000000003, 0),
        "short1": (8.49302, 0),
    },
    ("queued_gap", "suspend-aware"): {
        "long0": (5.4837960514640836, 1),
        "long1": (8.49410605146408, 0),
        "short0": (2.7169240343093874, 0),
        "short1": (3.9531240343093876, 0),
    },
    ("short_first", "fifo"): {"long": (4.2465100000000024, 0), "short": (1.2362, 0)},
    ("short_first", "suspend-aware"): {
        "long": (4.2465100000000024, 0),
        "short": (1.2362, 0),
    },
}

WORKLOADS = {
    "workload": workload,
    "queued_gap": queued_gap_workload,
    "short_first": short_first_workload,
}


@pytest.mark.parametrize("scenario,policy", sorted(PINNED))
def test_pinned_outcomes(schedule, scenario, policy):
    done = schedule(policy, WORKLOADS[scenario]())
    assert {
        name: (c.finished_at, c.suspensions) for name, c in done.items()
    } == PINNED[scenario, policy]
