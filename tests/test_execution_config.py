"""One ``ExecutionConfig``: declared once, forwarded as one value.

The contract under test: the six execution options have one declaration
with defaults and validation; every driver resolves ``config=None,
**options`` once and hands the *same object* to every executor it builds,
so a snapshot is taken and restored under one configuration.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.__main__ import main
from repro.cloud.availability import AvailabilityTrace
from repro.cloud.environment import PriceTrace
from repro.cloud.runner import QueryRunner
from repro.dist import Coordinator, ShardSuspension, partition_catalog, split_plan
from repro.engine.backend import SimulatedBackend
from repro.engine.chunk import chunk_digest
from repro.engine.config import ExecutionConfig
from repro.engine.errors import EngineError
from repro.engine.executor import QueryExecutor
from repro.engine.kernels import NumpyKernels, ScalarKernels
from repro.engine.profile import HardwareProfile
from repro.fleet import FleetCluster, generate_workload, make_policy, make_tenants
from repro.fleet.macro import calibrate_query
from repro.storage.codec import CodecError
from repro.suspend import ProcessLevelStrategy, QuerySession, make_strategy
from repro.tpch import build_query

from tests.test_scheduler import arrival

QUERY = "Q3"

#: every field away from its default that a driver could plausibly drop
CONFIG = ExecutionConfig(morsel_size=4096, kernels="scalar", codec="adaptive")


class TestDeclaration:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.morsel_size == 16384
        assert config.lazy_filters is True
        assert config.select_operators is False
        assert isinstance(config.backend, SimulatedBackend)
        assert isinstance(config.kernels, NumpyKernels)
        assert config.codec == "raw"
        assert ExecutionConfig() == config and hash(ExecutionConfig()) == hash(config)

    def test_names_resolve_to_instances_once(self):
        assert isinstance(CONFIG.kernels, ScalarKernels)
        backend = SimulatedBackend()
        assert ExecutionConfig(backend=backend).backend is backend

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            CONFIG.morsel_size = 1

    def test_of_returns_the_config_itself(self):
        assert ExecutionConfig.of(CONFIG) is CONFIG
        # ``None`` means "not given", as CLI arguments and wrappers pass it
        assert ExecutionConfig.of(CONFIG, morsel_size=None, kernels=None) is CONFIG
        assert ExecutionConfig.of() == ExecutionConfig()

    def test_of_applies_overrides(self):
        derived = ExecutionConfig.of(CONFIG, select_operators=True, lazy_filters=False)
        assert derived == replace(CONFIG, select_operators=True, lazy_filters=False)
        assert derived.morsel_size == 4096 and derived.codec == "adaptive"
        assert ExecutionConfig.of(morsel_size=512).morsel_size == 512

    @pytest.mark.parametrize("options", [{"morsel": 1}, {"threads": None}])
    def test_unknown_option_is_a_type_error(self, options):
        with pytest.raises(TypeError, match="unknown execution option"):
            ExecutionConfig.of(CONFIG, **options)
        with pytest.raises(TypeError):
            QueryExecutor(None, None, **options)

    @pytest.mark.parametrize("size", [0, -5])
    def test_non_positive_morsel_size(self, size):
        with pytest.raises(EngineError, match=f"must be positive, got {size}"):
            ExecutionConfig(morsel_size=size)
        with pytest.raises(EngineError):
            ExecutionConfig.of(CONFIG, morsel_size=size)

    def test_unknown_names(self):
        with pytest.raises(EngineError, match="unknown worker backend"):
            ExecutionConfig(backend="threads")
        with pytest.raises(EngineError, match="unknown kernel set"):
            ExecutionConfig(kernels="simd")
        with pytest.raises(CodecError, match="unknown codec"):
            ExecutionConfig(codec="lz9")


@pytest.fixture(scope="module")
def bare(tpch_tiny):
    """The reference: one executor under CONFIG, no driver in between."""
    result = QueryExecutor(tpch_tiny, build_query(QUERY), query_name=QUERY, config=CONFIG).run()
    default = QueryExecutor(tpch_tiny, build_query(QUERY), query_name=QUERY).run()
    # The reference has teeth: the morsel size is visible in the float
    # association of the virtual clock and in the memory peak.
    assert (result.stats.duration, result.peak_memory_bytes) != (
        default.stats.duration, default.peak_memory_bytes
    )
    return result


@pytest.fixture()
def seen(monkeypatch):
    """The config of every executor that runs, in order."""
    configs: list[ExecutionConfig] = []
    run = QueryExecutor.run

    def recording_run(self):
        configs.append(self.config)
        return run(self)

    monkeypatch.setattr(QueryExecutor, "run", recording_run)
    return configs


def assert_reached(seen, at_least: int = 1) -> None:
    """Every executor got the very object: forwarded, never rebuilt."""
    assert len(seen) >= at_least
    assert all(config is CONFIG for config in seen)


class TestEveryDriverForwardsTheObject:
    def test_session_and_derived_strategy(self, tpch_tiny, bare, seen, tmp_path):
        strategy = make_strategy("process", HardwareProfile(), config=CONFIG)
        assert strategy.codec == "adaptive"
        session = QuerySession(
            tpch_tiny, build_query(QUERY), QUERY, tmp_path, HardwareProfile(), config=CONFIG
        )
        piece = session.run_slice(strategy.make_request_controller(bare.stats.duration * 0.4))
        assert session.persist(piece).codec == "adaptive"  # derived from the capture
        session.commit(piece)
        final = session.run_slice()
        assert chunk_digest(final.result.chunk) == chunk_digest(bare.chunk)
        assert_reached(seen, 2)

    def test_query_runner(self, tpch_tiny, bare, seen, tmp_path):
        runner = QueryRunner(tpch_tiny, snapshot_dir=tmp_path, config=CONFIG)
        normal = runner.measure_normal(build_query(QUERY), QUERY)
        assert normal.stats.duration == bare.stats.duration
        assert normal.peak_memory_bytes == bare.peak_memory_bytes
        outcome = runner.run_forced(
            build_query(QUERY), QUERY, "process", normal.stats.duration, None,
            normal.stats.duration * 0.4,
        )
        assert outcome.suspended
        assert chunk_digest(outcome.result.chunk) == chunk_digest(bare.chunk)
        assert_reached(seen, 3)

    def test_keyword_spelling_is_the_same_path(self, tpch_tiny, bare, seen, tmp_path):
        runner = QueryRunner(
            tpch_tiny, snapshot_dir=tmp_path, morsel_size=4096, kernels="scalar",
            codec="adaptive",
        )
        assert runner.config == CONFIG
        normal = runner.measure_normal(build_query(QUERY), QUERY)
        assert normal.stats.duration == bare.stats.duration
        assert all(config is runner.config for config in seen)

    def test_coordinator(self, tpch_tiny, bare, seen, tmp_path):
        sharded = partition_catalog(tpch_tiny, 2)
        coordinator = Coordinator(sharded, snapshot_dir=tmp_path, config=CONFIG)
        assert all(runner.config is CONFIG for runner in coordinator.runners)
        result = coordinator.run(
            split_plan(sharded, build_query(QUERY)), QUERY,
            suspend=ShardSuspension(strategy="pipeline", suspend_at=0.4),
        )
        assert chunk_digest(result.chunk) == chunk_digest(bare.chunk)
        # fragments on both shards, the victim's resume, and the upper plan
        assert_reached(seen, 4)

    def test_suspension_scheduler(self, tpch_tiny, bare, seen, tmp_path):
        """Case 1: the fleet with one worker and no availability trace."""

        def schedule(policy, arrivals):
            cluster = FleetCluster(
                tpch_tiny, make_policy(policy), workers=1,
                snapshot_dir=tmp_path / policy, config=CONFIG,
            )
            return {c.name: c for c in cluster.run(arrivals, duration=0.0).completions}

        alone = schedule("fifo", [arrival("only", QUERY, 0.0)])
        assert alone["only"].finished_at == bare.stats.duration
        done = schedule(
            "suspend-aware",
            [arrival("long", "Q9", 0.0), arrival("short", "Q6", 1.0, interactive=True)],
        )
        assert done["long"].suspensions >= 1
        assert_reached(seen, 4)

    def _run_fleet_over(self, tpch_tiny, trace, tmp_path):
        cluster = FleetCluster(
            tpch_tiny, make_policy("suspend-aware"), workers=1,
            snapshot_dir=tmp_path, config=CONFIG,
        )
        assert cluster.strategy.codec == "adaptive"
        result = cluster.run(
            [arrival("long", "Q9", 0.0)], trace.windows[-1].end, availability=[trace]
        )
        assert result.completions[0].suspensions >= 1
        assert result.result_mismatches == 0

    def test_intermittent_runner(self, tpch_tiny, seen, tmp_path):
        """Zero-carbon windows: a one-worker fleet over a periodic trace."""
        self._run_fleet_over(tpch_tiny, AvailabilityTrace.periodic(1.3, 2.0, 8), tmp_path)
        # measure() plus at least two slices, every one under the object
        assert_reached(seen, 3)

    def test_price_aware_runner(self, tpch_tiny, seen, tmp_path):
        """A price budget: a one-worker fleet over the budget's affordable trace."""
        prices = PriceTrace(
            base_price=1.0, spike_multiplier=300.0, spike_probability=0.5,
            segment_seconds=1.5, seed=3,
        )
        self._run_fleet_over(tpch_tiny, prices.affordable(10.0, 60.0), tmp_path)
        assert_reached(seen, 3)

    def test_fleet_cluster_at_both_fidelities(self, tpch_tiny, bare, seen, tmp_path):
        arrivals = generate_workload(make_tenants(3, 7), 300.0, 7)
        measured = {}
        completions = {}
        for fidelity in ("engine", "macro"):
            cluster = FleetCluster(
                tpch_tiny, make_policy("suspend-aware"), workers=2, seed=7,
                snapshot_dir=tmp_path / fidelity, fidelity=fidelity, config=CONFIG,
            )
            assert cluster.strategy.codec == "adaptive"
            measured[fidelity] = cluster.measure(QUERY)
            completions[fidelity] = [
                c.to_json() for c in cluster.run(arrivals, 300.0).completions
            ]
        assert measured["engine"] == measured["macro"]
        assert measured["engine"] == (bare.stats.duration, bare.peak_memory_bytes)
        assert completions["engine"] == completions["macro"] and completions["engine"]
        assert_reached(seen, len(completions["engine"]))

    def test_calibrate_query(self, tpch_tiny, bare, seen):
        run_profile = calibrate_query(
            tpch_tiny, build_query(QUERY), HardwareProfile(), QUERY, config=CONFIG
        )
        assert run_profile.normal_time == bare.stats.duration
        assert_reached(seen)


def test_process_snapshot_rejected_under_another_morsel_size(tpch_tiny, tmp_path):
    """§III-A: a process image restores only onto the config that wrote it."""
    profile = HardwareProfile()
    plan = build_query("Q1")
    normal = QueryExecutor(tpch_tiny, plan, profile=profile, morsel_size=1024).run()
    strategy = ProcessLevelStrategy(profile)
    writer = QuerySession(
        tpch_tiny, plan, "Q1", tmp_path, profile, strategy=strategy, morsel_size=1024
    )
    piece = writer.run_slice(strategy.make_request_controller(normal.stats.duration * 0.5))
    assert piece.kind == "suspend" and piece.capture.kind == "process"
    writer.persist(piece)
    writer.commit(piece)
    reader = QuerySession(
        tpch_tiny, plan, "Q1", tmp_path, profile, strategy=strategy,
        config=replace(writer.config, morsel_size=2048),
    )
    reader.adopt(piece.persisted.snapshot_path)
    with pytest.raises(EngineError, match="original morsel size"):
        reader.run_slice()
    # the writing configuration still restores it
    assert chunk_digest(writer.run_slice().result.chunk) == chunk_digest(normal.chunk)


class TestCliRejectsInvalidOptions:
    @pytest.mark.parametrize("size", ["0", "-5"])
    @pytest.mark.parametrize(
        "command",
        [
            ["query", "--name", "Q6"],
            ["trace", "--name", "Q6", "--out", "trace.json"],
            ["why", "Q6"],
            ["profile", "Q6"],
        ],
        ids=lambda command: command[0],
    )
    def test_clean_error_and_status_2(self, command, size, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        status = main([*command, "--scale", "0.002", f"--morsel-size={size}"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err == f"error: morsel size must be positive, got {size}\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())
