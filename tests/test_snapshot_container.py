"""One snapshot container: chains across kinds, golden bytes, torn files.

Both persisting strategies write the same :class:`Snapshot` through the
same container, so a query may be suspended by one and then by the other.
The chain tests assert the invariant directly — every pipeline runs exactly
once across the whole chain and the result equals the uninterrupted run —
and the golden-bytes test pins the on-disk formats the refactor kept.
"""

import hashlib
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.engine.chunk import DataChunk
from repro.engine.errors import QuerySuspended
from repro.engine.executor import QueryExecutor
from repro.engine.operators import (
    AggFunc,
    AggSpec,
    HashAggregateSink,
    HashJoinBuildSink,
    LimitSink,
    ResultSink,
    SortSink,
    UnionAllSink,
)
from repro.engine.profile import HardwareProfile
from repro.engine.types import DataType, Schema
from repro.obs.audit import DecisionJournal
from repro.optimizer import optimize_plan
from repro.storage import codec as codec_mod
from repro.suspend import (
    PipelineLevelStrategy,
    ProcessLevelStrategy,
    SnapshotError,
    SnapshotRecord,
    SnapshotStore,
    SuspendOutcome,
)
from repro.suspend.snapshot import Snapshot, SnapshotFile, write_container
from repro.tpch import build_query

from tests.conftest import assert_chunks_equal

MORSEL = 1024  # fine morsels keep "anytime" suspension granular at SF-0.002
STRATEGIES = {"pl": PipelineLevelStrategy, "pr": ProcessLevelStrategy}

#: (first, second) suspension requests as shares of the uninterrupted virtual
#: time; the second is measured on the resumed run's clock.  Chosen so both
#: land before the final pipeline for either kind, and so Q10's first
#: pipeline-level suspension leaves finished pipelines with dead states
#: behind it (the ones a later snapshot must not forget).
FRACTIONS = {"Q3": (0.1, 0.1), "Q10": (0.5, 0.005), "Q18": (0.1, 0.1)}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_chain(catalog, query, kinds, codec, store_mode, fractions, directory, plan=None):
    """Suspend *query* once per entry of *kinds*, resuming in between.

    Each step is the benchmark's pinned call sequence: persist → register →
    materialize → prepare_resume (the middle two only with a store).
    Returns the uninterrupted result, the final result, the snapshots'
    sha256 by role, and the last resume state.
    """
    directory = Path(directory)
    profile = HardwareProfile()
    plan = plan or build_query(query)

    def executor(**kwargs):
        return QueryExecutor(
            catalog, plan, profile=profile, morsel_size=MORSEL, query_name=query, **kwargs
        )

    normal = executor().run()
    store = None
    if store_mode != "none":
        store = SnapshotStore(directory / "store", incremental=store_mode == "incremental")
    resume = None
    digests = {}
    for step, (kind, fraction) in enumerate(zip(kinds, fractions)):
        strategy = STRATEGIES[kind](profile, codec=codec)
        controller = strategy.make_request_controller(normal.stats.duration * fraction)
        running = executor(controller=controller, resume=resume)
        with pytest.raises(QuerySuspended) as suspended:
            running.run()
        stage = directory / f"stage{step}"
        stage.mkdir(parents=True)
        outcome = strategy.persist(suspended.value.capture, stage)
        digests[f"staged{step}"] = sha256(outcome.snapshot_path)
        path = outcome.snapshot_path
        if store is not None:
            record = store.register(outcome, query)
            digests[f"stored{step}"] = sha256(store.path_of(record))
            digests[f"is_delta{step}"] = record.is_delta
            path = store.materialize(record)
            digests[f"resumed_from{step}"] = sha256(path)
            digests["manifest"] = sha256(directory / "store" / "manifest.json")
        resume = strategy.prepare_resume(
            path, running.pipelines, running.plan_fingerprint
        ).resume_state
    final = executor(resume=resume).run()
    return normal, final, digests, resume


def assert_ran_once(normal, final):
    """Every pipeline id exactly once in the stats the chain accumulated."""
    ran = [p.pipeline_id for p in final.stats.pipelines]
    assert ran == [p.pipeline_id for p in normal.stats.pipelines]
    assert_chunks_equal(normal.chunk, final.chunk)


class TestChainMatrix:
    @pytest.mark.parametrize("store_mode", ["none", "plain", "incremental"])
    @pytest.mark.parametrize("codec", ["raw", "adaptive"])
    @pytest.mark.parametrize(
        "kinds", [("pl", "pl"), ("pl", "pr"), ("pr", "pl"), ("pr", "pr")], ids="-".join
    )
    @pytest.mark.parametrize("query", ["Q3", "Q10", "Q18"])
    def test_two_suspensions(self, tpch_tiny, tmp_path, query, kinds, codec, store_mode):
        normal, final, _, _ = run_chain(
            tpch_tiny, query, kinds, codec, store_mode, FRACTIONS[query], tmp_path
        )
        assert_ran_once(normal, final)

    def test_process_snapshot_remembers_earlier_generations(self, tpch_tiny, tmp_path):
        """Q10, optimized plan: pipeline-level suspend at 0.5·T leaves three
        finished pipelines whose states are dead, so the resumed executor
        only knows them as skipped.  A process-level suspension right after
        must record them too, or its resume runs them a second time."""
        plan = optimize_plan(tpch_tiny, build_query("Q10")).plan
        normal, final, _, resume = run_chain(
            tpch_tiny, "Q10", ("pl", "pr"), "raw", "none", FRACTIONS["Q10"], tmp_path, plan
        )
        image = Snapshot.read(tmp_path / "stage1" / "Q10.process.image", "process")
        assert set(image.completed_pipelines) > set(image.state_blobs)
        assert resume.skipped_pipelines == set(image.completed_pipelines)
        assert_ran_once(normal, final)


#: sha256 of every file a fixed-seed double suspension leaves behind, raw
#: codec, incremental store.  The pipeline chains were recorded at the
#: parent of the single-container refactor: their snapshot, delta and
#: manifest bytes are that commit's, unchanged.
#: The process chains are this commit's; PARENT_PROCESS_IMAGES pins that
#: they differ from the parent's only by the added ``completed`` key.
GOLDEN_FRACTIONS = {
    ("Q3", "pl"): (0.1, 0.1),
    ("Q10", "pl"): (0.002, 0.01),
    ("Q18", "pl"): (0.01, 0.1),
    ("Q3", "pr"): (0.1, 0.1),
    ("Q10", "pr"): (0.5, 0.005),
    ("Q18", "pr"): (0.1, 0.1),
}
GOLDEN = {
    "Q3:pl": {
        "is_delta1": False,
        "staged0": "59396035ac33d6c5d10e8c41802bd3d1af470a5933da3befffa3f71ff8d6bdef",
        "staged1": "46bb642af97f0ef47a7944394b4936e61e08d9e7bcf2922201b9c28392783b18",
        "stored1": "46bb642af97f0ef47a7944394b4936e61e08d9e7bcf2922201b9c28392783b18",
        "manifest": "7bf43db810f8569076fa660be2fbe1934adac4eeb2f55f8e0d336087177a1703",
    },
    "Q10:pl": {
        "is_delta1": True,
        "staged0": "f646101f0ad1ca5d1827a9aeb7548f9e4638aaf6a4626d5f86a1820f728b2ed7",
        "staged1": "b74824b557634ae7ceea8862d0cf3b9a272183eea12ffa96e5c84e9da5f8c366",
        "stored1": "7ea4d64202011c58399ff60044d0efccf351a8c3546d3f9cfb4bdcd826d974fc",
        "manifest": "6c72a34db9d15ab3d500d490983a5bc34d95d1c3b5e2dfd605ce414b61e9beef",
    },
    "Q18:pl": {
        "is_delta1": True,
        "staged0": "0f04207ca209853dc5ca0c37f00ce7e91f1b922944d6909ea14d8f6a1d66c664",
        "staged1": "d5732bec68b8e2db887f8c72e30663fff5811dd071d6e07c26d5a98edceb0e08",
        "stored1": "49158b5feb3afea70a1baea39ec0808c5f6c9efaf6c6fb59c6630c16c95619af",
        "manifest": "807a25dadabf9ba02035487d92dee2d2240efd254317c3fae2e491d9725cd407",
    },
    "Q3:pr": {
        "is_delta1": True,
        "staged0": "26453c922450e30b055be780cd3a33c8df989f4c3c8987702c5574af0ee97392",
        "staged1": "35e13b7731919c2bb99f70b15955957ed297f0a42d3f0b4e468ab87840d7977c",
        "stored1": "c2b48ae49cef274068c1af394f4cce91455d03f5d16ffd6a242e3b85e16719e8",
        "manifest": "90356e14eb976b68760e2631c2256211be889f600c313fa3611e96d5e6893ae7",
    },
    "Q10:pr": {
        "is_delta1": True,
        "staged0": "e68b4b717ce87a4884ff34bcebfed6ad3aa387d62faf384c4de36c08f5dfc434",
        "staged1": "614cc74df20e3b12baee4f1e4a47d335bf655a5ae0b90b3d37d1738bed953cf3",
        "stored1": "e7dd01c6144df5742d41195a19c377c5f57480bd90829c8a62e9989a864a4d3b",
        "manifest": "d97d0cc4c0144f1b595cd101a068d7e172e70cb120fc41bd75a13346e924f691",
    },
    "Q18:pr": {
        "is_delta1": True,
        "staged0": "40aca75e2bb5046fd4942fbcf5242c4dc7ecc4ae1a3dce0bb918dbdd3986d664",
        "staged1": "9b194059286555ccf34b785ff32004d789ca1089839b1e11769e511ca970fc54",
        "stored1": "a9574f9fe21b89f693059eef9b3ff1d872eb69a97ecab630f8b23bba78d19eff",
        "manifest": "177fd866d7e7a910614421546d3d7bdbb0e530df2f2a6148c04d75937eb6983c",
    },
}
PARENT_PROCESS_IMAGES = {
    "Q3": (
        "184ea56b66d01ed33d30d980bbe52e0d0001e9c5847251075302ea879be39992",
        "3198bdd50680431ce19a44861a79b4733839ff98131d9835fd21197ef75c89d8",
    ),
    "Q10": (
        "8556c1ac512ad84d862292538869ae30eb9cb1f8908652ebf97183d9490af7a9",
        "c5f325afeab301f2b92d3b2722a9a8799adc70ca7aa03cb966b766123547d2ce",
    ),
    "Q18": (
        "eaf486ec1f600d0c588c6e18250f7bbbcaa47aefb4ca90746c8db2f3d107eda9",
        "2e9b6b133f0b395e391264e3871bd4a412cea19d17bdacee730ffe751facea39",
    ),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("query,kind", sorted(GOLDEN_FRACTIONS))
    def test_double_suspension_bytes(self, tpch_tiny, tmp_path, query, kind):
        _, _, digests, _ = run_chain(
            tpch_tiny, query, (kind, kind), "raw", "incremental",
            GOLDEN_FRACTIONS[query, kind], tmp_path,
        )
        golden = GOLDEN[f"{query}:{kind}"]
        assert {key: digests[key] for key in golden} == golden
        # A full record is the staged file moved; a delta reads back into
        # exactly the snapshot it replaced.
        assert not digests["is_delta0"]
        assert digests["stored0"] == digests["resumed_from0"] == digests["staged0"]
        store = SnapshotStore(tmp_path / "store", incremental=True)
        second = store.latest(query)
        rewritten = tmp_path / "rewritten"
        Snapshot.read(store.materialize(second), second.strategy).write(rewritten)
        assert sha256(rewritten) == digests["staged1"]

    @pytest.mark.parametrize("query", ["Q3", "Q10", "Q18"])
    def test_process_image_adds_only_the_completed_key(self, tpch_tiny, tmp_path, query):
        run_chain(
            tpch_tiny, query, ("pr", "pr"), "raw", "none",
            GOLDEN_FRACTIONS[query, "pr"], tmp_path,
        )
        for step in (0, 1):
            with SnapshotFile(tmp_path / f"stage{step}" / f"{query}.process.image") as image:
                header = dict(image.header)
                states, local_blobs = image.read_blobs()
            del header["completed"]
            legacy = tmp_path / f"legacy{step}"
            write_container(legacy, "process", header, states, local_blobs)
            assert sha256(legacy) == PARENT_PROCESS_IMAGES[query][step]


#: One fixed chunk with int, float and ``<U`` columns, large enough that the
#: adaptive codec encodes some of its arrays.
SINK_INPUT = DataChunk(
    Schema.of(("g", DataType.INT64), ("x", DataType.FLOAT64), ("s", DataType.STRING)),
    [
        np.arange(400, dtype=np.int64) % 7,
        np.arange(400, dtype=np.float64) * 0.25,
        np.array([f"k{i % 5}" for i in range(400)], dtype="U3"),
    ],
)
SINKS = {
    "result": lambda schema: ResultSink(schema),
    "limit": lambda schema: LimitSink(schema, 100),
    "sort": lambda schema: SortSink(schema, [("s", False), ("x", True)], limit=50),
    "union_all": lambda schema: UnionAllSink(schema),
    "aggregate": lambda schema: HashAggregateSink(
        schema, ["g"], [AggSpec("n", AggFunc.COUNT_DISTINCT, "s"), AggSpec("t", AggFunc.SUM, "x")]
    ),
    "join_build": lambda schema: HashJoinBuildSink(schema, ["g"]),
}
#: sha256 of (finalized global state, local state) bytes per sink kind and
#: codec, recorded by running sink_state_bytes at the parent of the commit
#: that collapsed the per-sink state classes into MaterializedState.
SINK_STATE_GOLDEN = {
    "aggregate:raw": (
        "3e8ae07b63f84c8c327cd51b87030c08452cd6fb65cd23010d1eb105850eddc0",
        "d5355f0965e9b052863d96cc4d227a9a6fe88db498469120973acd5b0ab51afc",
    ),
    "aggregate:adaptive": (
        "3e8ae07b63f84c8c327cd51b87030c08452cd6fb65cd23010d1eb105850eddc0",
        "cd0c4b3f33a28e1e5c6907da75bf392dc26918dd8906fc1922318385becbf900",
    ),
    "join_build:raw": (
        "29677662fe259c6ecc78f4b3bc9f1ddce9b2f32c3ecce2f8aa3545d38513c2bf",
        "3a433adbe8f3eaa8854e57dedba7bb42b997a22ce1f0c8f78f50befbfab72090",
    ),
    "join_build:adaptive": (
        "54a682673b03a5e8a43860afccde5dc9b23922856b38aec288dd5f71af78da57",
        "31eaed3e5b614e07039f6ee70f68f79a57e7d86b6ef6cca5264ac86fbbffa515",
    ),
    "limit:raw": (
        "7ec21aa60d4c417b3724d42dfa3ba6a4b580c0f269161ea8d06eb9d25232c1b3",
        "717bdc4c318d0cbbb1a9d14fe7cee50308707761867adf097d44518585dd27de",
    ),
    "limit:adaptive": (
        "d6f678b794d8fc815742300c524bebdd252dd2ccb6a47267d3884529a36fe2cc",
        "2018dbac216e002c3eb553199d81aed50c7fcb0aac1a1202133783ba92247ca5",
    ),
    "result:raw": (
        "8d2ae86718ea28cb497d52eb6dd278ada43c7bffd823800ca028d6fb6e26c9f7",
        "3a433adbe8f3eaa8854e57dedba7bb42b997a22ce1f0c8f78f50befbfab72090",
    ),
    "result:adaptive": (
        "b1a0c701c9c93ef81aa0b3408cdee1faa9b395e0a094d23413e70194456d6caf",
        "31eaed3e5b614e07039f6ee70f68f79a57e7d86b6ef6cca5264ac86fbbffa515",
    ),
    "sort:raw": (
        "fef56d4b35dd5f3505a13e84707c5173e4fe540d2cef507b5690f22f0d06169c",
        "3a433adbe8f3eaa8854e57dedba7bb42b997a22ce1f0c8f78f50befbfab72090",
    ),
    "sort:adaptive": (
        "f5d13b3748ced39430ea69c68a28da62ed80fc108ebcf63b038ebb6a5ba0291b",
        "31eaed3e5b614e07039f6ee70f68f79a57e7d86b6ef6cca5264ac86fbbffa515",
    ),
    "union_all:raw": (
        "8d2ae86718ea28cb497d52eb6dd278ada43c7bffd823800ca028d6fb6e26c9f7",
        "3a433adbe8f3eaa8854e57dedba7bb42b997a22ce1f0c8f78f50befbfab72090",
    ),
    "union_all:adaptive": (
        "b1a0c701c9c93ef81aa0b3408cdee1faa9b395e0a094d23413e70194456d6caf",
        "31eaed3e5b614e07039f6ee70f68f79a57e7d86b6ef6cca5264ac86fbbffa515",
    ),
}


def sink_state_bytes(kind, codec_name):
    """Local and finalized global state bytes of one sink over SINK_INPUT.

    Also asserts that both round-trip through the sink's deserializers and
    that the global state refuses to serialize before finalize.
    """
    sink = SINKS[kind](SINK_INPUT.schema)
    half = SINK_INPUT.num_rows // 2
    with codec_mod.encoding(codec_name):
        local = sink.make_local_state()
        sink.sink(local, SINK_INPUT.slice(0, half))
        sink.sink(local, SINK_INPUT.slice(half, SINK_INPUT.num_rows))
        local_bytes = local.serialize()
        assert sink.deserialize_local_state(local_bytes).serialize() == local_bytes
        state = sink.make_global_state()
        sink.combine(state, local)
        with pytest.raises(ValueError):
            state.serialize()
        sink.finalize(state)
        global_bytes = state.serialize()
        assert sink.deserialize_global_state(global_bytes).serialize() == global_bytes
    return global_bytes, local_bytes


class TestSinkStateBytes:
    @pytest.mark.parametrize("codec_name", ["raw", "adaptive"])
    @pytest.mark.parametrize("kind", sorted(SINKS))
    def test_state_bytes_are_pinned(self, kind, codec_name):
        global_bytes, local_bytes = sink_state_bytes(kind, codec_name)
        digests = tuple(hashlib.sha256(blob).hexdigest() for blob in (global_bytes, local_bytes))
        assert digests == SINK_STATE_GOLDEN[f"{kind}:{codec_name}"]


@pytest.fixture(scope="module")
def one_of_each_format(tpch_tiny, tmp_path_factory):
    """A store holding a pipeline snapshot and its delta, and a process image."""
    directory = tmp_path_factory.mktemp("formats")
    run_chain(tpch_tiny, "Q18", ("pl", "pl"), "raw", "incremental",
              GOLDEN_FRACTIONS["Q18", "pl"], directory)
    run_chain(tpch_tiny, "Q3", ("pr",), "raw", "none", (0.3,), directory / "image")
    return directory


class TestTornFiles:
    @pytest.mark.parametrize("cut", [1, 100, "half"])
    @pytest.mark.parametrize("fmt", ["pipeline", "process", "delta"])
    def test_truncation_raises_snapshot_error(self, one_of_each_format, tmp_path, fmt, cut):
        directory = tmp_path / "copy"
        shutil.copytree(one_of_each_format, directory)
        store = SnapshotStore(directory / "store", incremental=True)
        delta, full = store.records("Q18")
        assert delta.is_delta and not full.is_delta
        path = {
            "pipeline": store.path_of(full),
            "process": directory / "image" / "stage0" / "Q3.process.image",
            "delta": store.path_of(delta),
        }[fmt]
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2 if cut == "half" else len(blob) - cut])
        section = r"(unreadable|truncated in) (header|state \d+|local state \d+)"
        with pytest.raises(SnapshotError, match=f"{re.escape(path.name)}: {section}"):
            Snapshot.read(path, "pipeline" if fmt == "delta" else fmt)

    @pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "plain"])
    @pytest.mark.parametrize("cut", [1, 100, "half"])
    @pytest.mark.parametrize("fmt", ["pipeline", "process"])
    def test_register_refuses_torn_staged_file(
        self, one_of_each_format, tmp_path, fmt, cut, incremental
    ):
        """A torn persist is refused at register and leaves the store as it
        was.  The incremental pipeline case takes the delta-planning path
        (every state of the staged Q18 snapshot matches its base)."""
        directory = tmp_path / "copy"
        shutil.copytree(one_of_each_format, directory)
        store = SnapshotStore(directory / "store", incremental=incremental)
        _, full = store.records("Q18")
        blob = {
            "pipeline": store.path_of(full),
            "process": directory / "image" / "stage0" / "Q3.process.image",
        }[fmt].read_bytes()
        staged = tmp_path / f"staged.{fmt}"
        staged.write_bytes(blob[: len(blob) // 2 if cut == "half" else len(blob) - cut])
        manifest = directory / "store" / "manifest.json"
        before = (store.records(), manifest.read_bytes(), sorted(os.listdir(manifest.parent)))
        outcome = SuspendOutcome(
            strategy=fmt,
            snapshot_path=staged,
            intermediate_bytes=len(blob),
            persist_latency=0.0,
            suspended_at=0.0,
        )
        section = r"(unreadable|truncated in) (header|state \d+|local state \d+)"
        with pytest.raises(SnapshotError, match=f"{re.escape(staged.name)}: {section}"):
            store.register(outcome, "Q18")
        assert (store.records(), manifest.read_bytes(), sorted(os.listdir(manifest.parent))) == before


class TestDeltaReadInPlace:
    @pytest.mark.parametrize("kind", ["pl", "pr"])
    def test_store_holds_only_records_and_manifest(self, tpch_tiny, tmp_path, kind):
        """A resumed delta chain leaves no copy of any snapshot behind, and
        neither ``materialize`` nor a read adds a file."""
        run_chain(
            tpch_tiny, "Q18", (kind, kind), "raw", "incremental",
            GOLDEN_FRACTIONS["Q18", kind], tmp_path,
        )
        store = SnapshotStore(tmp_path / "store", incremental=True)
        records = store.records("Q18")
        assert records[0].is_delta
        listing = sorted(os.listdir(tmp_path / "store"))
        assert listing == sorted([r.file_name for r in records] + ["manifest.json"])
        for record in records:
            Snapshot.read(store.materialize(record), record.strategy)
        assert sorted(os.listdir(tmp_path / "store")) == listing

    @pytest.mark.parametrize("query,kind", [("Q9", "pl"), ("Q18", "pr")])
    def test_resume_from_delta_equals_resume_from_full(self, tpch_tiny, tmp_path, query, kind):
        """A third suspension after resuming from a delta writes the bytes
        it writes after resuming from the full snapshot the delta replaced."""
        staged = {}
        for store_mode in ("none", "incremental"):
            _, _, digests, _ = run_chain(
                tpch_tiny, query, (kind,) * 3, "raw", store_mode, (0.1, 0.1, 0.1),
                tmp_path / store_mode,
            )
            staged[store_mode] = digests["staged2"]
        assert digests["is_delta1"]
        assert staged["incremental"] == staged["none"]

    def test_delta_with_deleted_base_is_refused(self, one_of_each_format, tmp_path):
        directory = tmp_path / "copy"
        shutil.copytree(one_of_each_format, directory)
        store = SnapshotStore(directory / "store", incremental=True)
        delta, full = store.records("Q18")
        store.path_of(full).unlink()  # behind the store's back
        with pytest.raises(
            SnapshotError,
            match=f"references missing base segment file {re.escape(full.file_name)}",
        ):
            Snapshot.read(store.materialize(delta), "pipeline")


class TestManifest:
    def test_older_manifest_records_keep_field_defaults(self, tmp_path):
        """Records are the dataclass's fields; keys an older manifest lacks
        take their defaults, and a save writes them back in field order."""
        legacy = {
            "query_name": "Q3",
            "strategy": "pipeline",
            "sequence": 0,
            "file_name": "Q3.pipeline.000000.snapshot",
            "intermediate_bytes": 10,
            "file_bytes": 20,
            "suspended_at": 1.5,
        }
        directory = tmp_path / "store"
        directory.mkdir()
        (directory / "manifest.json").write_text(
            json.dumps({"next_sequence": 1, "records": [legacy]})
        )
        store = SnapshotStore(directory)
        assert store.records() == [SnapshotRecord(**legacy)]
        record = store.records()[0]
        assert (record.raw_bytes, record.codec, record.delta_of, record.segments) == (
            0, "raw", None, {}
        )
        store.prune_query("Q4")  # a no-op that saves the manifest
        saved = json.loads((directory / "manifest.json").read_text())["records"]
        assert list(saved[0]) == [
            "query_name", "strategy", "sequence", "file_name", "intermediate_bytes",
            "file_bytes", "suspended_at", "raw_bytes", "codec", "delta_of", "segments",
        ]

    def _outcomes(self, catalog, directory):
        strategy = PipelineLevelStrategy(HardwareProfile())
        normal = QueryExecutor(catalog, build_query("Q3"), query_name="Q3").run()
        for step in range(2):
            controller = strategy.make_request_controller(normal.stats.duration * 0.5)
            running = QueryExecutor(
                catalog, build_query("Q3"), controller=controller, query_name="Q3"
            )
            with pytest.raises(QuerySuspended) as suspended:
                running.run()
            stage = directory / f"stage{step}"
            stage.mkdir()
            yield strategy.persist(suspended.value.capture, stage)

    def test_failed_write_leaves_previous_manifest_readable(
        self, tpch_tiny, tmp_path, monkeypatch
    ):
        first, second = self._outcomes(tpch_tiny, tmp_path)
        store = SnapshotStore(tmp_path / "store")
        record = store.register(first, "Q3")
        before = (tmp_path / "store" / "manifest.json").read_bytes()

        real_write_text = Path.write_text

        def torn_write(self, data, *args, **kwargs):
            real_write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError, match="disk full"):
            store.register(second, "Q3")
        monkeypatch.undo()

        assert (tmp_path / "store" / "manifest.json").read_bytes() == before
        reopened = SnapshotStore(tmp_path / "store")
        assert reopened.records("Q3") == [record]

    @pytest.mark.parametrize("failure", ["torn write", "unserializable record"])
    def test_failed_journal_save_leaves_previous_journal_readable(
        self, tmp_path, monkeypatch, failure
    ):
        store = SnapshotStore(tmp_path / "store")
        journal = DecisionJournal()
        journal.append("suspend", "Q3", 1.0, strategy="pipeline")
        journal.append("resume", "Q3", 2.0, strategy="pipeline")
        store.save_journal("Q3", journal)
        before = store.load_journal("Q3").records
        assert len(before) == 2

        if failure == "torn write":
            journal.append("outcome", "Q3", 3.0, strategy="pipeline")
            real_write_text = Path.write_text

            def torn_write(self, data, *args, **kwargs):
                real_write_text(self, data[: len(data) // 2], *args, **kwargs)
                raise OSError("disk full")

            monkeypatch.setattr(Path, "write_text", torn_write)
            expected = OSError
        else:
            journal.append("outcome", "Q3", 3.0, strategy=object())
            expected = TypeError
        with pytest.raises(expected):
            store.save_journal("Q3", journal)
        monkeypatch.undo()

        reopened = SnapshotStore(tmp_path / "store")
        assert reopened.load_journal("Q3").records == before

    def test_register_saves_the_manifest_once(self, tpch_tiny, tmp_path, monkeypatch):
        first, _ = self._outcomes(tpch_tiny, tmp_path)
        store = SnapshotStore(tmp_path / "store")
        real_replace = os.replace
        published = []

        def counting_replace(source, target):
            published.append(Path(target).name)
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", counting_replace)
        store.register(first, "Q3")
        # the staged snapshot is moved in by rename too
        assert published == ["Q3.pipeline.000000.snapshot", "manifest.json"]


def mid_run_capture(catalog, query, kind):
    """The capture of *query* suspended by *kind* at half its virtual time."""
    profile = HardwareProfile()
    plan = build_query(query)
    normal = QueryExecutor(catalog, plan, profile=profile, morsel_size=MORSEL).run()
    strategy = STRATEGIES[kind](profile)
    executor = QueryExecutor(
        catalog, plan, profile=profile, morsel_size=MORSEL, query_name=query,
        controller=strategy.make_request_controller(0.5 * normal.stats.duration),
    )
    with pytest.raises(QuerySuspended) as suspended:
        executor.run()
    return suspended.value.capture


class TestConcurrentPersist:
    """``Snapshot.from_capture`` serializes states on walker threads and their
    arrays on the codec pool; what it returns must be exactly what one thread
    serializing every state in order, under one codec context, produces."""

    @pytest.mark.parametrize("kind", sorted(STRATEGIES))
    @pytest.mark.parametrize("query", [f"Q{n}" for n in range(1, 23)])
    def test_from_capture_is_the_sequential_serialization(
        self, tpch_tiny, monkeypatch, query, kind
    ):
        capture = mid_run_capture(tpch_tiny, query, kind)
        process = capture.kind == "process"
        states = capture.completed_states if process else capture.live_states()
        # The reference is a bare context, which encodes on this thread; the
        # snapshot runs on two CPUs, whatever the host has, so the concurrent
        # path is the one under test.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        for codec_name in ("adaptive", "zlib", "rle", "dict"):
            stats = codec_mod.CodecStats()
            with codec_mod.encoding(codec_name, stats):
                blobs = {pid: state.serialize() for pid, state in states.items()}
                local_blobs = [state.serialize() for state in capture.local_states or []]
            snapshot = Snapshot.from_capture(capture, codec_name, process_context_bytes=4096)
            assert snapshot.state_blobs == blobs
            assert list(snapshot.state_blobs) == list(blobs)
            assert snapshot.local_state_blobs == local_blobs
            assert snapshot.codec_stats == stats.to_json()
            if process:
                assert snapshot.raw_bytes == capture.memory_bytes + 4096
                assert snapshot.encoded_bytes == 4096 + int(capture.memory_bytes * stats.ratio)
            else:
                assert snapshot.raw_bytes == (
                    sum(len(blob) for blob in blobs.values()) + stats.saved_bytes
                )
                assert snapshot.encoded_bytes == 0

    def test_process_captures_carry_local_states(self, tpch_tiny):
        # The matrix above covers local states only if some capture has them.
        assert mid_run_capture(tpch_tiny, "Q9", "pr").local_states
