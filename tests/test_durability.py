"""End-to-end durability tests: corruption surfacing, atomic saves, and
crash-recovery parity.

The parity tests are the heart of the PR's acceptance criteria: a durable
database is churned with a scripted mutation stream, "crashed" by copying its
directory mid-flight (optionally cutting the WAL at a random byte offset),
recovered, and compared — on all four query families — against an
uninterrupted twin that applied exactly the mutations the log preserved.
"""

import json
import shutil

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.requests import (
    AknnRequest,
    RangeRequest,
    ReverseRequest,
    SweepRequest,
)
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.exceptions import (
    FaultInjectedError,
    ObjectNotFoundError,
    StorageCorruptionError,
    StorageError,
)
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.metrics.counters import MetricsCollector
from repro.service.faults import FaultPlan
from repro.service.sharded import ShardedDatabase
from repro.service.subscriptions import SubscriptionEngine

from tests.conftest import (
    assert_range_answer,
    assert_same_assignments,
    make_fuzzy_object,
    sorted_exact_distances,
)


def _initial_objects(seed: int, n: int):
    rng = np.random.default_rng(seed)
    return [make_fuzzy_object(rng, object_id=i) for i in range(n)]


def _scripted_ops(seed: int, initial_ids, n_ops: int, first_new_id: int = 100):
    """A deterministic insert/delete stream with explicit, never-reused ids.

    Returns ``[("insert", FuzzyObject) | ("delete", object_id), ...]``; every
    delete targets an id that is live at that point of the script, so any
    prefix of the stream is a valid mutation history.
    """
    rng = np.random.default_rng(seed)
    live = list(initial_ids)
    next_id = first_new_id
    ops = []
    for step in range(n_ops):
        if step % 3 == 2 and len(live) > 4:
            victim = live.pop(int(rng.integers(0, len(live))))
            ops.append(("delete", victim))
        else:
            obj = make_fuzzy_object(rng, object_id=next_id)
            ops.append(("insert", obj))
            live.append(next_id)
            next_id += 1
    return ops


def _apply(db, ops):
    for op, payload in ops:
        if op == "insert":
            db.insert(payload)
        else:
            db.delete(payload)


def _queries(seed: int, count: int = 2):
    rng = np.random.default_rng(seed)
    return [make_fuzzy_object(rng, center=[5.0, 5.0], spread=2.0) for _ in range(count)]


def assert_query_parity(recovered, twin, queries):
    """All four query families agree between ``recovered`` and ``twin``."""
    for query in queries:
        r = recovered.execute(AknnRequest(query, k=5, alpha=0.4))
        t = twin.execute(AknnRequest(query, k=5, alpha=0.4))
        np.testing.assert_allclose(
            sorted_exact_distances(recovered, r, query, 0.4),
            sorted_exact_distances(twin, t, query, 0.4),
            atol=1e-9,
        )

        r = recovered.execute(RangeRequest(query, alpha=0.5, radius=4.0))
        t = twin.execute(RangeRequest(query, alpha=0.5, radius=4.0))
        objects = [twin.get_object(object_id) for object_id in twin.object_ids()]
        assert_range_answer(r, objects, query, 0.5, 4.0)
        assert_range_answer(t, objects, query, 0.5, 4.0)

        r = recovered.execute(SweepRequest(query, k=3, alpha_range=(0.2, 0.9)))
        t = twin.execute(SweepRequest(query, k=3, alpha_range=(0.2, 0.9)))
        assert_same_assignments(r.assignments, t.assignments)

        r = recovered.execute(ReverseRequest(query, k=2, alpha=0.5))
        t = twin.execute(ReverseRequest(query, k=2, alpha=0.5))
        assert sorted(r.object_ids) == sorted(t.object_ids)


class TestStoreCorruption:
    """Satellite 1: a damaged data file surfaces path + offset, not garbage."""

    def _saved_dir(self, tmp_path):
        db = FuzzyDatabase.build(_initial_objects(3, 10))
        target = tmp_path / "saved"
        db.save(target)
        db.close()
        return target

    def test_truncated_data_file(self, tmp_path):
        directory = self._saved_dir(tmp_path)
        data = directory / "objects.dat"
        data.write_bytes(data.read_bytes()[: data.stat().st_size // 2])
        with pytest.raises(StorageCorruptionError) as excinfo:
            FuzzyDatabase.open(directory)
        assert excinfo.value.path is not None
        assert excinfo.value.offset is not None
        assert "objects.dat" in str(excinfo.value)

    def test_missing_data_file_with_catalog(self, tmp_path):
        directory = self._saved_dir(tmp_path)
        (directory / "objects.dat").write_bytes(b"")
        with pytest.raises(StorageCorruptionError) as excinfo:
            FuzzyDatabase.open(directory)
        assert excinfo.value.offset == 0

    def test_overwritten_record_magic(self, tmp_path):
        directory = self._saved_dir(tmp_path)
        data = directory / "objects.dat"
        raw = bytearray(data.read_bytes())
        raw[0:4] = b"XXXX"  # first record's magic
        data.write_bytes(bytes(raw))
        with pytest.raises(StorageCorruptionError) as excinfo:
            FuzzyDatabase.open(directory)
        assert excinfo.value.offset is not None


class TestAtomicSave:
    """Satellite 2: an interrupted save never clobbers the previous catalog."""

    def test_interrupted_replace_leaves_old_snapshot_usable(self, tmp_path, monkeypatch):
        objects = _initial_objects(7, 12)
        db = FuzzyDatabase.build(objects)
        target = tmp_path / "saved"
        db.save(target)
        baseline_ids = sorted(db.object_ids())

        # Mutate, then crash the second save at the publish step.
        extra = make_fuzzy_object(np.random.default_rng(9), object_id=500)
        db.insert(extra)

        import repro.core.database as database_module

        def exploding_replace(src, dst):
            raise OSError("simulated crash during catalog publish")

        monkeypatch.setattr(database_module.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            db.save(target)
        monkeypatch.undo()
        db.close()

        # The directory still opens and serves the *previous* snapshot.
        reopened = FuzzyDatabase.open(target)
        reopened.validate()
        assert sorted(reopened.object_ids()) == baseline_ids
        assert 500 not in reopened.object_ids()
        reopened.close()

    @pytest.mark.parametrize("n_objects", [0, 1, 6])
    def test_catalog_bytes_match_the_streaming_encoder(self, tmp_path, n_objects):
        """The saved catalogue is byte for byte what ``json.dump`` wrote."""
        db = FuzzyDatabase.build(_initial_objects(7, n_objects))
        target = tmp_path / "saved"
        path = db.save(target)
        db.close()
        written = path.read_text(encoding="utf-8")
        # iterencode without _one_shot is the pure-Python encoder json.dump uses.
        streamed = "".join(json.JSONEncoder().iterencode(json.loads(written)))
        assert written == streamed

    def test_no_stray_tmp_catalog_after_success(self, tmp_path):
        db = FuzzyDatabase.build(_initial_objects(7, 6))
        target = tmp_path / "saved"
        db.save(target)
        db.close()
        assert not list(target.glob("*.tmp"))


class TestRecoveredConfig:
    """Recovery without a config keeps the one the directory was written with,
    on both engines, down to ``wal_sync``; an explicit config still wins."""

    WRITTEN = RuntimeConfig(rtree_max_entries=8, upper_bound_samples=3, wal_sync="fsync")

    @pytest.mark.parametrize("engine", [FuzzyDatabase, ShardedDatabase])
    def test_recover_without_a_config_keeps_the_written_one(self, tmp_path, engine):
        db = engine.build(_initial_objects(3, 12), config=self.WRITTEN)
        db.enable_durability(tmp_path / "db")
        db.close()
        recovered = engine.recover(tmp_path / "db", resume=False)
        assert recovered.config == self.WRITTEN
        recovered.close()
        explicit = RuntimeConfig(rtree_max_entries=16)
        recovered = engine.recover(tmp_path / "db", config=explicit, resume=False)
        assert recovered.config == explicit
        recovered.close()

    def test_a_catalogue_without_every_field_takes_the_defaults(self, tmp_path):
        db = FuzzyDatabase.build(_initial_objects(3, 6), config=self.WRITTEN)
        path = db.save(tmp_path / "saved")
        db.close()
        catalog = json.loads(path.read_text(encoding="utf-8"))
        catalog["config"] = {"rtree_max_entries": 8, "upper_bound_samples": 3}
        path.write_text(json.dumps(catalog), encoding="utf-8")
        reopened = FuzzyDatabase.open(tmp_path / "saved")
        assert reopened.config == RuntimeConfig(rtree_max_entries=8, upper_bound_samples=3)
        reopened.close()

    @pytest.mark.parametrize("engine", [FuzzyDatabase, ShardedDatabase])
    def test_a_catalogue_with_a_retired_field_still_recovers(self, tmp_path, engine):
        """``rtree_min_fill`` was a field; a directory written with it in
        every catalogue recovers with the fields that remain."""
        db = engine.build(_initial_objects(3, 6), config=self.WRITTEN)
        db.enable_durability(tmp_path / "db")
        db.close()
        catalogs = sorted((tmp_path / "db").rglob("catalog.json"))
        assert catalogs, "the check is not looking at the written catalogues"
        for path in catalogs:
            catalog = json.loads(path.read_text(encoding="utf-8"))
            catalog["config"]["rtree_min_fill"] = 0.4
            path.write_text(json.dumps(catalog), encoding="utf-8")
        recovered = engine.recover(tmp_path / "db", resume=False)
        assert recovered.config == self.WRITTEN
        assert len(recovered) == 6
        recovered.close()


class TestCrashRecoveryParitySingle:
    """Satellite 3 (single node): every random WAL cut recovers a consistent
    prefix, proven by query parity against an uninterrupted twin."""

    def test_randomized_cut_points(self, tmp_path):
        config = RuntimeConfig(snapshot_every=0)
        initial = _initial_objects(21, 18)
        ops = _scripted_ops(22, [o.object_id for o in initial], 24)
        queries = _queries(23)

        durable_dir = tmp_path / "durable"
        db = FuzzyDatabase.build(initial, config=config)
        db.enable_durability(durable_dir)
        # The initial snapshot truncated the log, so from here on one
        # mutation == one WAL record and the replay count identifies the
        # surviving prefix exactly.
        _apply(db, ops)
        wal_bytes = (durable_dir / "wal.log").read_bytes()

        cut_rng = np.random.default_rng(24)
        cuts = sorted(set(cut_rng.integers(8, len(wal_bytes), size=6).tolist()))
        cuts.append(len(wal_bytes))  # the no-data-lost case
        for cut in cuts:
            crashed = tmp_path / f"crash-{cut}"
            shutil.copytree(durable_dir, crashed)
            (crashed / "wal.log").write_bytes(wal_bytes[:cut])

            recovered = FuzzyDatabase.recover(crashed, config=config, resume=False)
            counters = recovered.metrics.as_dict()
            assert counters.get(MetricsCollector.RECOVERIES) == 1
            # Recovery must rebuild the tree with the counted STR path.
            assert counters.get(MetricsCollector.BULK_LOADS, 0) >= 1
            replayed = counters.get(MetricsCollector.WAL_REPLAYED, 0)
            assert 0 <= replayed <= len(ops)
            if cut == len(wal_bytes):
                assert replayed == len(ops)

            twin = FuzzyDatabase.build(initial, config=config)
            _apply(twin, ops[:replayed])
            assert sorted(recovered.object_ids()) == sorted(twin.object_ids())
            recovered.validate()
            assert_query_parity(recovered, twin, queries)
            recovered.close()
            twin.close()
        db.close()

    def test_resumed_recovery_keeps_accepting_mutations(self, tmp_path):
        config = RuntimeConfig(snapshot_every=0)
        initial = _initial_objects(31, 10)
        durable_dir = tmp_path / "durable"
        db = FuzzyDatabase.build(initial, config=config)
        db.enable_durability(durable_dir)
        ops = _scripted_ops(32, [o.object_id for o in initial], 9)
        _apply(db, ops)
        # Crash (no close), recover with resume, keep mutating, crash again.
        shutil.copytree(durable_dir, tmp_path / "unused")  # keep the original
        recovered = FuzzyDatabase.recover(durable_dir, config=config)
        assert recovered.durable
        more = _scripted_ops(33, recovered.object_ids(), 6, first_new_id=300)
        _apply(recovered, more)
        final_ids = sorted(recovered.object_ids())
        second = FuzzyDatabase.recover(durable_dir, config=config, resume=False)
        assert sorted(second.object_ids()) == final_ids
        second.close()
        recovered.close()
        db.close()


class TestCrashRecoveryParitySharded:
    """Satellite 3 (sharded): one shard crashes mid-append, the others keep
    going; recovery restores exactly the acknowledged mutations."""

    def test_partial_shard_crash_parity(self, tmp_path):
        config = RuntimeConfig(snapshot_every=0, service_shards=3)
        initial = _initial_objects(41, 21)
        ops = _scripted_ops(42, [o.object_id for o in initial], 30)
        queries = _queries(43)

        durable_dir = tmp_path / "durable"
        sharded = ShardedDatabase.build(initial, n_shards=3, config=config)
        sharded.enable_durability(durable_dir)
        # Shard 1 starts failing its WAL appends after 4 successful ones —
        # a crash of one worker while the rest of the fleet keeps serving.
        sharded.fault_plan = FaultPlan.parse("shard=1,op=wal_append,kind=raise,after=4")

        acknowledged = []
        failures = 0
        for op in ops:
            try:
                _apply(sharded, [op])
            except (FaultInjectedError, ObjectNotFoundError):
                # ObjectNotFoundError: the op deletes an id whose insert the
                # fault plan already rejected — equally unacknowledged.
                failures += 1
            else:
                acknowledged.append(op)
        assert failures > 0, "the fault plan never fired — test is vacuous"
        assert len(acknowledged) < len(ops)

        # Crash the whole deployment: copy the directory without closing.
        crashed = tmp_path / "crashed"
        shutil.copytree(durable_dir, crashed)
        # One surviving shard also gets a torn tail (crash artifact) on top.
        with open(crashed / "shard-0000" / "wal.log", "ab") as f:
            f.write(b"\xde\xad")

        recovered = ShardedDatabase.recover(crashed, config=config)
        counters = recovered.metrics.as_dict()
        assert counters.get(MetricsCollector.RECOVERIES) == 3
        assert counters.get(MetricsCollector.BULK_LOADS) == 3
        assert counters.get(MetricsCollector.WAL_TORN_TAILS, 0) >= 1

        twin = ShardedDatabase.build(initial, n_shards=3, config=config)
        _apply(twin, acknowledged)
        assert sorted(recovered.object_ids()) == sorted(twin.object_ids())
        recovered.validate()
        assert_query_parity(recovered, twin, queries)
        recovered.close()
        twin.close()
        sharded.close()


class TestRecoveredIdWatermark:
    """``recover`` restores the never-recycle bound, not ``max(live ids) + 1``:
    an id that was handed out and deleted before the crash stays retired."""

    def _insert_delete_crash_recover_insert(self, engine_class, directory):
        config = RuntimeConfig(snapshot_every=0, service_shards=2)
        db = engine_class.build(_initial_objects(61, 12), config=config)
        db.enable_durability(directory)
        rng = np.random.default_rng(62)
        query = make_fuzzy_object(rng, center=[5.0, 5.0])
        deltas = []
        subscriptions = SubscriptionEngine(db)
        db.add_update_listener(subscriptions)
        standing = subscriptions.subscribe(
            AknnRequest(query, k=3, alpha=0.4), listener=deltas.append
        )
        doomed = db.insert(make_fuzzy_object(rng, center=[5.0, 5.0], spread=0.2))
        assert doomed == 12 and doomed in standing.members
        db.execute(SweepRequest(query, k=3, alpha_range=(0.2, 0.9)))
        db.delete(doomed)
        # Crash: the handle is dropped without close(); recover in place.
        recovered = engine_class.recover(directory, config=config)
        fresh = recovered.insert(make_fuzzy_object(rng, center=[50.0, 50.0]))
        recovered.close()
        return db, query, doomed, fresh, deltas

    def test_sharded_recover_does_not_recycle_a_deleted_id(self, tmp_path):
        sharded, _, doomed, fresh, deltas = self._insert_delete_crash_recover_insert(
            ShardedDatabase, tmp_path / "sharded"
        )
        assert len(sharded._shards) == 2 and fresh == doomed + 1
        # What the crashed handle's clients still hold under the retired id —
        # a standing query's delta history — cannot name the object inserted
        # after recovery.
        delivered = {object_id for delta in deltas for object_id, _ in delta.added}
        assert doomed in delivered and fresh not in delivered
        sharded.close()

    def test_single_node_recover_hands_out_the_same_id(self, tmp_path):
        single, _, doomed, fresh, _ = self._insert_delete_crash_recover_insert(
            FuzzyDatabase, tmp_path / "single"
        )
        assert fresh == doomed + 1
        single.close()


class TestExplicitIdBelowTheWatermark:
    """A deleted id cannot come back through an explicit ``object_id``: the
    sweep's profile memo (query instance + id) would answer for the new
    object with the old one's profile."""

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_reusing_a_deleted_id_is_rejected(self, n_shards):
        objects = build_dataset(
            kind="synthetic", n_objects=60, points_per_object=16, seed=5, space_size=6.0
        )
        config = RuntimeConfig(rtree_max_entries=8, cache_capacity=32)
        if n_shards is None:
            db = FuzzyDatabase.build(objects, config=config)
        else:
            db = ShardedDatabase.build(objects, n_shards=n_shards, config=config)
        rng = np.random.default_rng(404)
        generate_query_object(rng, kind="synthetic", space_size=6.0, points_per_object=24)
        query = generate_query_object(
            rng, kind="synthetic", space_size=6.0, points_per_object=24
        )
        request = SweepRequest(query, k=3, alpha_range=(0.1, 1.0), method="rss")
        first = db.execute(request)
        assert 11 in first.assignments  # its profile is memoised
        old = db.get_object(11)
        db.delete(11)
        # The same object moved away from the query, under the retired id.
        shift = 0.8 * (old.points.mean(axis=0) - query.points.mean(axis=0))
        moved = FuzzyObject(old.points + shift, old.memberships.copy(), object_id=11)
        ids = db.object_ids()
        with pytest.raises(StorageError):
            db.insert(moved)
        assert db.object_ids() == ids
        db.validate()
        live = [obj for obj in objects if obj.object_id != 11]
        fresh = FuzzyDatabase.build(live, config=config)
        for method in ("rss", "rss_icr"):
            again = SweepRequest(query, k=3, alpha_range=(0.1, 1.0), method=method)
            assert_same_assignments(
                db.execute(again).assignments, fresh.execute(again).assignments
            )
        # A new id is still accepted.
        assert db.insert(moved.with_id(1000)) == 1000
        fresh.close()
        db.close()
