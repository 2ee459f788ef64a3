"""Unit tests for the durability substrate.

Covers the write-ahead log (record round-trips, torn-tail self-repair, the
repairable-vs-fatal corruption distinction), the snapshot manifest cycle, and
the STR bulk-load / deferred-compaction helpers the recovery path is built
from.  End-to-end crash recovery lives in ``test_durability.py``.
"""

import struct

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.exceptions import StorageCorruptionError
from repro.fuzzy.summary import build_summary
from repro.index.bulk import CompactionManager, bulk_load_tree
from repro.index.rtree import RTree
from repro.metrics.counters import MetricsCollector
from repro.storage.snapshot import (
    MANIFEST_FILE,
    Manifest,
    SnapshotManager,
    read_manifest,
    write_manifest,
)
from repro.storage.wal import (
    OP_DELETE,
    OP_INSERT,
    WAL_MAGIC,
    WriteAheadLog,
)

from tests.conftest import make_fuzzy_object


HEADER_SIZE = struct.calcsize("<4sI")


class TestWriteAheadLog:
    def test_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append_insert(7, b"payload-7")
        wal.append_delete(3)
        wal.append_insert(8, b"payload-8")
        records = list(wal.replay())
        assert [(r.op, r.object_id) for r in records] == [
            (OP_INSERT, 7),
            (OP_DELETE, 3),
            (OP_INSERT, 8),
        ]
        assert records[0].blob == b"payload-7"
        assert records[1].blob == b""
        assert [r.seq for r in records] == [0, 1, 2]
        wal.close()

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_insert(1, b"a")
            wal.append_insert(2, b"b")
        with WriteAheadLog(path) as wal:
            assert wal.next_seq == 2
            wal.append_delete(1)
            assert [(r.op, r.seq) for r in wal.replay()] == [
                (OP_INSERT, 0),
                (OP_INSERT, 1),
                (OP_DELETE, 2),
            ]

    @pytest.mark.parametrize("garbage", [b"\x01", b"\x00" * 7, b"\xff" * 64])
    def test_torn_tail_is_truncated_and_counted(self, tmp_path, garbage):
        path = tmp_path / "wal.log"
        metrics = MetricsCollector()
        with WriteAheadLog(path, metrics=metrics) as wal:
            wal.append_insert(1, b"a")
            wal.append_insert(2, b"b")
        with open(path, "ab") as f:
            f.write(garbage)
        with WriteAheadLog(path, metrics=metrics) as wal:
            records = list(wal.replay())
            assert [r.object_id for r in records] == [1, 2]
            # The repaired log keeps accepting appends.
            wal.append_insert(3, b"c")
            assert [r.object_id for r in wal.replay()] == [1, 2, 3]
        assert metrics.get(MetricsCollector.WAL_TORN_TAILS) >= 1

    def test_every_cut_point_recovers_a_record_prefix(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            for i in range(6):
                wal.append_insert(i, bytes([i]) * (5 + i))
        data = path.read_bytes()
        rng = np.random.default_rng(11)
        cuts = sorted(set(rng.integers(HEADER_SIZE, len(data), size=20).tolist()))
        for cut in cuts:
            short = tmp_path / f"cut-{cut}.log"
            short.write_bytes(data[:cut])
            with WriteAheadLog(short) as wal:
                records = list(wal.replay())
            # Always a strict prefix, never a reordering or an invention.
            assert [r.object_id for r in records] == list(range(len(records)))
            assert all(r.blob == bytes([r.object_id]) * (5 + r.object_id) for r in records)

    def test_corruption_inside_committed_prefix_is_fatal(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_insert(1, b"aaaaaaaa")
            wal.append_insert(2, b"bbbbbbbb")
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE + 10] ^= 0xFF  # flip a byte in the FIRST record
        path.write_bytes(bytes(data))
        with pytest.raises(StorageCorruptionError) as excinfo:
            with WriteAheadLog(path) as wal:
                list(wal.replay())
        assert excinfo.value.path is not None
        assert excinfo.value.offset is not None

    def test_bad_magic_is_fatal(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(StorageCorruptionError):
            WriteAheadLog(path)

    def test_truncate_resets_to_bare_header(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_insert(1, b"a")
            wal.truncate()
            assert list(wal.replay()) == []
            wal.append_insert(2, b"b")
            assert [r.object_id for r in wal.replay()] == [2]
        assert path.read_bytes()[:4] == WAL_MAGIC

    def test_sync_policy_is_validated(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "wal.log", sync="wrong")

    def test_fault_hook_fires_before_the_append(self, tmp_path):
        class Boom(Exception):
            pass

        calls = []

        def hook():
            calls.append(1)
            if len(calls) == 2:
                raise Boom()

        with WriteAheadLog(tmp_path / "wal.log", fault_hook=hook) as wal:
            wal.append_insert(1, b"a")
            with pytest.raises(Boom):
                wal.append_insert(2, b"b")
            # The failed append wrote nothing: the log holds only record 1.
            assert [r.object_id for r in wal.replay()] == [1]


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = Manifest(kind="sharded", n_shards=4, last_seq=17, snapshots=2)
        write_manifest(tmp_path, manifest)
        loaded = read_manifest(tmp_path)
        assert loaded.kind == "sharded"
        assert loaded.n_shards == 4
        assert loaded.last_seq == 17
        assert loaded.snapshots == 2

    def test_missing_manifest_is_corruption(self, tmp_path):
        with pytest.raises(StorageCorruptionError):
            read_manifest(tmp_path)

    def test_unreadable_manifest_is_corruption(self, tmp_path):
        (tmp_path / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(StorageCorruptionError):
            read_manifest(tmp_path)


class TestSnapshotManager:
    def test_snapshot_every_n_appends(self, tmp_path):
        saves = []
        wal = WriteAheadLog(tmp_path / "wal.log")
        manager = SnapshotManager(
            directory=tmp_path,
            wal=wal,
            save=lambda: saves.append(wal.next_seq),
            every=3,
        )
        fired = []
        for i in range(7):
            wal.append_insert(i, b"x")
            fired.append(manager.record_append())
        assert fired.count(True) == 2  # at appends 3 and 6
        assert len(saves) == 2
        # Each snapshot truncated the log; only the post-snapshot tail remains.
        assert len(list(wal.replay())) == 1
        assert read_manifest(tmp_path).snapshots == 2
        wal.close()

    def test_snapshot_records_last_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        manager = SnapshotManager(directory=tmp_path, wal=wal, save=lambda: None)
        wal.append_insert(1, b"a")
        wal.append_insert(2, b"b")
        manager.snapshot()
        assert read_manifest(tmp_path).last_seq == 2
        assert list(wal.replay()) == []
        wal.close()


class TestBulkLoadAndCompaction:
    def _summaries(self, rng, n):
        return {
            i: build_summary(make_fuzzy_object(rng, object_id=i), rng=rng)
            for i in range(n)
        }

    def test_bulk_load_counts_and_validates(self, rng):
        metrics = MetricsCollector()
        summaries = self._summaries(rng, 40)
        tree = bulk_load_tree(summaries.values(), metrics=metrics)
        tree.validate()
        assert len(tree) == 40
        assert metrics.get(MetricsCollector.BULK_LOADS) == 1

    def test_delete_lazy_keeps_the_tree_valid(self, rng):
        summaries = self._summaries(rng, 60)
        tree = bulk_load_tree(summaries.values(), config=RuntimeConfig())
        order = list(summaries)
        rng.shuffle(order)
        for count, object_id in enumerate(order[:45], start=1):
            tree.delete_lazy(object_id, mbr=summaries[object_id].support_mbr)
            tree.validate()
            assert len(tree) == 60 - count
        remaining = {int(i) for view in tree.leaf_views() for i in view.object_ids}
        assert remaining == set(order[45:])

    def test_compaction_triggers_at_debt_ratio(self, rng):
        metrics = MetricsCollector()
        summaries = self._summaries(rng, 30)
        tree = bulk_load_tree(summaries.values(), metrics=metrics)
        manager = CompactionManager(debt_ratio=0.5, metrics=metrics)
        deleted = list(summaries)[:12]
        for object_id in deleted:
            tree.delete_lazy(object_id, mbr=summaries[object_id].support_mbr)
            manager.note_lazy_delete()
            del summaries[object_id]
        assert not manager.due(30)  # 12 < 0.5 * 30: not due yet at that size
        # 12 lazy deletes vs 18 live entries crosses the 0.5 ratio.
        assert manager.due(len(tree))
        rebuilt = manager.maybe_compact(tree, summaries.values())
        assert rebuilt is not None
        rebuilt.validate()
        assert len(rebuilt) == 18
        assert not manager.due(1)  # the debt went with the rebuild
        assert metrics.get(MetricsCollector.COMPACTIONS) == 1
        assert metrics.get(MetricsCollector.LAZY_DELETES) == 12

    def test_adopt_swaps_contents_in_place(self, rng):
        summaries = self._summaries(rng, 20)
        tree = bulk_load_tree(summaries.values())
        alias = tree  # searchers hold references like this
        rebuilt = RTree.bulk_load(list(summaries.values())[:5])
        mutations = tree.mutations
        tree.adopt(rebuilt)
        assert len(alias) == 5
        assert alias.mutations > mutations
