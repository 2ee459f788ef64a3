"""The top-level facade bundling store, index and searchers.

:class:`FuzzyDatabase` is what most users interact with.  Every query is a
typed request executed through one surface::

    from repro import AknnRequest, FuzzyDatabase, SweepRequest

    db = FuzzyDatabase.build(objects, path="cells.db")
    result = db.execute(AknnRequest(query, k=20, alpha=0.5))
    ranges = db.execute(SweepRequest(query, k=20, alpha_range=(0.3, 0.6)))
    results = db.execute_batch(mixed_requests)  # types may mix freely

``execute_batch`` groups a mixed submission into per-type, per-bucket
sub-batches (see :mod:`repro.core.requests`); requests sharing a
``bucket_key()`` are answered by their family's one pass over this database,
a partition set of one (one R-tree traversal for an AKNN or a range bucket,
one filter pass against a cached k-th MaxDist table + one traversal around
the candidates for a reverse bucket).

The database owns the object store (point sets on disk or in memory), the
R-tree over per-object summaries, and the KD-tree and bound tables over its
leaves that the passes bound from.  A database built on disk can be
persisted (:meth:`FuzzyDatabase.save`) and re-opened later
(:meth:`FuzzyDatabase.open`) without rebuilding summaries or re-fitting
conservative lines.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import RuntimeConfig
from repro.core.executor import RepresentativeIndex, aknn_bucket_pass
from repro.core.range_search import range_pass
from repro.core.requests import (
    AknnRequest,
    Engine,
    RangeRequest,
    ReverseRequest,
    SweepRequest,
)
from repro.core.results import AKNNResult, RangeSearchResult, RKNNResult
from repro.core.reverse_nn import ReverseKNNResult, reverse_bucket_pass
from repro.core.rknn import sweep_pass
from repro.exceptions import ObjectNotFoundError, StorageError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.summary import FuzzyObjectSummary, build_summaries, build_summary
from repro.index.bulk import CompactionManager, bulk_load_tree
from repro.index.rtree import RTree
from repro.metrics.counters import MetricsCollector, SharedMetricsCollector
from repro.storage.object_store import ObjectStore
from repro.storage.serialization import decode_object, encode_object
from repro.storage.snapshot import Manifest, SnapshotManager, read_manifest
from repro.storage.wal import WriteAheadLog

# File names used by save() / open().
_DATA_FILE = "objects.dat"
_CATALOG_FILE = "catalog.json"
_CATALOG_VERSION = 1


class FuzzyDatabase(Engine):
    """A searchable collection of fuzzy objects."""

    def __init__(
        self,
        store: ObjectStore,
        tree: RTree,
        summaries: Dict[int, FuzzyObjectSummary],
        config: Optional[RuntimeConfig] = None,
    ):
        self.store = store
        self.tree = tree
        self.summaries = summaries
        self.config = (config or RuntimeConfig()).validate()
        # The KD-tree and bound tables over this database's leaves, which the
        # AKNN, sweep and reverse passes bound from.
        self._rep_index = RepresentativeIndex()
        # Request-planner telemetry (plan_groups / plan_requests / the shared
        # batch counters), observable per database instance.
        self.metrics = SharedMetricsCollector()
        # Durability machinery, attached by enable_durability()/recover().
        self._wal: Optional[WriteAheadLog] = None
        self._snapshots: Optional[SnapshotManager] = None
        self._compaction: Optional[CompactionManager] = None
        self._durable_dir: Optional[Path] = None
        # Update listeners (e.g. the standing-query engine), notified after
        # every applied mutation.
        self._update_listeners: List = []
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        objects: Iterable[FuzzyObject],
        path: Optional[os.PathLike | str] = None,
        config: Optional[RuntimeConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "FuzzyDatabase":
        """Build a database from an iterable of fuzzy objects.

        Parameters
        ----------
        objects:
            Fuzzy objects to load.  Objects without an id receive sequential
            ids; explicit ids must be unique.
        path:
            Directory for the on-disk data file.  ``None`` keeps the point
            sets in memory (useful for tests and small examples).
        config:
            Runtime configuration (R-tree fan-out, cache capacity, ...).
        rng:
            Randomness source for ``rep(A)``, drawn here once per object
            (the first kernel point without one).  Nothing else draws: an
            insert, and its replay on recovery, take the first kernel point.
        """
        config = (config or RuntimeConfig()).validate()
        data_path = None
        if path is not None:
            directory = Path(path)
            directory.mkdir(parents=True, exist_ok=True)
            data_path = directory / _DATA_FILE
        store = ObjectStore(path=data_path, cache_capacity=config.cache_capacity)

        def stored() -> Iterator[FuzzyObject]:
            for obj in objects:
                object_id = store.put(obj)
                yield obj if obj.object_id is not None else obj.with_id(object_id)

        summaries = {s.object_id: s for s in build_summaries(stored(), rng=rng)}
        boot = SharedMetricsCollector()
        tree = bulk_load_tree(summaries.values(), config=config, metrics=boot)
        db = cls(store, tree, summaries, config)
        db.metrics.merge(boot)
        return db

    # ------------------------------------------------------------------
    # Bucket hooks (see repro.core.requests)
    # ------------------------------------------------------------------
    # Each family's pass runs over this database as a partition set of one
    # (``store`` / ``tree``, as a shard exposes them), fanned out by a plain
    # call, exactly as the sharded database runs it over its live shards.
    # The ``deadline`` keyword is the bucket's abort point (latest member
    # expiry), which the passes check between their stages.
    def _fan_out(self, op: str, fn):
        return [fn(self)]

    def _execute_aknn_bucket(
        self,
        bucket: Sequence[AknnRequest],
        deadline=None,
    ) -> List[AKNNResult]:
        return aknn_bucket_pass(
            self._rep_index, [self], self._fan_out, [request.query for request in bucket],
            bucket[0].k, bucket[0].alpha, bucket[0].method.value, self.config,
            self.metrics, deadline=deadline,
        )

    def _execute_range_bucket(
        self,
        bucket: Sequence[RangeRequest],
        deadline=None,
    ) -> List[RangeSearchResult]:
        return range_pass(
            [self], self._fan_out, [request.query for request in bucket], bucket[0].alpha,
            [request.radius for request in bucket], self.config, deadline=deadline,
        )

    def _execute_sweep_bucket(
        self,
        bucket: Sequence[SweepRequest],
        deadline=None,
    ) -> List[RKNNResult]:
        return [
            sweep_pass(
                self._rep_index, [self], self._fan_out, self.config,
                request.query, request.k, request.alpha_range,
                method=request.method.value, aknn_method=request.aknn_method.value,
                deadline=deadline,
            )
            for request in bucket
        ]

    def _execute_reverse_bucket(
        self,
        bucket: Sequence[ReverseRequest],
        deadline=None,
    ) -> List[ReverseKNNResult]:
        return reverse_bucket_pass(
            self._rep_index, [self], self._fan_out, [request.query for request in bucket],
            bucket[0].k, bucket[0].alpha, self.config, self.metrics, deadline=deadline,
        )

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------
    def insert(self, obj: FuzzyObject) -> int:
        """Add one object to the running database; returns its object id.

        The object is appended to the store, summarised, and inserted into
        the R-tree (Guttman insertion with quadratic splits).  The next query
        sees it immediately; derived caches (the AKNN buckets'
        representative index and bound table, node SoA views) refresh
        themselves through the tree's mutation counter and incremental SoA
        maintenance.  Geometry is
        revalidated first (non-finite points would poison MBRs and distance
        evaluations) before any store or index state is touched.

        With durability enabled the mutation is logged *before* it is
        applied (write-ahead ordering): the id is pre-assigned from the
        store's watermark, the encoded object goes into the WAL, and only
        then does the store append.  A crash at any point in between is
        covered — replay re-applies the logged record, and ids never recycle
        so replaying an already-applied record is a no-op.  An explicit id
        below the store's id watermark (stored now, or deleted) is rejected
        with :class:`~repro.exceptions.StorageError`.
        """
        obj = obj.require_finite()
        if obj.object_id is not None and obj.object_id < self.store.id_watermark:
            raise StorageError(
                f"object id {obj.object_id} is below the id watermark "
                f"{self.store.id_watermark}: ids are never recycled"
            )
        if self._wal is not None:
            if obj.object_id is None:
                obj = obj.with_id(self.store.id_watermark)
            self._wal.append_insert(int(obj.object_id), encode_object(obj))
        object_id = self.store.put(obj)
        if obj.object_id is None:
            obj = obj.with_id(object_id)
        summary = build_summary(obj)
        self.summaries[object_id] = summary
        self.tree.insert(summary)
        if self._snapshots is not None:
            self._snapshots.record_append()
        self._notify_insert(obj)
        return object_id

    def delete(self, object_id: int) -> None:
        """Remove one object from the running database.

        Without durability the R-tree entry is deleted with Guttman's
        condense-tree (orphan reinsertion on the write path).  A durable
        database logs the delete first, then takes the deferred path:
        :meth:`~repro.index.rtree.RTree.delete_lazy` removes the entry and
        prunes empty nodes only, and the accumulated fill debt is repaid by
        an STR repack once :class:`~repro.index.bulk.CompactionManager`
        says it is due.  Deleted ids are never reassigned, so per-id caches
        cannot alias a later insert.
        """
        object_id = int(object_id)
        if object_id not in self.summaries:
            raise ObjectNotFoundError(f"object {object_id} is not in the database")
        if self._wal is not None:
            self._wal.append_delete(object_id)
        # pop() wins exactly once under concurrent deletes of the same id;
        # the loser reports the consistent not-found instead of a KeyError.
        summary = self.summaries.pop(object_id, None)
        if summary is None:
            raise ObjectNotFoundError(f"object {object_id} is not in the database")
        if self._compaction is not None:
            self.tree.delete_lazy(object_id, mbr=summary.support_mbr)
            self._compaction.note_lazy_delete()
            rebuilt = self._compaction.maybe_compact(
                self.tree, self.summaries.values(), self.config
            )
            if rebuilt is not None:
                self.tree.adopt(rebuilt)
        else:
            self.tree.delete(object_id, mbr=summary.support_mbr)
        self.store.delete(object_id)
        if self._snapshots is not None:
            self._snapshots.record_append()
        self._notify_delete(object_id)

    def get_object(self, object_id: int) -> FuzzyObject:
        """Probe one object from the store (counted as an object access)."""
        return self.store.get(object_id)

    # ------------------------------------------------------------------
    # Introspection and statistics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.store)

    def object_ids(self) -> List[int]:
        """Ids of every stored object."""
        return self.store.object_ids()

    def reset_statistics(self) -> None:
        """Zero the store's access counters before a measured query."""
        self.store.reset_statistics()

    @property
    def object_accesses(self) -> int:
        """Object accesses since the last :meth:`reset_statistics`."""
        return self.store.access_count

    def validate(self) -> None:
        """Check index invariants (raises on violation)."""
        self.tree.validate()
        if len(self.tree) != len(self.store):
            raise StorageError(
                f"index holds {len(self.tree)} entries but the store has "
                f"{len(self.store)} objects"
            )

    def close(self) -> None:
        """Close the database; a durable one takes a final snapshot first."""
        if self._closed:
            return
        self._closed = True
        if self._snapshots is not None:
            self._snapshots.snapshot()
        if self._wal is not None:
            self._wal.close()
        self.store.close()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: os.PathLike | str) -> Path:
        """Write the catalogue (summaries + slot table) next to the data file.

        The catalogue is published atomically (tmp file + ``os.replace``):
        a crash mid-save leaves the previous good catalogue intact instead
        of a half-written one.  A database whose store is in memory (or
        backed elsewhere) first materialises its records into
        ``objects.dat`` inside ``path`` — also atomically — so the saved
        directory is always self-contained.  Returns the catalogue path.
        """
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        data_path = directory / _DATA_FILE
        store_path = self.store.path
        if store_path is not None and Path(store_path).resolve() == data_path.resolve():
            # The data file already lives here; make its appends durable
            # before the catalogue starts referencing their offsets.
            self.store.flush()
            slots = self.store.slot_table()
        else:
            slots = self.store.dump(data_path)
        catalog = {
            "version": _CATALOG_VERSION,
            "config": dataclasses.asdict(self.config),
            "slots": {str(oid): list(slot) for oid, slot in slots.items()},
            "id_watermark": self.store.id_watermark,
        }
        catalog_path = directory / _CATALOG_FILE
        tmp_path = directory / (_CATALOG_FILE + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            # json.dump's bytes with "summaries" last, but through the C
            # encoder (json.dump streams through the pure-Python one), one
            # summary at a time: one dumps of the whole catalogue holds
            # every encoded float at once.
            handle.write(json.dumps(catalog)[:-1] + ', "summaries": [')
            for i, summary in enumerate(self.summaries.values()):
                handle.write((", " if i else "") + json.dumps(summary.to_dict()))
            handle.write("]}")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, catalog_path)
        return catalog_path

    @classmethod
    def _load_snapshot(
        cls,
        directory: Path,
        config: Optional[RuntimeConfig],
        data_file: str = _DATA_FILE,
        catalog_file: str = _CATALOG_FILE,
    ) -> Tuple[ObjectStore, Dict[int, FuzzyObjectSummary], RuntimeConfig]:
        """Load the persisted store + summaries without building the tree."""
        catalog_path = directory / catalog_file
        data_path = directory / data_file
        if not catalog_path.exists() or not data_path.exists():
            raise StorageError(f"no saved database found under {directory}")
        with open(catalog_path, "r", encoding="utf-8") as handle:
            catalog = json.load(handle)
        if catalog.get("version") != _CATALOG_VERSION:
            raise StorageError(
                f"unsupported catalogue version {catalog.get('version')!r}"
            )
        if config is None:
            # The config the directory was written with; a field an older
            # catalogue does not store keeps its default.
            known = {field.name for field in dataclasses.fields(RuntimeConfig)}
            stored = catalog.get("config", {})
            config = RuntimeConfig(**{k: v for k, v in stored.items() if k in known})
        config = config.validate()
        slot_table = {
            int(oid): (int(slot[0]), int(slot[1]))
            for oid, slot in catalog["slots"].items()
        }
        store = ObjectStore.open_existing(
            data_path,
            slot_table,
            cache_capacity=config.cache_capacity,
            id_watermark=int(catalog.get("id_watermark", 0)),
        )
        summaries = {
            int(payload["object_id"]): FuzzyObjectSummary.from_dict(payload)
            for payload in catalog["summaries"]
        }
        return store, summaries, config

    @classmethod
    def open(
        cls,
        path: os.PathLike | str,
        config: Optional[RuntimeConfig] = None,
    ) -> "FuzzyDatabase":
        """Re-open a database previously written by :meth:`save`.

        The R-tree is rebuilt with one counted STR bulk-load pass (see
        :func:`repro.index.bulk.bulk_load_tree`), never one insert at a
        time.
        """
        directory = Path(path)
        store, summaries, config = cls._load_snapshot(directory, config)
        boot = SharedMetricsCollector()
        tree = bulk_load_tree(summaries.values(), config=config, metrics=boot)
        db = cls(store, tree, summaries, config)
        db.metrics.merge(boot)
        return db

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @property
    def durable(self) -> bool:
        """Whether a write-ahead log is attached."""
        return self._wal is not None

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        return self._wal

    @property
    def snapshots(self) -> Optional[SnapshotManager]:
        return self._snapshots

    def enable_durability(
        self,
        directory: os.PathLike | str,
        *,
        fault_hook=None,
    ) -> "FuzzyDatabase":
        """Attach a WAL + snapshot cycle rooted at ``directory``.

        Takes an initial snapshot (catalogue + data file + manifest) so the
        directory is recoverable from the first logged mutation on, then
        logs every subsequent insert/delete ahead of applying it.  Deletes
        switch to the deferred-compaction path (lazy R-tree removal, STR
        repack when the debt crosses :class:`CompactionManager`'s ratio).
        ``fault_hook`` is invoked before every WAL append (chaos testing;
        see :mod:`repro.service.faults`).

        This is for a *live, consistent* database; to attach to a directory
        left behind by a crash, use :meth:`recover` — calling this directly
        would truncate an unreplayed WAL tail.
        """
        if self._wal is not None:
            raise StorageError("durability is already enabled")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self._durable_dir = directory
        self._wal = WriteAheadLog(
            directory / "wal.log",
            sync=self.config.wal_sync,
            metrics=self.metrics,
            fault_hook=fault_hook,
        )
        self._compaction = CompactionManager(metrics=self.metrics)
        self._snapshots = SnapshotManager(
            directory=directory,
            wal=self._wal,
            save=lambda: self.save(directory),
            every=self.config.snapshot_every,
            manifest=Manifest(kind="single"),
            metrics=self.metrics,
        )
        self._snapshots.snapshot()
        return self

    @classmethod
    def recover(
        cls,
        path: os.PathLike | str,
        config: Optional[RuntimeConfig] = None,
        *,
        resume: bool = True,
    ) -> "FuzzyDatabase":
        """Recover a durable database directory after a crash.

        Loads the last published snapshot, replays the WAL tail on top of
        it (repairing a torn final record in place), and packs the R-tree
        with one STR bulk load — the RECOVERIES / WAL_REPLAYED / BULK_LOADS
        counters record exactly that.  Replay is idempotent because ids are
        never recycled: records the snapshot already covers are skipped.

        With ``resume=True`` (default) durability is re-enabled on the same
        directory and a fresh snapshot folds the replayed tail in, so the
        recovered database continues exactly where the crashed one left
        off.
        """
        directory = Path(path)
        manifest = read_manifest(directory)
        if manifest.kind != "single":
            raise StorageError(
                f"{directory} holds a {manifest.kind!r} database — recover it "
                "through ShardedDatabase.recover()"
            )
        store, summaries, config = cls._load_snapshot(
            directory, config, manifest.data_file, manifest.catalog_file
        )
        boot = SharedMetricsCollector()
        wal = WriteAheadLog(
            directory / manifest.wal_file, sync=config.wal_sync, metrics=boot
        )
        replayed, inserted = 0, []
        for record in wal.replay():
            if record.is_insert:
                if record.object_id in store:
                    continue
                inserted.append(decode_object(record.blob))
                store.put(inserted[-1])
            else:
                if record.object_id not in store:
                    continue
                summaries.pop(record.object_id, None)
                store.delete(record.object_id)
            replayed += 1
        wal.close()
        # The tail's inserts in one build; ids never recycle, so an id the
        # tail deleted stays out.
        for summary in build_summaries(inserted):
            if summary.object_id in store:
                summaries[summary.object_id] = summary
        tree = bulk_load_tree(summaries.values(), config=config, metrics=boot)
        db = cls(store, tree, summaries, config)
        boot.increment(MetricsCollector.WAL_REPLAYED, replayed)
        boot.increment(MetricsCollector.RECOVERIES)
        db.metrics.merge(boot)
        if resume:
            db.enable_durability(directory)
        return db
