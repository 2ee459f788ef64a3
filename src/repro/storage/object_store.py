"""A file-backed fuzzy object store with exact access counting.

The store mirrors the paper's storage model: the (large) point sets live on
disk, the index keeps only summaries, and every time a search algorithm needs
an actual object it performs an *object access* — the metric reported on the
y-axis of Figures 11, 13 and 15a.

Two usage modes are supported:

* **on-disk** (default): objects are appended to a single data file; ``get``
  seeks and reads the record back.
* **in-memory**: backed by a ``dict`` for unit tests and tiny examples; the
  access counter behaves identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import ObjectNotFoundError, StorageCorruptionError, StorageError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.storage.cache import LRUCache
from repro.storage.serialization import HEADER_SIZE, MAGIC, decode_object, encode_object


@dataclass
class StoreStatistics:
    """Counters describing the I/O behaviour of a store."""

    object_accesses: int = 0
    physical_reads: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    cache_hits: int = 0
    deletes: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.object_accesses = 0
        self.physical_reads = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.cache_hits = 0
        self.deletes = 0

    def snapshot(self) -> "StoreStatistics":
        """A copy of the current counters."""
        return StoreStatistics(
            object_accesses=self.object_accesses,
            physical_reads=self.physical_reads,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            cache_hits=self.cache_hits,
            deletes=self.deletes,
        )


@dataclass
class _Slot:
    """Location of one record inside the data file."""

    offset: int
    length: int


class ObjectStore:
    """Append-once store mapping object ids to fuzzy objects.

    Parameters
    ----------
    path:
        Path of the backing data file.  ``None`` selects the in-memory mode.
    cache_capacity:
        Number of decoded objects kept in an LRU buffer pool.  ``0`` (the
        default) disables the pool so every access is a physical read, which
        matches the paper's accounting.
    """

    def __init__(
        self,
        path: Optional[os.PathLike | str] = None,
        cache_capacity: int = 0,
    ):
        self._path = Path(path) if path is not None else None
        # Ids are never recycled: deleting the highest id must not let a later
        # ``put`` hand the same id out again, or stale per-id caches (alpha
        # cuts, distance profiles) would silently apply to the new object.
        self._id_watermark = 0
        self._slots: Dict[int, _Slot] = {}
        self._memory: Dict[int, bytes] = {}
        self._cache: LRUCache[int, FuzzyObject] = LRUCache(cache_capacity)
        self.statistics = StoreStatistics()
        self._file = None
        self._closed = False
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            # Open for appending + reading; create the file if needed.
            self._file = open(self._path, "a+b")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Push buffered appends to stable storage (no-op in memory mode)."""
        if self._file is not None and not self._closed:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        """Flush and close the backing file."""
        if self._file is not None and not self._closed:
            self._file.flush()
            self._file.close()
        self._closed = True

    def __enter__(self) -> "ObjectStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def put(self, obj: FuzzyObject) -> int:
        """Append ``obj`` and return its object id.

        Objects without an id are assigned the next sequential id.
        """
        self._ensure_open()
        if obj.object_id is None:
            obj = obj.with_id(self._id_watermark)
        object_id = int(obj.object_id)
        if object_id in self._slots or object_id in self._memory:
            raise StorageError(f"object id {object_id} already stored")
        payload = encode_object(obj)
        if self._file is not None:
            self._file.seek(0, os.SEEK_END)
            offset = self._file.tell()
            self._file.write(payload)
            self._slots[object_id] = _Slot(offset=offset, length=len(payload))
        else:
            self._memory[object_id] = payload
            self._slots[object_id] = _Slot(offset=0, length=len(payload))
        self.statistics.bytes_written += len(payload)
        self._id_watermark = max(self._id_watermark, object_id + 1)
        return object_id

    def delete(self, object_id: int) -> None:
        """Remove one object from the store.

        On-disk mode leaves the record bytes dead in the data file (the store
        is append-only); the slot is dropped so the id can no longer be
        probed, and any buffered copy is evicted from the cache.  Deleted ids
        are never reassigned by :meth:`put`.
        """
        self._ensure_open()
        object_id = int(object_id)
        # pop() keeps concurrent deletes of the same id race-free: exactly
        # one caller wins, the other sees the consistent not-found.
        if self._slots.pop(object_id, None) is None:
            raise ObjectNotFoundError(f"object {object_id} is not in the store")
        self._memory.pop(object_id, None)
        self._cache.invalidate(object_id)
        self.statistics.deletes += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, object_id: int) -> FuzzyObject:
        """Probe one object from storage, counting the access."""
        self._ensure_open()
        object_id = int(object_id)
        if object_id not in self._slots:
            raise ObjectNotFoundError(f"object {object_id} is not in the store")
        self.statistics.object_accesses += 1
        cached = self._cache.get(object_id)
        if cached is not None:
            self.statistics.cache_hits += 1
            return cached
        payload = self._read_payload(object_id)
        self.statistics.physical_reads += 1
        self.statistics.bytes_read += len(payload)
        obj = decode_object(payload)
        if obj.object_id is None:
            obj = obj.with_id(object_id)
        self._cache.put(object_id, obj)
        return obj

    def _read_payload(self, object_id: int) -> bytes:
        # Re-fetch instead of indexing: a delete racing a read must surface
        # as the not-found the caller already handles, never a KeyError.
        slot = self._slots.get(object_id)
        if slot is None:
            raise ObjectNotFoundError(f"object {object_id} is not in the store")
        if self._file is not None:
            self._file.flush()
            self._file.seek(slot.offset)
            payload = self._file.read(slot.length)
            if len(payload) != slot.length:
                raise StorageError(f"short read for object {object_id}")
            return payload
        return self._memory[object_id]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, object_id: int) -> bool:
        return int(object_id) in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def object_ids(self) -> List[int]:
        """All stored ids in insertion order."""
        return sorted(self._slots.keys())

    def iter_objects(self, count_accesses: bool = True) -> Iterator[FuzzyObject]:
        """Iterate over every stored object.

        ``count_accesses=False`` is used by offline build steps (for example
        summary construction) that should not pollute the query-time metrics.
        """
        for object_id in self.object_ids():
            if count_accesses:
                yield self.get(object_id)
            else:
                payload = self._read_payload(object_id)
                obj = decode_object(payload)
                if obj.object_id is None:
                    obj = obj.with_id(object_id)
                yield obj

    @property
    def access_count(self) -> int:
        """Number of object accesses since the last reset."""
        return self.statistics.object_accesses

    def reset_statistics(self) -> None:
        """Zero counters before running a measured query."""
        self.statistics.reset()
        self._cache.reset_statistics()

    def slot_table(self) -> Dict[int, Tuple[int, int]]:
        """``{object_id: (offset, length)}`` — exposed for catalogue persistence."""
        return {oid: (slot.offset, slot.length) for oid, slot in self._slots.items()}

    @property
    def path(self) -> Optional[Path]:
        """Backing data file, ``None`` for in-memory stores."""
        return self._path

    def dump(self, path: os.PathLike | str) -> Dict[int, Tuple[int, int]]:
        """Write every live record to a fresh data file at ``path``.

        The file is published atomically (tmp + ``os.replace``) and the new
        slot table is returned.  Snapshots use this to materialise in-memory
        stores (and to compact on-disk ones whose data file lives elsewhere);
        the store itself keeps serving from its current backing.
        """
        self._ensure_open()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        table: Dict[int, Tuple[int, int]] = {}
        with open(tmp, "wb") as out:
            for object_id in self.object_ids():
                payload = self._read_payload(object_id)
                table[object_id] = (out.tell(), len(payload))
                out.write(payload)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
        return table

    def _ensure_open(self) -> None:
        if self._closed:
            raise StorageError("object store has been closed")

    # ------------------------------------------------------------------
    # Re-opening an existing store
    # ------------------------------------------------------------------
    @property
    def id_watermark(self) -> int:
        """The smallest id a future :meth:`put` may assign.

        Monotonically increasing and never behind ``max(ids) + 1``; persist
        it alongside the slot table so the never-recycle-ids guarantee
        survives a save/reopen even when the highest id was deleted.
        """
        return self._id_watermark

    @classmethod
    def open_existing(
        cls,
        path: os.PathLike | str,
        slot_table: Dict[int, Tuple[int, int]],
        cache_capacity: int = 0,
        id_watermark: Optional[int] = None,
    ) -> "ObjectStore":
        """Attach to a previously written data file using its slot table.

        ``id_watermark`` restores the persisted never-recycle bound; when
        absent (older catalogues) it falls back to ``max(ids) + 1``, which
        is correct unless the highest id had been deleted before saving.

        The file is validated against the slot table before the store is
        handed out: a missing or truncated data file, or a record that does
        not start with the codec magic, raises
        :class:`~repro.exceptions.StorageCorruptionError` naming the path
        and byte offset of the damage.  Crash recovery relies on this
        distinction — a WAL with a torn tail is repairable, a data file that
        cannot back its own catalogue is not.
        """
        path = Path(path)
        slots = {
            int(oid): _Slot(offset=int(off), length=int(length))
            for oid, (off, length) in slot_table.items()
        }
        if not path.exists():
            raise StorageCorruptionError(
                f"{path}: data file is missing", path=path, offset=0
            )
        size = path.stat().st_size
        for oid, slot in sorted(slots.items(), key=lambda kv: kv[1].offset):
            if slot.offset + slot.length > size:
                raise StorageCorruptionError(
                    f"{path}: truncated data file — object {oid} needs bytes "
                    f"[{slot.offset}, {slot.offset + slot.length}) but the file "
                    f"has {size}",
                    path=path,
                    offset=slot.offset,
                )
            if slot.length < HEADER_SIZE:
                raise StorageCorruptionError(
                    f"{path}: slot for object {oid} is shorter than a record "
                    f"header",
                    path=path,
                    offset=slot.offset,
                )
        # Spot-check the record magic at the shallowest and deepest slots —
        # catches a data file that has the right size but the wrong content
        # (e.g. a catalogue pointed at an unrelated file) without paying a
        # full scan on every open.
        if slots:
            with open(path, "rb") as probe:
                by_offset = sorted(slots.items(), key=lambda kv: kv[1].offset)
                for oid, slot in (by_offset[0], by_offset[-1]):
                    probe.seek(slot.offset)
                    if probe.read(len(MAGIC)) != MAGIC:
                        raise StorageCorruptionError(
                            f"{path}: record for object {oid} at offset "
                            f"{slot.offset} does not start with the codec magic",
                            path=path,
                            offset=slot.offset,
                        )
        store = cls(path=path, cache_capacity=cache_capacity)
        store._slots = slots
        floor = max(store._slots.keys(), default=-1) + 1
        store._id_watermark = max(floor, int(id_watermark or 0))
        return store
