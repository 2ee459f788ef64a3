"""Per-shard write-ahead log.

Durability for live mutations follows the classic recipe: before an insert or
delete touches the in-memory index or the object store, the mutation is
appended to an append-only log.  Crash recovery loads the last snapshot and
replays the log tail; because object ids are never recycled (the store's id
watermark only moves forward), replay is idempotent — an insert whose id is
already present and a delete whose id is already absent are both no-ops, so a
crash *between* the log append and the in-memory apply is harmless.

File layout::

    [8-byte file header: magic b"FZWL" + version u32]
    [record]*

    record  := [length u32][crc32 u32][payload]
    payload := [op u8][seq u64][object_id i64][blob]
    blob    := encode_object(...) for inserts, empty for deletes

Everything is little-endian.  The CRC covers the payload only, so a torn
record (short length prefix, short payload, or checksum mismatch **at the end
of the file**) is recognised as the expected artifact of a crash mid-append:
:meth:`WriteAheadLog.replay` truncates the file back to the last intact
record and continues.  Damage *inside* the committed prefix — a record that
fails its checksum but is followed by more bytes than a single torn append
could leave — means the file itself is bad and surfaces as
:class:`~repro.exceptions.StorageCorruptionError` instead.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Union

from ..exceptions import StorageCorruptionError, StorageError
from ..metrics.counters import MetricsCollector

WAL_MAGIC = b"FZWL"
WAL_VERSION = 1

_FILE_HEADER = struct.Struct("<4sI")
_RECORD_HEADER = struct.Struct("<II")  # payload length, crc32(payload)
_PAYLOAD_HEADER = struct.Struct("<BQq")  # op, seq, object_id

OP_INSERT = 1
OP_DELETE = 2

#: Valid values of ``RuntimeConfig.wal_sync``.
SYNC_POLICIES = ("none", "flush", "fsync")


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    op: int
    seq: int
    object_id: int
    blob: bytes = b""

    @property
    def is_insert(self) -> bool:
        return self.op == OP_INSERT


class WriteAheadLog:
    """An append-only, checksummed mutation log for one database (or shard).

    Parameters
    ----------
    path:
        Log file location; created (with its parent directory) when missing.
    sync:
        One of :data:`SYNC_POLICIES` — how hard each append pushes bytes
        toward the platter.
    metrics:
        Optional collector for WAL_APPENDS / WAL_REPLAYED / WAL_TORN_TAILS
        (torn-tail repairs) / WAL_TRUNCATIONS (post-snapshot resets).
    fault_hook:
        Optional zero-argument callable invoked *before* every append; the
        chaos tests use it to crash the process mid-churn at targeted
        append indices (see :mod:`repro.service.faults`).
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        sync: str = "flush",
        metrics: Optional[MetricsCollector] = None,
        fault_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        if sync not in SYNC_POLICIES:
            raise ValueError(f"sync must be one of {SYNC_POLICIES}, got {sync!r}")
        self.path = Path(path)
        self.sync = sync
        self.metrics = metrics
        self.fault_hook = fault_hook
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._file = open(self.path, "a+b")
        if fresh:
            self._file.write(_FILE_HEADER.pack(WAL_MAGIC, WAL_VERSION))
            self._file.flush()
        self._next_seq = 0
        # Scanning the existing tail both validates the header and positions
        # the sequence counter after the last committed record.
        for record in self.replay():
            self._next_seq = max(self._next_seq, record.seq + 1)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append_insert(self, object_id: int, blob: bytes) -> int:
        """Log an insert of ``object_id`` with its encoded object ``blob``."""
        return self._append(OP_INSERT, object_id, blob)

    def append_delete(self, object_id: int) -> int:
        """Log a delete of ``object_id``."""
        return self._append(OP_DELETE, object_id, b"")

    def _append(self, op: int, object_id: int, blob: bytes) -> int:
        if self._file.closed:
            raise StorageError("write-ahead log is closed")
        if self.fault_hook is not None:
            self.fault_hook()
        seq = self._next_seq
        payload = _PAYLOAD_HEADER.pack(op, seq, object_id) + blob
        record = _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._file.seek(0, os.SEEK_END)
        self._file.write(record)
        if self.sync == "flush":
            self._file.flush()
        elif self.sync == "fsync":
            self._file.flush()
            os.fsync(self._file.fileno())
        self._next_seq = seq + 1
        if self.metrics is not None:
            self.metrics.increment(MetricsCollector.WAL_APPENDS)
        return seq

    @property
    def next_seq(self) -> int:
        return self._next_seq

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def replay(self) -> Iterator[WalRecord]:
        """Yield every committed record, repairing a torn tail in place.

        A torn tail (crash artifact) is truncated away and counted under
        WAL_TORN_TAILS; structural damage earlier in the file raises
        :class:`StorageCorruptionError`.
        """
        self._file.flush()
        self._file.seek(0)
        data = self._file.read()
        records, good_end = self._scan(data)
        if good_end < len(data):
            self._truncate_to(good_end)
        for record in records:
            yield record

    def _scan(self, data: bytes) -> tuple:
        if len(data) < _FILE_HEADER.size:
            # A file so short it lacks even the header can only be a crash
            # during creation: treat as empty and rewrite the header.
            return [], 0
        magic, version = _FILE_HEADER.unpack_from(data, 0)
        if magic != WAL_MAGIC:
            raise StorageCorruptionError(
                f"{self.path}: bad WAL magic {magic!r}", path=self.path, offset=0
            )
        if version != WAL_VERSION:
            raise StorageCorruptionError(
                f"{self.path}: unsupported WAL version {version}",
                path=self.path,
                offset=4,
            )
        records: List[WalRecord] = []
        offset = _FILE_HEADER.size
        while offset < len(data):
            start = offset
            if offset + _RECORD_HEADER.size > len(data):
                break  # torn length prefix
            length, crc = _RECORD_HEADER.unpack_from(data, offset)
            offset += _RECORD_HEADER.size
            if offset + length > len(data):
                offset = start
                break  # torn payload
            payload = data[offset : offset + length]
            if zlib.crc32(payload) != crc or length < _PAYLOAD_HEADER.size:
                if offset + length < len(data):
                    # Bytes follow the damaged record: this is not a torn
                    # append but corruption inside the committed prefix.
                    raise StorageCorruptionError(
                        f"{self.path}: checksum mismatch at offset {start}",
                        path=self.path,
                        offset=start,
                    )
                offset = start
                break
            op, seq, object_id = _PAYLOAD_HEADER.unpack_from(payload, 0)
            if op not in (OP_INSERT, OP_DELETE):
                raise StorageCorruptionError(
                    f"{self.path}: unknown WAL op {op} at offset {start}",
                    path=self.path,
                    offset=start,
                )
            records.append(
                WalRecord(op=op, seq=seq, object_id=object_id,
                          blob=payload[_PAYLOAD_HEADER.size :])
            )
            offset += length
        return records, offset

    def _truncate_to(self, good_end: int) -> None:
        self._file.seek(0)
        keep = self._file.read(max(good_end, 0))
        if len(keep) < _FILE_HEADER.size:
            keep = _FILE_HEADER.pack(WAL_MAGIC, WAL_VERSION)
        self._file.close()
        with open(self.path, "wb") as fresh:
            fresh.write(keep)
            fresh.flush()
            os.fsync(fresh.fileno())
        self._file = open(self.path, "a+b")
        if self.metrics is not None:
            self.metrics.increment(MetricsCollector.WAL_TORN_TAILS)

    # ------------------------------------------------------------------
    # Truncation (after a snapshot folded the log in)
    # ------------------------------------------------------------------

    def truncate(self) -> None:
        """Discard every record; the snapshot now owns their effects."""
        self._file.close()
        with open(self.path, "wb") as fresh:
            fresh.write(_FILE_HEADER.pack(WAL_MAGIC, WAL_VERSION))
            fresh.flush()
            os.fsync(fresh.fileno())
        self._file = open(self.path, "a+b")
        if self.metrics is not None:
            self.metrics.increment(MetricsCollector.WAL_TRUNCATIONS)

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"WriteAheadLog(path={str(self.path)!r}, sync={self.sync!r})"
