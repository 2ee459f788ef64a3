"""Snapshot + manifest lifecycle for durable databases.

A durable database directory holds three artifacts:

``objects.dat`` / ``catalog.json``
    The snapshot — the store's data file plus the catalog the database's
    ``save()`` writes (slot table, id watermark, summaries, config).
``wal.log``
    The mutation tail appended since the snapshot was taken.
``MANIFEST.json``
    A tiny pointer file naming the artifacts and the recovery parameters.

The manifest is published atomically (tmp file + ``os.replace``), and it is
written *last*: a crash at any point of the snapshot cycle leaves either the
old manifest (pointing at the old snapshot + a WAL whose records are all
replayable) or the new one.  Because mutation ids never recycle, replaying a
WAL record the snapshot already folded in is a no-op, so the
snapshot-then-truncate window needs no further coordination.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from ..exceptions import StorageCorruptionError
from ..metrics.counters import MetricsCollector
from .wal import WriteAheadLog

MANIFEST_FILE = "MANIFEST.json"
MANIFEST_VERSION = 1


@dataclass
class Manifest:
    """Recovery pointer for one durable database directory."""

    kind: str = "single"  # "single" | "sharded"
    n_shards: int = 1
    data_file: str = "objects.dat"
    catalog_file: str = "catalog.json"
    wal_file: str = "wal.log"
    last_seq: int = 0
    snapshots: int = 0
    version: int = MANIFEST_VERSION
    extra: dict = field(default_factory=dict)


def write_manifest(directory: Union[str, Path], manifest: Manifest) -> Path:
    """Atomically publish ``manifest`` into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / MANIFEST_FILE
    tmp = directory / (MANIFEST_FILE + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(asdict(manifest), handle, indent=2, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    return target


def read_manifest(directory: Union[str, Path]) -> Manifest:
    """Load the manifest of a durable directory, validating its shape."""
    path = Path(directory) / MANIFEST_FILE
    if not path.exists():
        raise StorageCorruptionError(
            f"{path}: manifest missing — not a durable database directory",
            path=path,
        )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (json.JSONDecodeError, OSError) as exc:
        raise StorageCorruptionError(
            f"{path}: unreadable manifest ({exc})", path=path
        ) from exc
    if not isinstance(raw, dict) or int(raw.get("version", -1)) != MANIFEST_VERSION:
        raise StorageCorruptionError(
            f"{path}: unsupported manifest version {raw.get('version')!r}",
            path=path,
        )
    known = {f for f in Manifest.__dataclass_fields__}
    return Manifest(**{k: v for k, v in raw.items() if k in known})


class SnapshotManager:
    """Folds the WAL into a snapshot every ``every`` appends.

    ``save`` is the database's snapshot callable (it must write the catalog
    atomically); the manager owns the cycle ordering: save snapshot → publish
    manifest → truncate WAL.  With ``every == 0`` only explicit
    :meth:`snapshot` calls fold the log.
    """

    def __init__(
        self,
        *,
        directory: Union[str, Path],
        wal: WriteAheadLog,
        save: Callable[[], None],
        every: int = 0,
        manifest: Optional[Manifest] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        if every < 0:
            raise ValueError("snapshot_every must be >= 0")
        self.directory = Path(directory)
        self.wal = wal
        self.save = save
        self.every = int(every)
        self.manifest = manifest or Manifest()
        self.metrics = metrics
        self._since_snapshot = 0

    def record_append(self) -> bool:
        """Note one WAL append; snapshot when the configured budget is hit.

        Returns ``True`` when a snapshot was taken.
        """
        self._since_snapshot += 1
        if self.every and self._since_snapshot >= self.every:
            self.snapshot()
            return True
        return False

    def snapshot(self) -> Manifest:
        """Fold the WAL tail into a fresh snapshot and truncate the log."""
        self.save()
        self.manifest.last_seq = self.wal.next_seq
        self.manifest.snapshots += 1
        write_manifest(self.directory, self.manifest)
        self.wal.truncate()
        self._since_snapshot = 0
        if self.metrics is not None:
            self.metrics.increment(MetricsCollector.SNAPSHOTS)
        return self.manifest
