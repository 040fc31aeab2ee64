"""Versioned, checksummed scheduler-state snapshots.

One snapshot is one JSON file in the shard's state directory::

    snapshot-000000001234.json
    {
      "version": 1,
      "wal_seq": 1234,             # first WAL seq NOT in the snapshot
      "checksum": "sha256-hex of the canonical payload encoding",
      "payload": { ... SchedulerService.export_state() ... }
    }

``wal_seq`` is the event log's *next* sequence number at capture
time: the snapshot is exactly the fold of every WAL record with
``seq < wal_seq``, so recovery is ``import_state(payload)`` followed
by replaying records with ``seq >= wal_seq`` (see
:mod:`repro.cluster.shard`).

Writes are atomic (tmp file + fsync + rename) and pruned to the
newest ``keep`` files; reads verify version and checksum and fall
back to the next-older snapshot on any mismatch — a torn or
bit-rotted snapshot costs replay time, never correctness.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import re
from typing import Dict, List, Optional, Tuple

__all__ = ["SNAPSHOT_VERSION", "SnapshotError", "list_snapshots",
           "load_latest_snapshot", "snapshot_path", "write_snapshot"]

log = logging.getLogger("repro.cluster.snapshot")

SNAPSHOT_VERSION = 1

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.json$")


class SnapshotError(RuntimeError):
    """No usable snapshot could be written or read."""


def _checksum(payload: Dict) -> str:
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def snapshot_path(state_dir: str, wal_seq: int) -> str:
    return os.path.join(state_dir, f"snapshot-{wal_seq:012d}.json")


def list_snapshots(state_dir: str) -> List[Tuple[int, str]]:
    """``(wal_seq, path)`` of every snapshot file, oldest first."""
    found: List[Tuple[int, str]] = []
    try:
        names = os.listdir(state_dir)
    except FileNotFoundError:
        return []
    for name in names:
        match = _SNAPSHOT_RE.match(name)
        if match:
            found.append((int(match.group(1)),
                          os.path.join(state_dir, name)))
    return sorted(found)


def write_snapshot(state_dir: str, payload: Dict, wal_seq: int,
                   keep: int = 3) -> str:
    """Atomically persist one snapshot; prune to the newest ``keep``.

    The caller must have synced the WAL up to ``wal_seq`` first (the
    snapshot barrier): a snapshot must never be newer than the log
    that tails it.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    os.makedirs(state_dir, exist_ok=True)
    path = snapshot_path(state_dir, wal_seq)
    wrapper = {"version": SNAPSHOT_VERSION, "wal_seq": wal_seq,
               "checksum": _checksum(payload), "payload": payload}
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(wrapper, handle, separators=(",", ":"),
                      sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        # A full disk must not leave a half-written file behind.
        with contextlib.suppress(OSError):
            os.remove(tmp_path)
        raise
    _fsync_dir(state_dir)
    for _seq, old_path in list_snapshots(state_dir)[:-keep]:
        try:
            os.remove(old_path)
        except OSError:  # pragma: no cover - best-effort pruning
            pass
    return path


def _fsync_dir(state_dir: str) -> None:
    """Make the rename itself durable (best-effort on odd FSes)."""
    try:
        fd = os.open(state_dir, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def load_snapshot(path: str) -> Tuple[int, Dict]:
    """``(wal_seq, payload)`` of one verified snapshot file."""
    with open(path, "r", encoding="utf-8") as handle:
        wrapper = json.load(handle)
    if wrapper.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: snapshot version {wrapper.get('version')!r}, "
            f"this build reads {SNAPSHOT_VERSION}")
    payload = wrapper.get("payload")
    wal_seq = wrapper.get("wal_seq")
    if not isinstance(payload, dict) or not isinstance(wal_seq, int):
        raise SnapshotError(f"{path}: malformed snapshot wrapper")
    if _checksum(payload) != wrapper.get("checksum"):
        raise SnapshotError(f"{path}: checksum mismatch")
    return wal_seq, payload


def load_latest_snapshot(state_dir: str,
                         ) -> Optional[Tuple[int, Dict]]:
    """The newest *verified* snapshot, or None when none is usable.

    A snapshot that fails verification (torn write, corruption) is
    logged and skipped in favor of the next-older one — recovery then
    simply replays a longer WAL tail.
    """
    for wal_seq, path in reversed(list_snapshots(state_dir)):
        try:
            return load_snapshot(path)
        except (SnapshotError, OSError, json.JSONDecodeError) as exc:
            log.warning("skipping unusable snapshot %s: %s", path, exc)
    return None
