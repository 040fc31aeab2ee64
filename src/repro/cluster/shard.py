"""One durable scheduler shard: WAL + snapshots + crash recovery.

A shard is a plain :class:`~repro.serve.service.SchedulerService`
constructed with the cluster id strides, whose event log lives in the
shard's *state directory*, is committed before every ack, and so
doubles as a write-ahead log.  :func:`open_shard` is the whole lifecycle::

    durability = open_shard("state/shard-0", metric="combined", n=2,
                            shard_index=0, shard_count=2)
    # durability.service is recovered: snapshot + WAL tail replayed
    # durability.report says what recovery did
    task = loop.create_task(durability.snapshot_loop())

Recovery is **snapshot + tail-replay, never a cold start**: the
newest verified snapshot restores the bulk of the state
(:meth:`SchedulerService.import_state`), then every WAL record with
``seq >= snapshot.wal_seq`` is folded in through
:meth:`SchedulerService.replay_record`.  The new incarnation's event
log continues the WAL sequence (``seq_start``), so the log stays one
monotone history across restarts and the *next* recovery can do the
same dance.  A restarted incarnation's first record is ``recovered``
(:meth:`SchedulerService.log_recovery`), which lets
:meth:`SchedulerService.redecide` go on across the restart.

Durability contract: a WAL record is in the OS before any byte that
could reveal its effect leaves the process — the owner of the log
commits it (:meth:`~repro.obs.events.EventLog.flush`, one ``write``
per burst) right before the front end writes a reply and before the
thief calls a peer — which survives ``kill -9``.  A record with
nothing sent after it can be lost, and recovery then lands in a state
the live service passed through.  Answers of the obs HTTP endpoint are
observations, not acks: they may show state the WAL does not hold
yet.  Snapshot writes fsync both the WAL (the barrier) and the
snapshot file, which survives machine crashes up to the last barrier.
"""

from __future__ import annotations

import asyncio
import logging
import os
from typing import Dict, List, Optional

from ..obs.events import EventLog, iter_events
from ..serve.server import commit_or_exit
from ..serve.service import SchedulerService
from .snapshot import (list_snapshots, load_latest_snapshot,
                       write_snapshot)

__all__ = ["ShardDurability", "WalGapError", "open_shard",
           "recover_service", "wal_files"]

log = logging.getLogger("repro.cluster.shard")

#: WAL file name inside a shard's state directory.
WAL_NAME = "wal.jsonl"
#: WAL rotation: generous, so the replayable tail always covers the
#: gap back to the newest snapshot by a wide margin.
WAL_MAX_BYTES = 256 << 20
WAL_BACKUPS = 8


def wal_path(state_dir: str) -> str:
    return os.path.join(state_dir, WAL_NAME)


def wal_files(state_dir: str) -> List[str]:
    """The WAL's files oldest-first (``.N`` … ``.1``, then current)."""
    base = wal_path(state_dir)
    paths = [f"{base}.{index}"
             for index in range(WAL_BACKUPS, 0, -1)]
    paths.append(base)
    return [path for path in paths if os.path.exists(path)]


def trim_torn_tail(path: str) -> int:
    """Cut the WAL file at ``path`` back to its last newline-terminated
    record; returns the bytes dropped.

    A kill during a commit's ``write`` can leave a final line without
    its newline.  :func:`~repro.obs.events.iter_events` skips such a
    line, but a log appended after it would turn it into a complete
    line of bad JSON that no later recovery could read.  Trimmed
    before recovery reads the file, so what is replayed is exactly
    what stays in the log, and the new incarnation's sequence numbers
    continue it without a gap.
    """
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return 0
    with handle:
        end = keep = handle.seek(0, os.SEEK_END)
        while keep > 0:
            start = max(0, keep - (64 << 10))
            handle.seek(start)
            cut = handle.read(keep - start).rfind(b"\n")
            if cut >= 0:
                keep = start + cut + 1
                break
            keep = start
        if keep < end:
            handle.truncate(keep)
            os.fsync(handle.fileno())
            log.warning("%s: dropped a torn final line (%d bytes)",
                        path, end - keep)
    return end - keep


class WalGapError(RuntimeError):
    """The WAL skips a sequence number recovery would have to fold."""


def recover_service(service: SchedulerService,
                    state_dir: str) -> Dict:
    """Snapshot + tail-replay recovery into a fresh ``service``.

    Returns the recovery report: ``snapshot_seq`` (None = no usable
    snapshot, full-log replay), ``replayed`` (records folded in),
    ``skipped`` (records already covered by the snapshot) and
    ``next_seq`` (where the new incarnation's WAL continues).

    The log must be one contiguous history: each record's ``seq`` is
    the previous one's + 1 across the rotated files, and the first
    record at or past the snapshot's ``wal_seq`` is that ``wal_seq``.
    A gap means a committed record was lost, and folding what follows
    it would land in a state the live service never held, so
    :class:`WalGapError` names the file and the missing seq instead.
    """
    snapshot_seq: Optional[int] = None
    start_seq = 0
    latest = load_latest_snapshot(state_dir)
    if latest is not None:
        snapshot_seq, payload = latest
        service.import_state(payload)
        start_seq = snapshot_seq
    replayed = 0
    skipped = 0
    last: Optional[int] = None
    for path in wal_files(state_dir):
        for record in iter_events(path):
            seq = record["seq"]
            # The log may begin anywhere up to the snapshot; from its
            # first record on, every seq is the last one's + 1.
            expected = start_seq if last is None else last + 1
            if seq != expected and (last is not None or seq > expected):
                raise WalGapError(
                    f"{path}: WAL record seq {expected} is missing (the "
                    f"next record is seq {seq}); refusing to replay "
                    f"past the gap")
            last = seq
            if seq < start_seq:
                skipped += 1
                continue
            if service.replay_record(record):
                replayed += 1
    # Work stealing: an export the thief never durably acked cannot
    # have been activated remotely (activation requires our acked
    # answer), so the crash reclaims it locally — exactly-once either
    # way.  Must run after the full tail fold, when completions and
    # acks that *did* land have been applied.
    steal_requeued = service.requeue_unacked_exports()
    next_seq = start_seq if last is None else max(start_seq, last + 1)
    report = {"snapshot_seq": snapshot_seq, "replayed": replayed,
              "skipped": skipped, "next_seq": next_seq,
              "steal_requeued": steal_requeued}
    log.info("shard recovery: snapshot_seq=%s, replayed=%d wal "
             "record(s), requeued %d unacked export(s), wal continues "
             "at seq %d", snapshot_seq, replayed, steal_requeued,
             next_seq)
    return report


class ShardDurability:
    """Snapshot cadence + WAL ownership for one recovered service."""

    def __init__(self, service: SchedulerService, events: EventLog,
                 state_dir: str, report: Dict,
                 shard_index: int = 0, shard_count: int = 1,
                 snapshot_interval: float = 5.0):
        if snapshot_interval <= 0:
            raise ValueError(f"snapshot_interval must be > 0, "
                             f"got {snapshot_interval}")
        self.service = service
        self.events = events
        self.state_dir = state_dir
        self.report = report
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.snapshot_interval = snapshot_interval
        self.snapshots_written = 0
        self._last_snapshot_seq = report["next_seq"] \
            if report["snapshot_seq"] is not None else None
        # Per-shard identity on the metrics endpoint: scrapes from a
        # fleet of shards stay distinguishable after aggregation.
        family = service.stats.registry.gauge(
            "repro_shard", "Shard identity (value is always 1).",
            labelnames=("index", "count"))
        family.labels(index=str(shard_index),
                      count=str(shard_count)).set(1)

    def maybe_snapshot(self, force: bool = False) -> Optional[str]:
        """Write a snapshot unless nothing changed since the last one.

        The barrier order is fixed: fsync the WAL first, then write
        the snapshot naming the synced sequence — a snapshot must
        never claim coverage the log cannot back.
        """
        wal_seq = self._uncovered(force)
        if wal_seq is None:
            return None
        self.events.sync()
        return self._write(wal_seq)

    def _uncovered(self, force: bool = False) -> Optional[int]:
        """The sequence a snapshot taken now covers, or None when
        nothing changed since the last one."""
        wal_seq = self.events.next_seq
        if not force and wal_seq == self._last_snapshot_seq:
            return None
        return wal_seq

    def _write(self, wal_seq: int) -> str:
        path = write_snapshot(self.state_dir,
                              self.service.export_state(), wal_seq)
        self._last_snapshot_seq = wal_seq
        self.snapshots_written += 1
        log.debug("snapshot written: %s", path)
        return path

    async def snapshot_loop(self) -> None:
        """Periodic :meth:`maybe_snapshot`; run as an asyncio task.

        A snapshot that fails to write (a full disk) is logged and
        tried again next tick: the WAL still holds everything it would
        have.  A failed WAL sync ends the process with
        :data:`~repro.serve.server.EXIT_COMMIT_FAILED`, as a failed
        commit does: the log is the truth, and a failed ``fsync`` is
        never retried — after one, a later call may report the lost
        pages clean.
        """
        while True:
            await asyncio.sleep(self.snapshot_interval)
            wal_seq = self._uncovered()
            if wal_seq is None:
                continue
            commit_or_exit(self.events.sync)
            try:
                self._write(wal_seq)
            except OSError as exc:
                log.warning("snapshot at WAL seq %d failed, retrying "
                            "next tick: %s", wal_seq, exc)

    def describe(self) -> Dict:
        """Shard block for ``/stats.json`` (identity + recovery)."""
        return {"index": self.shard_index, "count": self.shard_count,
                "state_dir": self.state_dir,
                "recovery": self.report,
                "snapshots_written": self.snapshots_written,
                "snapshots_on_disk": len(
                    list_snapshots(self.state_dir)),
                "wal_next_seq": self.events.next_seq}

    def close(self) -> None:
        """Final snapshot + WAL close (clean shutdown path)."""
        self.maybe_snapshot()
        self.events.close()


def open_shard(state_dir: str, metric: str = "combined", n: int = 2,
               shard_index: int = 0, shard_count: int = 1,
               snapshot_interval: float = 5.0,
               name: Optional[str] = None,
               **service_options) -> ShardDurability:
    """Build + recover one durable shard from its state directory.

    ``service_options`` go to :class:`SchedulerService` unchanged —
    their names and defaults live there, once; the id strides are the
    shard's to decide.

    The service is constructed silent (no event log), recovered from
    the newest snapshot plus the WAL tail, and only then handed the
    live WAL — replay must never re-emit the records it is folding.
    A torn final line of the current WAL file goes first
    (:func:`trim_torn_tail`): the new log appends to that file.
    """
    os.makedirs(state_dir, exist_ok=True)
    trim_torn_tail(wal_path(state_dir))
    service = SchedulerService(
        metric=metric, n=n, name=name or f"shard-{shard_index}",
        id_start=shard_index, id_stride=shard_count, **service_options)
    report = recover_service(service, state_dir)
    events = EventLog(path=wal_path(state_dir),
                      seq_start=report["next_seq"],
                      max_bytes=WAL_MAX_BYTES, backups=WAL_BACKUPS)
    service.events = events
    if report["next_seq"]:  # a restart: mark where this log resumes
        service.log_recovery(report["snapshot_seq"])
    return ShardDurability(service, events, state_dir, report,
                           shard_index=shard_index,
                           shard_count=shard_count,
                           snapshot_interval=snapshot_interval)
