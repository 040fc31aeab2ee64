"""Structured JSON-lines event log for scheduler decisions and fates.

Every interesting state transition — job submit, task assignment
(with the decision that made it, when a tracer records one),
completion, lease expiry, requeue, file-delta —
is one schema-checked JSON object on one line, stamped with a wall
clock and a monotonically increasing sequence number.  The log is a
**rotating file sink** (``--event-log PATH``, a shard's WAL) that
:func:`iter_events` reads back and :mod:`repro.analysis.eventlog`
folds into per-task timelines, keeping nothing in memory; a log
without a path keeps every record for :meth:`EventLog.tail` instead.

Schemas are *minimum* field sets: emitters may attach extra fields
(the server adds ``lease_id``/``latency_us`` to ``assign`` records,
and ``metric``/``candidates``/``decision`` when it traces decisions;
the client-side load generator has none of them), but a record
missing a required field, or of an unknown type, is rejected at emit
and at read time — a corrupt log fails loudly, not in the plots.

The log doubles as the **write-ahead log** of a durable scheduler
shard (:mod:`repro.cluster`), by *group commit*: :meth:`EventLog.emit`
only buffers its line, and :meth:`EventLog.flush` is the commit — one
``write`` hands every buffered line to the OS, whose page cache
survives a ``kill -9``.  Callers commit wherever bytes are about to
leave the process (the front end's coalesced reply write, the thief's
peer calls), so a record is in the OS before any byte that could
reveal its effect.  A record with nothing sent after it can be lost
to a crash, and recovery then lands in a state the live service
passed through.  Only whole lines reach the file, and a log dropped
without ``close()`` writes nothing more — exactly what ``kill -9``
leaves.  :meth:`EventLog.sync` fsyncs at snapshot barriers, rotation
fsyncs the outgoing file, and ``seq_start`` lets a recovered shard
continue the sequence where the previous incarnation stopped.  The
reader distinguishes *truncation* from *corruption*: a final line the
crash cut short (no trailing newline, unparseable) is warned about and
skipped; a complete line of bad JSON anywhere still raises.
"""

from __future__ import annotations

import io
import json
import logging
import os
import time
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Dict, Iterator, KeysView, List, Optional, Set

log = logging.getLogger("repro.obs.events")

__all__ = ["EVENT_SCHEMAS", "EventLog", "EventSchemaError",
           "RotatingJsonlSink", "iter_events",
           "validate_event"]

#: event type -> required fields (beyond ``ts``/``seq``/``event``).
EVENT_SCHEMAS: Dict[str, Set[str]] = {
    "submit": {"job_id", "tasks"},
    "assign": {"task_id", "site", "worker"},
    "complete": {"task_id", "worker"},
    "lease-expire": {"task_id", "lease_id"},
    "requeue": {"task_id", "reason"},
    "delta": {"site", "added", "removed", "referenced"},
    "drain": set(),
    # The first record of a recovered shard incarnation: the snapshot
    # seq it resumed from (None: the whole log) and its engine RNG.
    "recovered": {"wal_seq", "rng"},
    # Written before decisions rode on their ``assign`` record; kept so
    # those logs still read (replay skips them).
    "decision": {"site", "metric", "chosen", "candidates"},
    # Shard-to-shard work stealing (repro.cluster).  Victim side:
    # export (durable before STEAL_GRANT), commit on STEAL_ACK, abort
    # on thief loss.  Thief side: tentative import, commit/abort after
    # the victim's answer, local completion of a stolen task, and the
    # forwarded-to-owner marker that prunes the completion outbox.
    "steal-export": {"export_id", "thief", "specs"},
    "steal-export-ack": {"export_id"},
    "steal-export-abort": {"export_id"},
    "steal-import": {"origin", "export_id", "specs"},
    "steal-import-commit": {"origin", "export_id"},
    "steal-import-abort": {"origin", "export_id"},
    "steal-task-done": {"task_id", "worker"},
    "steal-forwarded": {"task_ids"},
}


class EventSchemaError(ValueError):
    """A record of unknown type or missing a required field."""


def _require_fields(event, present: KeysView[str]) -> None:
    """Raise unless ``event`` is a known type and ``present`` covers
    the fields its schema requires."""
    schema = EVENT_SCHEMAS.get(event)
    if schema is None:
        raise EventSchemaError(f"unknown event type {event!r}")
    if not schema <= present:
        raise EventSchemaError(
            f"{event} record missing fields {sorted(schema - present)}")


def validate_event(record: Dict) -> Dict:
    """Check one record against :data:`EVENT_SCHEMAS`; returns it."""
    _require_fields(record.get("event"), record.keys())
    return record


_LINE = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
#: The line format, ``json.dumps(record, separators=(",", ":"),
#: sort_keys=True)``, with its C encoder built once (``dumps`` builds
#: one per call); records are never circular, so no marker dict.
_line_chunks = c_make_encoder(
    None, _LINE.default, encode_basestring_ascii, _LINE.indent,
    _LINE.key_separator, _LINE.item_separator, _LINE.sort_keys,
    _LINE.skipkeys, _LINE.allow_nan)

#: Buffered bytes past which a sink writes its lines out unasked, so a
#: log nobody commits (a client-side one) stays bounded in memory.
SPILL_BYTES = 1 << 20


class RotatingJsonlSink:
    """Append-only JSONL file with a line buffer and size rotation.

    :meth:`write` buffers a line; :meth:`flush` hands every buffered
    line to the OS in one ``write``.  So only whole lines reach the
    file, and a sink dropped without :meth:`close` writes nothing more.
    When the file would exceed ``max_bytes`` the existing backups
    shift up (``path.1`` → ``path.2`` …, oldest dropped) and the
    current file becomes ``path.1`` — the standard logrotate dance,
    dependency-free.  A line is never split across files.
    """

    def __init__(self, path: str, max_bytes: int = 16 << 20,
                 backups: int = 3):
        if max_bytes < 1 or backups < 0:
            raise ValueError("need max_bytes >= 1 and backups >= 0")
        self.path = path
        self.max_bytes = max_bytes
        self.backups = backups
        self._file: Optional[io.FileIO] = open(path, "ab", buffering=0)
        self._size = self._file.tell()  # on file + buffered
        self._lines: List[str] = []
        self._buffered = 0

    def write(self, line: str) -> None:
        if self._file is None:
            raise ValueError("sink is closed")
        size = len(line)
        if self._size and self._size + size > self.max_bytes:
            self._rotate()
        self._lines.append(line)
        self._size += size
        self._buffered += size
        if self._buffered > SPILL_BYTES:
            self._write_out()

    def _write_out(self) -> None:
        data = "".join(self._lines).encode("utf-8")
        self._lines.clear()
        self._buffered = 0
        while data:
            data = data[self._file.write(data):]

    def _rotate(self) -> None:
        # The outgoing file is about to become a read-only backup a
        # crash-recovery replay may depend on: make it durable first.
        self.sync()
        self._file.close()
        if self.backups == 0:
            os.remove(self.path)
        else:
            oldest = f"{self.path}.{self.backups}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for index in range(self.backups - 1, 0, -1):
                src = f"{self.path}.{index}"
                if os.path.exists(src):
                    os.replace(src, f"{self.path}.{index + 1}")
            os.replace(self.path, f"{self.path}.1")
        self._file = open(self.path, "ab", buffering=0)
        self._size = 0

    def flush(self) -> None:
        """Hand every buffered line to the OS in one ``write``."""
        if self._lines:
            self._write_out()

    def sync(self) -> None:
        """Flush and fsync: a durability barrier (snapshots use it)."""
        if self._file is not None:
            self.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None


class EventLog:
    """A rotating file sink of schema'd events, or an in-memory list.

    ``emit("assign", task_id=3, site=0, worker="w1", ...)`` validates
    and stamps ``ts`` (wall clock) and ``seq``; with a path it buffers
    one JSON line in the sink and :meth:`flush` commits what is
    buffered, without one it keeps the record for :meth:`tail`.

    WAL duty (``repro.cluster`` shards): ``seq_start`` continues the
    sequence of a previous incarnation after crash recovery, and the
    owner commits before every byte it sends, so a record is in the OS
    page cache — which survives the *process* dying, if not the
    machine — before the mutation it describes is acked.
    """

    def __init__(self, path: Optional[str] = None, clock=time.time,
                 max_bytes: int = 16 << 20, backups: int = 3,
                 seq_start: int = 0):
        self._clock = clock
        self._records: List[Dict] = []
        self._seq = seq_start
        self._seq_start = seq_start
        self._sink = (RotatingJsonlSink(path, max_bytes=max_bytes,
                                        backups=backups)
                      if path else None)
        self.path = path

    def emit(self, event: str, **fields) -> Dict:
        """Validate, stamp and buffer one record; never writes."""
        _require_fields(event, fields.keys())
        record = {"ts": round(float(self._clock()), 6),
                  "seq": self._seq, "event": event, **fields}
        self._seq += 1
        if self._sink is not None:
            self._sink.write("".join(_line_chunks(record, 0)) + "\n")
        elif self.path is None:
            self._records.append(record)
        return record

    @property
    def emitted(self) -> int:
        """Records emitted by *this* log."""
        return self._seq - self._seq_start

    @property
    def next_seq(self) -> int:
        """The sequence number the next emitted record will carry."""
        return self._seq

    def tail(self) -> List[Dict]:
        """Every record of a path-less log, oldest first; empty for a
        file-backed one (read its file with :func:`iter_events`)."""
        return list(self._records)

    def flush(self) -> None:
        """The commit: every record emitted so far goes to the OS."""
        if self._sink is not None:
            self._sink.flush()

    def sync(self) -> None:
        """Flush + fsync the sink (the snapshot durability barrier)."""
        if self._sink is not None:
            self._sink.sync()

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def iter_events(path: str) -> Iterator[Dict]:
    """Stream validated records from one JSONL file.

    A final line the writer's crash cut short — identified by the
    missing trailing newline (only the last line of a file can lack
    one) — is logged as a warning and skipped: replaying a WAL after
    ``kill -9`` must not die on the half-written record that the kill
    itself produced.  A *complete* (newline-terminated) line of bad
    JSON is corruption, not truncation, and still raises.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if not line.endswith("\n"):
                    log.warning(
                        "%s:%d: dropping truncated final line "
                        "(%d bytes): %s", path, line_number, len(line),
                        exc)
                    return
                raise EventSchemaError(
                    f"{path}:{line_number}: bad JSON: {exc}") from exc
            yield validate_event(record)

