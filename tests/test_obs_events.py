"""Event log: schemas, ring buffer, rotation, round-trip, timelines."""

import gc
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.eventlog import load_timelines, task_timelines
from repro.obs import events as events_module
from repro.obs.events import (EVENT_SCHEMAS, EventLog, EventSchemaError,
                              RotatingJsonlSink, iter_events,
                              validate_event)


def fake_clock(start=1000.0, step=1.0):
    state = [start - step]

    def tick():
        state[0] += step
        return state[0]

    return tick


# -- schema validation -------------------------------------------------------

def test_every_schema_has_the_documented_minimum_fields():
    assert EVENT_SCHEMAS["assign"] == {"task_id", "site", "worker"}
    assert EVENT_SCHEMAS["lease-expire"] == {"task_id", "lease_id"}
    assert EVENT_SCHEMAS["requeue"] == {"task_id", "reason"}


def test_validate_rejects_unknown_type_and_missing_fields():
    with pytest.raises(EventSchemaError):
        validate_event({"event": "nonsense"})
    with pytest.raises(EventSchemaError):
        validate_event({"event": "assign", "task_id": 1, "site": 0})
    record = {"event": "assign", "task_id": 1, "site": 0, "worker": "w",
              "extra": "fields are fine"}
    assert validate_event(record) is record


def test_emit_stamps_ts_and_seq_and_validates():
    log = EventLog(clock=fake_clock())
    first = log.emit("submit", job_id=0, tasks=3)
    second = log.emit("assign", task_id=0, site=1, worker="w0")
    assert (first["ts"], first["seq"]) == (1000.0, 0)
    assert (second["ts"], second["seq"]) == (1001.0, 1)
    with pytest.raises(EventSchemaError):
        log.emit("assign", task_id=0)  # rejected before buffering
    assert log.emitted == 2


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_emitted_lines_are_the_sorted_compact_dump_of_the_record(
        tmp_path_factory, data):
    """The line on disk is byte for byte ``json.dumps`` of the record
    ``emit`` returned, whatever the field values; a record missing a
    required field raises what ``validate_event`` raises for it and
    leaves no trace."""
    event = data.draw(st.sampled_from(sorted(EVENT_SCHEMAS)))
    names = st.sampled_from(sorted(EVENT_SCHEMAS[event]) + ["extra"])
    extra = data.draw(st.dictionaries(names, JSON_VALUES, max_size=3))
    fields = {**extra, **{name: data.draw(JSON_VALUES)
                          for name in sorted(EVENT_SCHEMAS[event])}}
    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    with EventLog(path=str(path), clock=fake_clock()) as log:
        record = log.emit(event, **fields)
        for dropped in sorted(EVENT_SCHEMAS[event]):
            partial = {name: value for name, value in fields.items()
                       if name != dropped}
            with pytest.raises(EventSchemaError) as raised:
                log.emit(event, **partial)
            with pytest.raises(EventSchemaError) as expected:
                validate_event({"event": event, **partial})
            assert str(raised.value) == str(expected.value)
        assert log.emitted == 1
    assert record == {"ts": 1000.0, "seq": 0, "event": event, **fields}
    assert path.read_text(encoding="utf-8") == json.dumps(
        record, separators=(",", ":"), sort_keys=True) + "\n"


def test_emit_rejects_an_unknown_type_like_validate_does():
    log = EventLog(clock=fake_clock())
    with pytest.raises(EventSchemaError) as raised:
        log.emit("nonsense", task_id=1)
    with pytest.raises(EventSchemaError) as expected:
        validate_event({"event": "nonsense", "task_id": 1})
    assert str(raised.value) == str(expected.value)
    assert log.emitted == 0


def test_a_path_less_log_keeps_every_record():
    log = EventLog(clock=fake_clock())
    for task_id in range(3000):  # past the 2 048 a ring used to hold
        log.emit("requeue", task_id=task_id, reason="test")
    assert log.emitted == 3000
    assert [record["task_id"] for record in log.tail()] \
        == list(range(3000))


def test_a_file_backed_log_keeps_no_record_in_memory(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with EventLog(path=path, clock=fake_clock()) as log:
        for task_id in range(3000):
            log.emit("requeue", task_id=task_id, reason="test")
        assert log.tail() == []
    assert [record["task_id"] for record in iter_events(path)] \
        == list(range(3000))


# -- file sink + round-trip --------------------------------------------------

def test_jsonl_round_trip_through_the_file_sink(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with EventLog(path=path, clock=fake_clock()) as log:
        log.emit("submit", job_id=0, tasks=2, task_ids=[0, 1])
        log.emit("assign", task_id=0, site=2, worker="w1", lease_id=9)
        log.emit("complete", task_id=0, worker="w1")
    records = list(iter_events(path))
    assert [record["event"] for record in records] == \
        ["submit", "assign", "complete"]
    assert records[1]["lease_id"] == 9  # extra fields survive
    # Compact one-object-per-line encoding.
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert all(json.loads(line) for line in lines)


def test_read_rejects_corrupt_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"event": "assign", "task_id": 1}\n')
    with pytest.raises(EventSchemaError):
        list(iter_events(str(path)))
    path.write_text("not json\n")
    with pytest.raises(EventSchemaError):
        list(iter_events(str(path)))


def test_rotating_sink_shifts_backups(tmp_path):
    path = str(tmp_path / "log.jsonl")
    sink = RotatingJsonlSink(path, max_bytes=40, backups=2)
    for index in range(12):
        sink.write(f'{{"line": {index}}}\n')
    sink.close()
    assert (tmp_path / "log.jsonl").exists()
    assert (tmp_path / "log.jsonl.1").exists()
    assert (tmp_path / "log.jsonl.2").exists()
    assert not (tmp_path / "log.jsonl.3").exists()
    # No line is ever split across files, and .1 is newer than .2.
    newest = (tmp_path / "log.jsonl.1").read_text().splitlines()
    oldest = (tmp_path / "log.jsonl.2").read_text().splitlines()
    assert all(json.loads(line) for line in newest + oldest)
    assert (json.loads(oldest[-1])["line"]
            < json.loads(newest[0])["line"])


# -- WAL duty: crash tolerance, barriers, sequence continuity ----------------

def test_reader_tolerates_a_crash_truncated_final_line(tmp_path):
    """A ``kill -9`` can cut the last line short.  That exact shape —
    final line, no trailing newline, unparseable — is truncation and
    is skipped with a warning; everything before it still reads."""
    path = tmp_path / "wal.jsonl"
    with EventLog(path=str(path), clock=fake_clock()) as log:
        log.emit("submit", job_id=0, tasks=1, task_ids=[0])
        log.emit("assign", task_id=0, site=0, worker="w0")
    whole = path.read_text()
    path.write_text(whole[:-20])  # the crash ate the line's tail
    records = list(iter_events(str(path)))
    assert [record["event"] for record in records] == ["submit"]


def test_reader_still_rejects_newline_terminated_corruption(tmp_path):
    """A *complete* line of bad JSON is corruption, not truncation —
    tolerating it would silently drop acknowledged WAL records."""
    path = tmp_path / "wal.jsonl"
    with EventLog(path=str(path), clock=fake_clock()) as log:
        log.emit("submit", job_id=0, tasks=1, task_ids=[0])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("not json\n")  # newline-terminated: corrupt
    with pytest.raises(EventSchemaError):
        list(iter_events(str(path)))


def test_truncated_mid_file_line_is_impossible_to_miss(tmp_path):
    """Only the final line of a file can lack a newline; an
    unparseable *interior* line always raises."""
    path = tmp_path / "wal.jsonl"
    path.write_text('{"bro\n{"event": "requeue", "task_id": 1, '
                    '"reason": "r", "ts": 1.0, "seq": 1}\n')
    with pytest.raises(EventSchemaError):
        list(iter_events(str(path)))


def test_flush_commits_what_emit_only_buffers(tmp_path):
    """Group commit: ``emit`` only buffers, ``flush`` hands every
    buffered line to the OS in one write, and a log dropped without
    ``close()`` — what ``kill -9`` leaves — writes nothing more."""
    path = tmp_path / "wal.jsonl"
    log = EventLog(path=str(path), clock=fake_clock())
    log.emit("submit", job_id=0, tasks=1, task_ids=[0])
    log.emit("assign", task_id=0, site=0, worker="w0")
    assert path.read_text() == ""  # nothing has reached the OS
    log.flush()
    assert [r["event"] for r in iter_events(str(path))] == \
        ["submit", "assign"]
    log.emit("complete", task_id=0, worker="w0")  # never committed
    del log
    gc.collect()
    assert [r["event"] for r in iter_events(str(path))] == \
        ["submit", "assign"]


def test_a_sink_nobody_commits_spills_whole_lines(tmp_path, monkeypatch):
    """A log that is never committed (a client-side one) still stays
    bounded: past ``SPILL_BYTES`` the sink writes its lines out unasked,
    and only whole lines."""
    monkeypatch.setattr(events_module, "SPILL_BYTES", 50)
    path = tmp_path / "client.jsonl"
    sink = RotatingJsonlSink(str(path))
    for index in range(7):
        sink.write(f'{{"line": {index}}}\n')  # 12 bytes each
    written = path.read_text()  # the fifth line crossed 50 bytes
    assert [json.loads(line)["line"] for line in written.splitlines()] \
        == [0, 1, 2, 3, 4]
    assert written.endswith("\n")
    sink.close()
    assert len(path.read_text().splitlines()) == 7


def test_sync_is_a_durability_barrier_and_survives_no_sink():
    log = EventLog()  # path-less: sync must be a harmless no-op
    log.emit("requeue", task_id=0, reason="test")
    log.sync()
    log.flush()
    log.close()


def test_seq_start_continues_a_previous_incarnations_sequence(tmp_path):
    path = tmp_path / "wal.jsonl"
    with EventLog(path=str(path), clock=fake_clock()) as log:
        log.emit("submit", job_id=0, tasks=1, task_ids=[0])
        log.emit("assign", task_id=0, site=0, worker="w0")
        next_seq = log.next_seq
    assert next_seq == 2
    with EventLog(path=str(path), clock=fake_clock(),
                  seq_start=next_seq) as log:
        assert log.next_seq == 2
        record = log.emit("complete", task_id=0, worker="w0")
        assert record["seq"] == 2
        assert log.emitted == 1  # counts this incarnation only
    seqs = [record["seq"] for record in iter_events(str(path))]
    assert seqs == [0, 1, 2]  # one monotone history across restarts


# -- timeline reconstruction -------------------------------------------------

def test_timelines_reconstruct_assign_complete_pairs():
    log = EventLog(clock=fake_clock())
    log.emit("submit", job_id=0, tasks=2, task_ids=[0, 1])
    log.emit("assign", task_id=0, site=1, worker="w0")
    log.emit("assign", task_id=1, site=2, worker="w1")
    log.emit("complete", task_id=1, worker="w1")
    log.emit("complete", task_id=0, worker="w0")
    timelines = task_timelines(log.tail())
    assert set(timelines) == {0, 1}
    zero = timelines[0]
    assert zero.completed and zero.retries == 0
    assert zero.job_id == 0
    assert zero.submitted_at == 1000.0
    assert zero.queue_wait == pytest.approx(1.0)
    assert zero.turnaround == pytest.approx(4.0)
    assert zero.attempts[0].worker == "w0"
    assert zero.attempts[0].site == 1
    assert zero.attempts[0].duration == pytest.approx(3.0)


def test_timelines_track_reassignment_after_lease_expiry():
    log = EventLog(clock=fake_clock())
    log.emit("submit", job_id=0, tasks=1, task_ids=[7])
    log.emit("assign", task_id=7, site=0, worker="w0", lease_id=1)
    log.emit("lease-expire", task_id=7, lease_id=1, worker="w0")
    log.emit("requeue", task_id=7, reason="lease-expired")
    log.emit("assign", task_id=7, site=1, worker="w1", lease_id=2)
    log.emit("complete", task_id=7, worker="w1")
    line = task_timelines(log.tail())[7]
    assert line.retries == 1
    assert [attempt.outcome for attempt in line.attempts] == \
        ["lease-expired", "completed"]
    assert line.attempts[0].worker == "w0"
    assert line.attempts[1].worker == "w1"
    assert line.completed_at == 1005.0


def test_timelines_close_the_attempt_whose_lease_the_record_names():
    """A straggler and its replica are open together: the record's
    ``lease_id`` says which one ended, and a replica is not a retry."""
    log = EventLog(clock=fake_clock())
    log.emit("assign", task_id=5, site=0, worker="slow", lease_id=1)
    log.emit("assign", task_id=5, site=1, worker="fast", lease_id=2,
             replica=True)
    log.emit("complete", task_id=5, worker="slow", lease_id=1)
    line = task_timelines(log.tail())[5]
    assert [(a.worker, a.outcome) for a in line.attempts] == [
        ("slow", "completed"), ("fast", "superseded")]
    assert line.retries == 0
    assert line.completed_at == 1002.0
    assert line.attempts[1].ended_at == 1002.0
    # The primary's lease lapses under a live replica, which finishes.
    log = EventLog(clock=fake_clock())
    log.emit("assign", task_id=6, site=0, worker="slow", lease_id=3)
    log.emit("assign", task_id=6, site=1, worker="fast", lease_id=4,
             replica=True)
    log.emit("lease-expire", task_id=6, lease_id=3, worker="slow")
    log.emit("complete", task_id=6, worker="fast", lease_id=4)
    line = task_timelines(log.tail())[6]
    assert [(a.worker, a.outcome) for a in line.attempts] == [
        ("slow", "lease-expired"), ("fast", "completed")]
    assert line.retries == 0


def test_timelines_handle_disconnect_requeue_and_open_attempts():
    log = EventLog(clock=fake_clock())
    log.emit("assign", task_id=3, site=0, worker="w0")
    log.emit("requeue", task_id=3, reason="disconnect", worker="w0")
    log.emit("assign", task_id=3, site=0, worker="w1")
    line = task_timelines(log.tail())[3]
    assert line.attempts[0].outcome == "disconnect"
    assert line.attempts[1].outcome is None  # log ended mid-flight
    assert line.attempts[1].duration is None
    assert not line.completed
    assert line.turnaround is None  # no submit record for this task


def test_load_timelines_reads_a_file(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with EventLog(path=path, clock=fake_clock()) as log:
        log.emit("submit", job_id=4, tasks=1, task_ids=[0])
        log.emit("assign", task_id=0, site=0, worker="w0")
        log.emit("complete", task_id=0, worker="w0")
    timelines = load_timelines(path)
    assert timelines[0].completed
    assert timelines[0].job_id == 4
