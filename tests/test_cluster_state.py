"""Durable shard state: snapshots, WAL replay, crash recovery.

Covers the ``repro.cluster`` durability layer below the wire: the
versioned+checksummed snapshot files, ``export_state`` /
``import_state`` round-trips, WAL tail-replay through
``replay_record``, and the full ``open_shard`` recovery dance
(snapshot + tail, never a cold start) including the exactly-once
guarantees it must preserve.
"""

import asyncio
import errno
import json
import os

import pytest

from repro.cluster.shard import (WalGapError, open_shard, recover_service,
                                 wal_files,
                                 wal_path)
from repro.cluster.snapshot import (SnapshotError, list_snapshots,
                                    load_latest_snapshot, load_snapshot,
                                    snapshot_path, write_snapshot)
from repro.obs.events import EventLog, iter_events
from repro.obs.trace import DecisionTracer
from repro.serve.service import SchedulerService


class FakeClock:
    """Manually-advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def pull(service, worker="w0", site=0, job_id=None):
    box = []
    service.request_task(worker, site, box.append, job_id=job_id)
    return box[0] if box else "parked"


def submit(service, specs, job_id=None):
    return service.submit_job(
        [{"files": files, "flops": flops} for files, flops in specs],
        job_id=job_id)


SPECS = [([1, 2, 3], 1.0), ([3, 4], 2.0), ([5], 0.5), ([1, 5, 6], 3.0)]


# -- snapshot files ----------------------------------------------------------

def test_snapshot_round_trip_and_naming(tmp_path):
    state_dir = str(tmp_path)
    payload = {"version": 1, "tasks": [[0, [1, 2], 1.0]],
               "nested": {"rng": [3, [1, 2, 3], None]}}
    path = write_snapshot(state_dir, payload, wal_seq=42)
    assert path == snapshot_path(state_dir, 42)
    assert os.path.basename(path) == "snapshot-000000000042.json"
    assert load_snapshot(path) == (42, payload)
    assert load_latest_snapshot(state_dir) == (42, payload)


def test_snapshots_prune_to_keep_newest(tmp_path):
    state_dir = str(tmp_path)
    for seq in range(5):
        write_snapshot(state_dir, {"seq": seq}, wal_seq=seq, keep=3)
    assert [seq for seq, _path in list_snapshots(state_dir)] == [2, 3, 4]
    assert load_latest_snapshot(state_dir) == (4, {"seq": 4})


def test_corrupt_snapshot_falls_back_to_older(tmp_path):
    state_dir = str(tmp_path)
    write_snapshot(state_dir, {"good": "old"}, wal_seq=10)
    newest = write_snapshot(state_dir, {"good": "new"}, wal_seq=20)
    # Bit-rot the newest payload without touching its checksum.
    wrapper = json.loads(open(newest, encoding="utf-8").read())
    wrapper["payload"]["good"] = "tampered"
    with open(newest, "w", encoding="utf-8") as handle:
        json.dump(wrapper, handle)
    with pytest.raises(SnapshotError):
        load_snapshot(newest)
    # The loader skips the bad one: replay gets longer, never wrong.
    assert load_latest_snapshot(state_dir) == (10, {"good": "old"})


def test_torn_and_wrong_version_snapshots_are_unusable(tmp_path):
    state_dir = str(tmp_path)
    path = write_snapshot(state_dir, {"a": 1}, wal_seq=7)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"version": 1, "wal_seq": 7, "chec')  # torn write
    assert load_latest_snapshot(state_dir) is None
    wrapper = {"version": 99, "wal_seq": 7, "checksum": "x",
               "payload": {}}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(wrapper, handle)
    with pytest.raises(SnapshotError):
        load_snapshot(path)
    assert load_latest_snapshot(state_dir) is None


def test_write_snapshot_rejects_bad_keep(tmp_path):
    with pytest.raises(ValueError):
        write_snapshot(str(tmp_path), {}, wal_seq=0, keep=0)


def full_disk(monkeypatch):
    """Make every ``os.fsync`` fail as a full disk does."""
    def fsync(_fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", fsync)


def test_failed_snapshot_write_leaves_no_debris(tmp_path, monkeypatch):
    state_dir = str(tmp_path)
    kept = write_snapshot(state_dir, {"good": "old"}, wal_seq=3)
    full_disk(monkeypatch)
    with pytest.raises(OSError) as failure:
        write_snapshot(state_dir, {"good": "new"}, wal_seq=7)
    assert failure.value.errno == errno.ENOSPC
    assert sorted(os.listdir(state_dir)) == [os.path.basename(kept)]
    assert load_latest_snapshot(state_dir) == (3, {"good": "old"})


def test_snapshot_loop_survives_a_failed_write(tmp_path, monkeypatch,
                                                caplog):
    """A full disk costs one snapshot, not the loop: the next tick
    writes the snapshot the failed one would have."""
    shard = open_shard(str(tmp_path), clock=FakeClock(),
                       snapshot_interval=0.01)
    shard.events.sync()  # the WAL file exists before the disk fills
    submit(shard.service, SPECS[:1])
    real_fsync = os.fsync
    calls = []

    def fsync(fd):
        calls.append(fd)
        if len(calls) == 2:  # the first snapshot file, after the WAL
            raise OSError(errno.ENOSPC, "No space left on device")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)

    async def run_until_written():
        loop_task = asyncio.ensure_future(shard.snapshot_loop())
        try:
            while shard.snapshots_written == 0:
                assert not loop_task.done()
                await asyncio.sleep(0.01)
        finally:
            loop_task.cancel()

    with caplog.at_level("WARNING", logger="repro.cluster.shard"):
        asyncio.run(asyncio.wait_for(run_until_written(), 10.0))
    assert any("retrying next tick" in record.getMessage()
               for record in caplog.records)
    assert not [name for name in os.listdir(str(tmp_path))
                if name.endswith(".tmp")]
    assert len(list_snapshots(str(tmp_path))) == 1
    shard.close()


def test_snapshot_loop_stops_on_a_failed_wal_sync(tmp_path, monkeypatch):
    """The WAL is the truth: a sync that fails ends the loop."""
    shard = open_shard(str(tmp_path), clock=FakeClock(),
                       snapshot_interval=0.01)
    submit(shard.service, SPECS[:1])
    full_disk(monkeypatch)
    with pytest.raises(OSError):
        asyncio.run(asyncio.wait_for(shard.snapshot_loop(), 10.0))
    assert shard.snapshots_written == 0


# -- export / import round-trip ----------------------------------------------

def make_pair(**kwargs):
    kwargs.setdefault("metric", "combined")
    kwargs.setdefault("n", 2)
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("clock", FakeClock())
    return SchedulerService(**kwargs)


def test_export_import_round_trip_is_bit_identical(tmp_path):
    source = make_pair()
    submit(source, SPECS)
    first = pull(source, worker="w0", site=0)
    pull(source, worker="w1", site=1)  # left in-flight
    source.task_done("w0", first.task.task_id, first.lease_id)
    source.file_delta(0, added=[1, 2], removed=[], referenced=[3])
    exported = source.export_state()
    # JSON round-trip: state must survive the snapshot encoding.
    exported = json.loads(json.dumps(exported))

    restored = make_pair()
    restored.import_state(exported)
    assert restored.export_state() == source.export_state()
    # Same RNG stream, same heaps: the next decision matches exactly.
    source_next = pull(source, worker="w2", site=0)
    restored_next = pull(restored, worker="w2", site=0)
    assert restored_next.task.task_id == source_next.task.task_id
    assert restored_next.lease_id == source_next.lease_id
    assert (restored.engine.rng.getstate()
            == source.engine.rng.getstate())


def test_import_refuses_mismatched_identity(tmp_path):
    source = make_pair()
    submit(source, SPECS[:1])
    state = source.export_state()
    from repro.serve.service import ServiceError
    with pytest.raises(ServiceError):
        make_pair(metric="rest").import_state(dict(state))
    with pytest.raises(ServiceError):
        make_pair(id_start=1, id_stride=2).import_state(dict(state))
    used = make_pair()
    submit(used, SPECS[:1])
    with pytest.raises(ServiceError):
        used.import_state(state)


def test_import_rearms_leases_with_fresh_ttl():
    clock = FakeClock()
    source = make_pair(clock=clock, lease_ttl=10.0)
    submit(source, SPECS)
    assignment = pull(source, worker="w0", site=0)
    clock.advance(9.0)  # one second left on the source lease

    restore_clock = FakeClock()
    restored = make_pair(clock=restore_clock, lease_ttl=10.0)
    restored.import_state(source.export_state())
    restore_clock.advance(9.0)
    assert restored.expire_leases() == 0  # fresh TTL, not a stale one
    result = restored.task_done("w0", assignment.task.task_id,
                                assignment.lease_id)
    assert result.accepted  # original lease id still wins


# -- WAL replay --------------------------------------------------------------

def run_wal_workload(state_dir, clock):
    """A small life: submit, assigns, one completion, one expiry."""
    events = EventLog(path=wal_path(state_dir))
    service = SchedulerService(metric="combined", n=2, seed=11,
                               clock=clock, lease_ttl=5.0,
                               events=events)
    submit(service, SPECS)
    first = pull(service, worker="w0", site=0)
    service.task_done("w0", first.task.task_id, first.lease_id)
    second = pull(service, worker="w1", site=1)
    clock.advance(6.0)
    assert service.expire_leases() == 1  # w1's lease lapses, requeues
    third = pull(service, worker="w2", site=0)
    service.file_delta(1, added=[3, 4], removed=[], referenced=[5])
    return service, events, {"expired": second, "held": third}


def functional_state(service):
    """Export minus the decision-stream fields.

    Replay folds recorded *outcomes* without re-running ``choose``, so
    the RNG stream and decision counters legitimately differ from the
    live service that made those decisions; everything else must not.
    """
    state = service.export_state()
    for key in ("rng", "decisions", "tasks_scored"):
        state.pop(key)
    return state


def test_wal_replay_rebuilds_the_functional_state(tmp_path):
    state_dir = str(tmp_path)
    service, events, _held = run_wal_workload(state_dir, FakeClock())
    events.close()

    replayed = SchedulerService(metric="combined", n=2, seed=11,
                                clock=FakeClock(), lease_ttl=5.0)
    applied = sum(1 for record in iter_events(wal_path(state_dir))
                  if replayed.replay_record(record))
    assert applied > 0
    assert functional_state(replayed) == functional_state(service)


def built_refsums(service):
    index = service.engine._index
    return {site for site in service.engine.site_ids
            if index.has_refsums(site)}


def test_recovery_builds_no_refsums_until_a_decision_asks(tmp_path):
    """The snapshot carries residency and reference counts, the WAL
    the deltas: restoring or replaying them decides nothing, so no
    site builds its refsums — the next pull at a site does, and then
    reads what the live service reads."""
    source, events, _held = run_wal_workload(str(tmp_path), FakeClock())
    events.close()
    assert built_refsums(source) == {0, 1}      # both sites decided

    restored = make_pair(lease_ttl=5.0)
    restored.import_state(json.loads(json.dumps(source.export_state())))
    replayed = make_pair(lease_ttl=5.0)
    for record in iter_events(wal_path(str(tmp_path))):
        replayed.replay_record(record)
    for recovered in (restored, replayed):
        assert sorted(recovered.engine.site_ids) == [0, 1]
        assert built_refsums(recovered) == set()
        assert functional_state(recovered) == functional_state(source)

    source_next = pull(source, worker="w3", site=1)
    restored_next = pull(restored, worker="w3", site=1)
    assert restored_next.task.task_id == source_next.task.task_id
    assert built_refsums(restored) == {1}
    index, twin = restored.engine._index, source.engine._index
    assert index.refsums(1) == twin.refsums(1)
    assert index.total_refsum(1) == twin.total_refsum(1)


def test_replay_is_idempotent_for_lifecycle_records(tmp_path):
    """Submit/assign/complete/expire/requeue records can be re-folded.

    ``delta`` records are excluded on the second pass: reference
    counts are genuine counters, so re-applying a delta legitimately
    re-counts them — recovery replays each record exactly once (the
    snapshot's ``wal_seq`` gates the tail), so only the lifecycle
    records need to shrug off a duplicate.
    """
    state_dir = str(tmp_path)
    service, events, _held = run_wal_workload(state_dir, FakeClock())
    events.close()
    replayed = SchedulerService(metric="combined", n=2, seed=11,
                                clock=FakeClock(), lease_ttl=5.0)
    records = list(iter_events(wal_path(state_dir)))
    for record in records:
        replayed.replay_record(record)
    once = functional_state(replayed)
    for record in records:
        if record["event"] != "delta":
            replayed.replay_record(record)
    assert functional_state(replayed) == once


def test_replay_rejects_non_wal_submit_records(tmp_path):
    """A record is outside input: a ``submit`` with ``specs`` stripped
    (what the thinner pre-one-format event logs held) is refused,
    naming the field — nothing is guessed and nothing half-applied."""
    path = str(tmp_path / "events.jsonl")
    with EventLog(path=path) as events:
        service = SchedulerService(metric="combined", n=2, seed=0,
                                   clock=FakeClock(), events=events)
        submit(service, SPECS[:1])
    (record,) = iter_events(path)
    assert record["specs"] == [{"files": [1, 2, 3], "flops": 1.0}]
    replayed = SchedulerService(metric="combined", n=2, seed=0,
                                clock=FakeClock())
    from repro.serve.service import ServiceError
    thin = {key: value for key, value in record.items()
            if key != "specs"}
    with pytest.raises(ServiceError, match="submit record lacks 'specs'"):
        replayed.replay_record(thin)
    assert replayed.jobs_overview() == []
    assert replayed.replay_record(record)


@pytest.mark.parametrize("record", [
    {"event": "assign", "task_id": 99, "site": 0, "worker": "w0",
     "lease_id": 1},
    {"event": "complete", "task_id": 99, "worker": "w0"},
    {"event": "steal-task-done", "task_id": 99, "worker": "w0"},
    {"event": "requeue", "task_id": 99, "reason": "disconnect"},
    {"event": "steal-export", "export_id": 1, "thief": "steal/1",
     "specs": [{"task_id": 99, "job_id": 0, "files": [1],
                "flops": 0.0}]},
], ids=lambda record: record["event"])
def test_replay_rejects_records_naming_an_unknown_task(record):
    """A WAL is outside input: a record naming a task no ``submit``
    admitted is refused with the record kind, not a bare KeyError."""
    from repro.serve.service import ServiceError
    replayed = SchedulerService(metric="combined", n=2, seed=0,
                                clock=FakeClock())
    with pytest.raises(ServiceError, match=f"^{record['event']} record "
                                           f"for unknown task 99$"):
        replayed.replay_record(record)
    assert replayed.export_state() == SchedulerService(
        metric="combined", n=2, seed=0).export_state()


# -- open_shard: snapshot + tail-replay recovery -----------------------------

def test_open_shard_recovers_from_snapshot_plus_tail(tmp_path):
    state_dir = str(tmp_path)
    first = open_shard(state_dir, metric="combined", n=2, seed=3,
                       lease_ttl=5.0, clock=FakeClock())
    service = first.service
    submit(service, SPECS)
    done = pull(service, worker="w0", site=0)
    service.task_done("w0", done.task.task_id, done.lease_id)
    assert first.maybe_snapshot() is not None
    snapshot_seq = first.events.next_seq
    # Post-snapshot tail: one more completion and one in-flight lease,
    # each committed where the front end writes its reply.
    tail_done = pull(service, worker="w0", site=0)
    first.events.flush()  # TASK
    service.task_done("w0", tail_done.task.task_id, tail_done.lease_id)
    first.events.flush()  # ACK
    held = pull(service, worker="w1", site=1)
    first.events.flush()  # TASK
    pre_crash = functional_state(service)
    # Crash: no close(), no final snapshot — the commits before each
    # reply pushed every WAL record out, which is what kill -9 leaves.

    second = open_shard(state_dir, metric="combined", n=2, seed=3,
                        lease_ttl=5.0, clock=FakeClock())
    report = second.report
    assert report["snapshot_seq"] == snapshot_seq
    assert report["replayed"] > 0  # the tail, not a cold start
    assert report["skipped"] > 0   # pre-snapshot records were covered
    assert functional_state(second.service) == pre_crash
    # Exactly-once across the restart: done stays done, held stays
    # completable under its original lease, pending stays assignable.
    dup = second.service.task_done("w0", tail_done.task.task_id,
                                   tail_done.lease_id)
    assert (dup.accepted, dup.reason) == (False, "already-complete")
    resumed = second.service.task_done("w1", held.task.task_id,
                                       held.lease_id)
    assert resumed.accepted
    last = pull(second.service, worker="w2", site=0)
    result = second.service.task_done("w2", last.task.task_id,
                                      last.lease_id)
    assert result.accepted
    assert second.service.job_status(0)["done"]
    second.close()


def test_an_uncommitted_record_dies_with_the_process(tmp_path):
    """``emit`` only buffers; the commit is taken right before a reply
    is written.  A completion whose ACK never left is lost with the
    process, and recovery lands in the state the live service held one
    step earlier — a state it really passed through, so the worker's
    retry of the same completion is simply accepted."""
    state_dir = str(tmp_path)
    first = open_shard(state_dir, metric="combined", n=2, seed=3,
                       lease_ttl=5.0, clock=FakeClock())
    service = first.service
    submit(service, SPECS)
    first.events.flush()  # JOB_ACCEPTED
    held = pull(service, worker="w0", site=0)
    first.events.flush()  # TASK
    one_step_earlier = functional_state(service)
    assert service.task_done("w0", held.task.task_id,
                             held.lease_id).accepted
    assert functional_state(service) != one_step_earlier
    # Crash before the ACK was written: the ``complete`` record never
    # reached the OS.
    assert [record["event"] for path in wal_files(state_dir)
            for record in iter_events(path)] == ["submit", "assign"]

    second = open_shard(state_dir, metric="combined", n=2, seed=3,
                        lease_ttl=5.0, clock=FakeClock())
    assert functional_state(second.service) == one_step_earlier
    retried = second.service.task_done("w0", held.task.task_id,
                                       held.lease_id)
    assert retried.accepted
    second.close()


def test_open_shard_without_snapshot_replays_full_log(tmp_path):
    state_dir = str(tmp_path)
    first = open_shard(state_dir, metric="combined", n=2, seed=3,
                       lease_ttl=5.0, clock=FakeClock())
    submit(first.service, SPECS)
    first.events.flush()  # JOB_ACCEPTED
    done = pull(first.service, worker="w0", site=0)
    first.events.flush()  # TASK
    first.service.task_done("w0", done.task.task_id, done.lease_id)
    first.events.flush()  # ACK
    pre_crash = functional_state(first.service)
    for _seq, path in list_snapshots(state_dir):
        os.remove(path)  # force the no-snapshot path

    second = open_shard(state_dir, metric="combined", n=2, seed=3,
                        lease_ttl=5.0, clock=FakeClock())
    assert second.report["snapshot_seq"] is None
    assert second.report["skipped"] == 0
    assert functional_state(second.service) == pre_crash
    second.close()


def test_open_shard_continues_the_wal_sequence(tmp_path):
    state_dir = str(tmp_path)
    first = open_shard(state_dir, clock=FakeClock())
    submit(first.service, SPECS[:2])
    first.events.flush()  # JOB_ACCEPTED
    next_seq = first.events.next_seq
    assert next_seq > 0
    # Crash; the second incarnation appends where the first stopped,
    # beginning with the record of where it resumed.
    second = open_shard(state_dir, clock=FakeClock())
    assert second.report["next_seq"] == next_seq
    assert second.events.next_seq == next_seq + 1
    submit(second.service, SPECS[2:], job_id=0)
    rng = second.service.export_state()["rng"]
    second.close()
    records = [record for path in wal_files(state_dir)
               for record in iter_events(path)]
    seqs = [record["seq"] for record in records]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)  # one monotone history
    boundary = records[seqs.index(next_seq)]
    assert boundary["event"] == "recovered"
    assert boundary["wal_seq"] == second.report["snapshot_seq"]
    assert boundary["rng"] == json.loads(json.dumps(rng))


def test_a_log_spanning_a_crash_redecides_in_one_call(tmp_path):
    """kill -9 after a snapshot and more decisions: the restarted
    shard resumes with the snapshot's RNG, not the one the dead
    incarnation reached.  Its ``recovered`` record says so, and the
    whole WAL, both incarnations, re-decides with no mismatch and
    ends on the live RNG."""
    import random

    def life(shard, rounds, seed):
        service, picks = shard.service, random.Random(seed)
        for step in range(rounds):
            worker, site = f"w{step % 3}", step % 3
            grants = []
            service.request_tasks(worker, site, picks.randint(1, 3),
                                  grants.extend)
            for grant in grants:
                service.file_delta(site, list(grant.task.files), [],
                                   list(grant.task.files))
                service.task_done(worker, grant.task.task_id,
                                  grant.lease_id)
            shard.events.flush()

    specs = [([fid % 9, (fid * 5) % 9, 9 + fid % 4], 1.0)
             for fid in range(60)]
    state_dir = str(tmp_path)
    options = dict(metric="combined", n=2, seed=3, lease_ttl=5.0)
    shard = open_shard(state_dir, clock=FakeClock(),
                       tracer=DecisionTracer(), **options)
    submit(shard.service, specs)
    shard.events.flush()
    life(shard, 6, seed=1)
    assert shard.maybe_snapshot() is not None
    life(shard, 6, seed=2)  # decisions past the snapshot
    # Crash: no close(); every record was committed before a reply.
    shard = open_shard(state_dir, clock=FakeClock(),
                       tracer=DecisionTracer(), **options)
    assert shard.report["snapshot_seq"] is not None
    life(shard, 12, seed=3)
    live_rng = shard.service.engine.rng.getstate()
    shard.close()

    records = [record for path in wal_files(state_dir)
               for record in iter_events(path)]
    assert [record["event"] for record in records].count(
        "recovered") == 1
    fresh = SchedulerService(clock=FakeClock(), **options)
    assert fresh.redecide(records) == []
    assert fresh.engine.rng.getstate() == live_rng


def test_a_torn_burst_leaves_every_next_recovery_readable(tmp_path):
    """A kill during a commit's one ``write`` can stop at any byte of
    the burst.  Tear a committed multi-record burst at every offset,
    recover, work, commit, and recover again: the second recovery
    must read the log (the first incarnation's torn line must not
    become a complete line of bad JSON under the next one's records),
    with one contiguous sequence and the state the work left."""
    source = str(tmp_path / "source")
    first = open_shard(source, metric="combined", n=2, seed=3,
                       lease_ttl=5.0, clock=FakeClock())
    submit(first.service, SPECS)
    first.events.flush()
    burst_start = os.path.getsize(wal_path(source))
    held = pull(first.service, worker="w0", site=0)
    first.service.task_done("w0", held.task.task_id, held.lease_id)
    first.service.file_delta(0, added=[1, 2], removed=[],
                             referenced=[1, 2, 3])
    pull(first.service, worker="w1", site=1)
    first.events.flush()  # one write of four records; no snapshot
    with open(wal_path(source), "rb") as handle:
        wal = handle.read()
    assert wal.count(b"\n", burst_start) == 4
    for offset in range(burst_start, len(wal) + 1):
        state_dir = str(tmp_path / f"torn-{offset}")
        os.makedirs(state_dir)
        with open(wal_path(state_dir), "wb") as handle:
            handle.write(wal[:offset])
        second = open_shard(state_dir, metric="combined", n=2, seed=3,
                            lease_ttl=5.0, clock=FakeClock())
        assert second.report["next_seq"] == wal.count(b"\n", 0, offset)
        submit(second.service, SPECS[:2])
        pull(second.service, worker="w2", site=1)
        second.events.close()  # committed; nothing else to write
        left = functional_state(second.service)
        third = open_shard(state_dir, metric="combined", n=2, seed=3,
                           lease_ttl=5.0, clock=FakeClock())
        seqs = [record["seq"] for path in wal_files(state_dir)
                for record in iter_events(path)]
        assert seqs == list(range(len(seqs))), offset
        assert functional_state(third.service) == left, offset
        third.events.close()


def committed_life(state_dir, snapshot_at=None):
    """A shard commits a submit and three replies (seqs 0-3), taking a
    snapshot when its WAL reaches ``snapshot_at``, then crashes;
    returns the WAL's lines."""
    shard = open_shard(state_dir, metric="combined", n=2, seed=3,
                       lease_ttl=5.0, clock=FakeClock())
    submit(shard.service, SPECS)
    shard.events.flush()  # JOB_ACCEPTED
    for worker, site in (("w0", 0), ("w1", 1), ("w2", 0)):
        if shard.events.next_seq == snapshot_at:
            shard.maybe_snapshot()
        pull(shard.service, worker=worker, site=site)
        shard.events.flush()  # TASK
    with open(wal_path(state_dir)) as handle:
        return handle.readlines()


def write_wal(state_dir, files):
    """Lay ``files`` (oldest first, each a list of lines) out as the
    rotated WAL: ``wal.jsonl.N`` … ``wal.jsonl.1``, then ``wal.jsonl``."""
    paths = [f"{wal_path(state_dir)}.{index}"
             for index in range(len(files) - 1, 0, -1)]
    for path, lines in zip(paths + [wal_path(state_dir)], files):
        with open(path, "w") as handle:
            handle.writelines(lines)


@pytest.mark.parametrize("rotated", [False, True],
                         ids=["one-file", "across-rotation"])
def test_recovery_refuses_a_wal_with_a_lost_record(tmp_path, rotated):
    """Seqs 0, 1, 3: a commit whose write failed after the sink cleared
    its buffer loses seq 2 while the next commit lands at 3.  Folding
    3 would build a state the live service never held."""
    state_dir = str(tmp_path)
    lines = committed_life(state_dir)
    assert [json.loads(line)["seq"] for line in lines] == [0, 1, 2, 3]
    kept = [lines[0], lines[1], lines[3]]
    write_wal(state_dir, [kept[:2], kept[2:]] if rotated else [kept])
    with pytest.raises(WalGapError, match=r"wal\.jsonl: WAL record "
                                          r"seq 2 is missing"):
        open_shard(state_dir, metric="combined", n=2, seed=3,
                   lease_ttl=5.0, clock=FakeClock())


def test_recovery_refuses_a_gap_right_after_the_snapshot(tmp_path):
    """The snapshot covers seqs below 2 and the older records are gone
    with a rotated-out file: the tail must start at seq 2, and one
    that starts at 3 has lost the record the snapshot names."""
    state_dir = str(tmp_path)
    lines = committed_life(state_dir, snapshot_at=2)
    assert [seq for seq, _path in list_snapshots(state_dir)] == [2]
    write_wal(state_dir, [lines[3:]])
    with pytest.raises(WalGapError, match="seq 2 is missing"):
        open_shard(state_dir, metric="combined", n=2, seed=3,
                   lease_ttl=5.0, clock=FakeClock())
    # From the snapshot's seq on, the same tail recovers.
    write_wal(state_dir, [lines[2:]])
    shard = open_shard(state_dir, metric="combined", n=2, seed=3,
                       lease_ttl=5.0, clock=FakeClock())
    assert (shard.report["snapshot_seq"], shard.report["replayed"],
            shard.report["next_seq"]) == (2, 2, 4)
    shard.events.close()


def test_maybe_snapshot_skips_when_nothing_changed(tmp_path):
    shard = open_shard(str(tmp_path), clock=FakeClock())
    submit(shard.service, SPECS[:1])
    assert shard.maybe_snapshot() is not None
    assert shard.maybe_snapshot() is None  # same wal seq: skipped
    assert shard.maybe_snapshot(force=True) is not None
    assert shard.snapshots_written == 2
    shard.close()


def test_shard_describe_reports_identity_and_recovery(tmp_path):
    shard = open_shard(str(tmp_path), shard_index=1, shard_count=3,
                       clock=FakeClock())
    submit(shard.service, SPECS[:1])
    shard.maybe_snapshot()
    block = shard.describe()
    assert (block["index"], block["count"]) == (1, 3)
    assert block["snapshots_on_disk"] == 1
    assert block["recovery"]["snapshot_seq"] is None
    assert block["wal_next_seq"] == shard.events.next_seq
    # Shard ids stride so job/task ids are congruent to the index.
    assert shard.service.submit_job(
        [{"files": [9]}])["job_id"] % 3 == 1
    shard.close()


# -- one fold: what the live path did is what recovery rebuilds --------------

def open_tail_shard(state_dir, clock):
    return open_shard(state_dir, metric="combined", n=2, seed=3,
                      lease_ttl=5.0, clock=clock, replicate_tail=True)


@pytest.mark.parametrize("snapshot", [False, True])
def test_promoted_replica_survives_recovery(tmp_path, snapshot):
    """The lost-task regression (``repro serve --state-dir D
    --replicate-stragglers``): the primary lease lapses, the live
    service promotes the replica, the shard is killed.  Recovery used
    to ignore replica ``assign`` records yet fold the ``lease-expire``,
    leaving the task neither pending, leased nor completed — the
    replica's completion was refused and the job never finished."""
    state_dir = str(tmp_path)
    clock = FakeClock()
    first = open_tail_shard(state_dir, clock)
    service = first.service
    submit(service, SPECS[:1])
    first.events.flush()  # JOB_ACCEPTED
    primary = pull(service, worker="w0", site=0)
    first.events.flush()  # TASK
    clock.advance(3.0)
    replica = pull(service, worker="w1", site=1)  # tail: replicates
    first.events.flush()  # TASK
    assert replica.task.task_id == primary.task.task_id
    assert replica.lease_id != primary.lease_id
    if snapshot:  # the snapshot must carry the live replica lease
        assert first.maybe_snapshot() is not None
    clock.advance(3.0)
    assert service.expire_leases() == 1  # only the primary lapsed
    assert service.queue_depth == 0      # promoted, not requeued
    first.events.flush()  # the end of the lease sweep
    pre_crash = functional_state(service)
    # Crash.

    second = open_tail_shard(state_dir, FakeClock())
    assert functional_state(second.service) == pre_crash
    result = second.service.task_done("w1", replica.task.task_id,
                                      replica.lease_id)
    assert result.accepted
    assert second.service.job_status(0)["done"]
    second.close()


def weighted_pulls(service, count):
    """Unscoped pull + completion, ``count`` times: the job order.
    The log is committed where the front end writes each reply."""
    order = []
    for _ in range(count):
        assignment = pull(service, worker="w0", site=0)
        service.events.flush()  # TASK
        service.task_done("w0", assignment.task.task_id,
                          assignment.lease_id)
        service.events.flush()  # ACK
        order.append(assignment.job_id)
    return order


def test_weighted_fair_state_survives_recovery(tmp_path):
    """``JOB_SUBMIT {weight}`` used to be in neither the ``submit``
    record nor the snapshot: a recovered shard forgot every weight and
    every stride pass count and fell back to the unweighted pick."""
    state_dir = str(tmp_path)
    first = open_shard(state_dir, clock=FakeClock())
    service = first.service
    specs = [{"files": [fid]} for fid in range(10)]
    service.submit_job(specs, weight=3.0)
    service.submit_job(specs, weight=1.0)
    first.events.flush()  # JOB_ACCEPTED (both)
    weighted_pulls(service, 3)
    assert first.maybe_snapshot() is not None
    weighted_pulls(service, 2)
    # Crash.

    second = open_shard(state_dir, clock=FakeClock())
    assert second.report["snapshot_seq"] is not None
    assert functional_state(second.service) == functional_state(service)
    expected = weighted_pulls(service, 8)
    assert sorted(set(expected)) == [0, 1]
    assert weighted_pulls(second.service, 8) == expected
    second.close()


def test_pass_counts_survive_a_snapshot_from_before_the_first_weight(
        tmp_path):
    """Pass counts run from a job's first assignment but snapshots
    carry them only in weighted-fair mode, so the submit that turns
    the mode on records the counts no earlier snapshot has."""
    state_dir = str(tmp_path)
    first = open_shard(state_dir, clock=FakeClock())
    service = first.service
    specs = [{"files": [fid]} for fid in range(10)]
    service.submit_job(specs)
    weighted_pulls(service, 4)
    assert first.maybe_snapshot() is not None  # no weights in it
    service.submit_job(specs, weight=1.0)
    first.events.flush()  # JOB_ACCEPTED
    # Crash.

    second = open_shard(state_dir, clock=FakeClock())
    assert functional_state(second.service) == functional_state(service)
    # The newcomer catches up on the 4 assignments it is behind.
    assert weighted_pulls(second.service, 5) == [1, 1, 1, 1, 0]
    second.close()


def test_pass_counts_a_recovery_forgot_stay_forgotten_in_the_log(
        tmp_path):
    """A recovery from a snapshot without weights restarts the pass
    counts at zero, while the ``assign`` records before it still add
    up in a full-log fold.  The submit that turns weighted mode on
    settles it: what it records is what the live service had."""
    state_dir = str(tmp_path)
    first = open_shard(state_dir, clock=FakeClock())
    specs = [{"files": [fid]} for fid in range(10)]
    first.service.submit_job(specs)
    weighted_pulls(first.service, 4)
    assert first.maybe_snapshot() is not None  # no weights in it
    # Crash.

    second = open_shard(state_dir, clock=FakeClock())
    second.service.submit_job(specs, weight=1.0)
    second.events.flush()  # JOB_ACCEPTED
    # Crash again; this time the snapshot is unusable.
    for _seq, path in list_snapshots(state_dir):
        os.remove(path)

    third = open_shard(state_dir, clock=FakeClock())
    assert third.report["snapshot_seq"] is None
    assert functional_state(third.service) \
        == functional_state(second.service)
    expected = weighted_pulls(second.service, 6)
    assert weighted_pulls(third.service, 6) == expected
    third.close()


def test_drain_survives_recovery(tmp_path):
    """``drain()`` used to emit nothing: a shard killed mid-drain came
    back accepting jobs and handing out tasks."""
    from repro.serve.service import ServiceError
    state_dir = str(tmp_path)
    first = open_shard(state_dir, clock=FakeClock())
    submit(first.service, SPECS[:2])
    first.events.flush()  # JOB_ACCEPTED
    held = pull(first.service, worker="w0", site=0)
    first.events.flush()  # TASK
    first.service.drain()
    first.events.flush()  # ACK {draining}
    first.service.drain()  # a repeated DRAIN writes nothing more
    first.events.flush()  # ACK {draining}
    records = [record["event"] for path in wal_files(state_dir)
               for record in iter_events(path)]
    assert records.count("drain") == 1
    # Crash with one task pending and one out under a lease.

    second = open_shard(state_dir, clock=FakeClock())
    assert second.service.draining
    with pytest.raises(ServiceError, match="draining"):
        submit(second.service, SPECS[2:])
    assert pull(second.service, worker="w1", site=0) == "draining"
    drained = []
    second.service.on_drained = lambda: drained.append(True)
    assert second.service.task_done("w0", held.task.task_id,
                                    held.lease_id).accepted
    assert drained == [True]
    second.close()


def test_recovered_draining_shard_with_nothing_outstanding_exits(
        tmp_path):
    """``on_drained`` is wired after ``open_shard`` restored the
    state, so an idle shard recovered mid-drain used to sit waiting
    for another DRAIN; the server now re-checks once it listens."""
    import asyncio
    from repro.serve.server import SchedulerServer
    state_dir = str(tmp_path)
    first = open_shard(state_dir, clock=FakeClock())
    submit(first.service, SPECS[:1])
    held = pull(first.service, worker="w0", site=0)
    assert first.service.task_done("w0", held.task.task_id,
                                   held.lease_id).accepted
    first.service.drain()
    first.close()

    def wal_records():
        return [record for path in wal_files(state_dir)
                for record in iter_events(path)]

    before = wal_records()
    second = open_shard(state_dir, clock=FakeClock())
    assert second.service.draining and second.service.is_idle

    async def serve():
        server = SchedulerServer(second.service)
        await asyncio.wait_for(server.serve_until_drained(), timeout=5)

    asyncio.run(serve())
    second.close()
    # No second ``drain`` record: only the restart's own.
    assert [record["event"] for record in wal_records()[len(before):]] \
        == ["recovered"]


# What the parent commit (PR 14) wrote for ``parent_shaped_life``: its
# WAL lines verbatim, its snapshot after the first PARENT_COVERED
# records, and its final state (both minus the decision-stream fields).
# WAL records and snapshot keys are additive-only, so this log must
# still be emitted byte for byte and must still fold to this state.
PARENT_WAL = """\
{"event":"submit","job_id":0,"seq":0,"specs":[{"files":[1,2,3],"flops":1.0},{"files":[3,4],"flops":2.0},{"files":[5],"flops":0.5},{"files":[1,5,6],"flops":3.0}],"task_ids":[0,2,4,6],"tasks":4,"ts":0.0}
{"event":"assign","job_id":0,"latency_us":0.0,"lease_id":1,"overlap":0,"seq":1,"site":0,"task_id":4,"ts":0.0,"worker":"w0"}
{"event":"complete","job_id":0,"lease_id":1,"seq":2,"task_id":4,"ts":0.0,"worker":"w0"}
{"event":"assign","job_id":0,"latency_us":0.0,"lease_id":2,"overlap":0,"seq":3,"site":1,"task_id":2,"ts":0.0,"worker":"w1"}
{"event":"lease-expire","lease_id":2,"seq":4,"task_id":2,"ts":0.0,"worker":"w1"}
{"event":"requeue","reason":"lease-expired","seq":5,"task_id":2,"ts":0.0}
{"event":"assign","job_id":0,"latency_us":0.0,"lease_id":3,"overlap":0,"seq":6,"site":0,"task_id":2,"ts":0.0,"worker":"w2"}
{"event":"requeue","reason":"disconnect","seq":7,"task_id":2,"ts":0.0,"worker":"w2"}
{"added":2,"added_ids":[3,4],"duplicates":0,"event":"delta","referenced":1,"referenced_ids":[5],"removed":0,"removed_ids":[],"seq":8,"site":1,"ts":0.0}
{"event":"steal-export","export_id":1,"seq":9,"specs":[{"files":[3,4],"flops":2.0,"job_id":0,"task_id":2}],"thief":"steal/1","ts":0.0}
{"event":"steal-export-ack","export_id":1,"seq":10,"ts":0.0}
{"event":"complete","job_id":0,"seq":11,"task_id":2,"ts":0.0,"worker":"steal/1"}
{"event":"steal-export","export_id":2,"seq":12,"specs":[{"files":[1,2,3],"flops":1.0,"job_id":0,"task_id":0}],"thief":"steal/1","ts":0.0}
{"event":"steal-export-abort","export_id":2,"seq":13,"ts":0.0}
{"event":"steal-import","export_id":7,"origin":1,"seq":14,"specs":[{"files":[2,7],"flops":1.5,"job_id":1,"task_id":1}],"ts":0.0}
{"event":"steal-import-commit","export_id":7,"origin":1,"seq":15,"ts":0.0}
{"event":"assign","job_id":1,"latency_us":0.0,"lease_id":4,"overlap":0,"seq":16,"site":0,"task_id":1,"ts":0.0,"worker":"w0"}
{"event":"steal-task-done","job_id":1,"lease_id":4,"seq":17,"task_id":1,"ts":0.0,"worker":"w0"}
{"event":"steal-import","export_id":8,"origin":1,"seq":18,"specs":[{"files":[7],"flops":0.5,"job_id":1,"task_id":3}],"ts":0.0}
{"event":"steal-forwarded","origin":1,"seq":19,"task_ids":[1],"ts":0.0}
{"event":"steal-import-abort","export_id":8,"origin":1,"seq":20,"ts":0.0}
{"event":"steal-import","export_id":9,"origin":1,"seq":21,"specs":[{"files":[6],"flops":0.0,"job_id":3,"task_id":5}],"ts":0.0}
{"event":"steal-export","export_id":3,"seq":22,"specs":[{"files":[1,2,3],"flops":1.0,"job_id":0,"task_id":0}],"thief":"steal/2","ts":0.0}
{"event":"submit","job_id":0,"seq":23,"specs":[{"files":[2,6],"flops":1.0}],"task_ids":[8],"tasks":1,"ts":0.0}
{"event":"assign","job_id":0,"latency_us":0.0,"lease_id":5,"overlap":0,"seq":24,"site":1,"task_id":8,"ts":0.0,"worker":"w3"}
"""
PARENT_COVERED = 9
PARENT_SNAPSHOT = """{
  "assigned": [],
  "completed": [4],
  "draining": false,
  "fast_path": true,
  "id_start": 0,
  "id_stride": 2,
  "jobs": [[0, [0, 2, 4, 6], [4]]],
  "metric": "combined",
  "n": 2,
  "next_job_id": 2,
  "next_lease_id": 4,
  "next_task_id": 8,
  "sites": [[0, {"references": [], "resident": []}], [1, {"references": [[5, 1]], "resident": [3, 4]}]],
  "tasks": [[0, [1, 2, 3], 1.0], [2, [3, 4], 2.0], [4, [5], 0.5], [6, [1, 5, 6], 3.0]],
  "version": 1
}"""
PARENT_FINAL = """{
  "assigned": [[8, 5, "w3", 1]],
  "completed": [1, 2, 4],
  "draining": false,
  "fast_path": true,
  "id_start": 0,
  "id_stride": 2,
  "jobs": [[0, [0, 2, 4, 6, 8], [2, 4]], [1, [1], [1]]],
  "metric": "combined",
  "n": 2,
  "next_job_id": 2,
  "next_lease_id": 6,
  "next_task_id": 10,
  "sites": [[0, {"references": [], "resident": []}], [1, {"references": [[5, 1]], "resident": [3, 4]}]],
  "steal": {"exports": [[3, "steal/2", false, [{"files": [1, 2, 3], "flops": 1.0, "job_id": 0, "task_id": 0}], [0]]], "foreign_jobs": [[1, 1]], "imports": [[1, 9, [{"files": [6], "flops": 0.0, "job_id": 3, "task_id": 5}]]], "next_export_id": 4},
  "tasks": [[0, [1, 2, 3], 1.0], [1, [2, 7], 1.5], [2, [3, 4], 2.0], [4, [5], 0.5], [6, [1, 5, 6], 3.0], [8, [2, 6], 1.0]],
  "version": 1
}"""


def parent_shaped_service(**kwargs):
    # Shard 0 of 2 with stealing armed; no weight, replica or drain.
    return SchedulerService(metric="combined", n=2, seed=11,
                            lease_ttl=5.0, id_start=0, id_stride=2,
                            steal_watermark=1, **kwargs)


def parent_shaped_life(service, clock):
    """Every record kind the parent commit could write, live."""
    submit(service, SPECS)
    done = pull(service, worker="w0", site=0)
    service.task_done("w0", done.task.task_id, done.lease_id)
    pull(service, worker="w1", site=1)
    clock.advance(6.0)
    service.expire_leases()
    pull(service, worker="w2", site=0)
    service.disconnect("w2")
    service.file_delta(1, added=[3, 4], removed=[], referenced=[5])
    snapshot = functional_state(service)
    grant = service.export_steal_batch("steal/1", 1, [])
    service.steal_export_acked(grant["export_id"])
    service.steal_done([grant["tasks"][0]["task_id"]], "steal/1")
    service.export_steal_batch("steal/1", 1, [])
    service.disconnect("steal/1")  # un-acked: aborts the export
    service.steal_import_tentative(1, 7, [
        {"task_id": 1, "job_id": 1, "files": [2, 7], "flops": 1.5}])
    service.steal_commit_import(1, 7)
    stolen = pull(service, worker="w0", site=0, job_id=1)
    service.task_done("w0", stolen.task.task_id, stolen.lease_id)
    service.steal_import_tentative(1, 8, [
        {"task_id": 3, "job_id": 1, "files": [7], "flops": 0.5}])
    service.steal_forwarded(1, [1])
    service.steal_abort_import(1, 8)
    service.steal_import_tentative(1, 9, [
        {"task_id": 5, "job_id": 3, "files": [6], "flops": 0.0}])
    service.export_steal_batch("steal/2", 1, [])
    submit(service, [([2, 6], 1.0)], job_id=0)
    pull(service, worker="w3", site=1)
    return snapshot


def test_a_parent_shaped_wal_and_snapshot_still_mean_the_same():
    wal = [json.loads(line) for line in PARENT_WAL.splitlines()]
    parent_snapshot = json.loads(PARENT_SNAPSHOT)
    parent_final = json.loads(PARENT_FINAL)
    # A deployed shard has one kernel now, so ``fast_path`` left the
    # export.  The parent's snapshot, which carries the key, still
    # loads (below): nothing ever read it back.
    assert parent_final.pop("fast_path") is True
    written_snapshot = {key: value
                        for key, value in parent_snapshot.items()
                        if key != "fast_path"}
    # Written the same: this commit's live service emits that log and
    # exports those states, byte for byte.
    clock = FakeClock()
    live = parent_shaped_service(
        clock=clock, events=EventLog(clock=lambda: 0.0))
    snapshot = parent_shaped_life(live, clock)
    dump = [json.dumps(record, separators=(",", ":"), sort_keys=True)
            for record in live.events.tail()]
    # One draw differs, and only that.  The parent's ChooseTask(2) at
    # seq 6 saw task 2 in both candidate slots: requeued at seq 5
    # before its old zero-overlap heap entry was popped, the task had
    # two.  Counted once, it leaves the draw to task 0, which w2's
    # disconnect then requeues (seq 7).  Snapshot and final state are
    # the parent's.
    redrawn = {6: ('"task_id":2,', '"task_id":0,'),
               7: ('"task_id":2,', '"task_id":0,')}
    assert dump == [
        line.replace(*redrawn[seq]) if seq in redrawn else line
        for seq, line in enumerate(PARENT_WAL.splitlines())]
    assert json.dumps(snapshot, sort_keys=True) \
        == json.dumps(written_snapshot, sort_keys=True)
    assert json.dumps(functional_state(live), sort_keys=True) \
        == json.dumps(parent_final, sort_keys=True)
    # Read the same: the whole log, and the snapshot + its tail.
    replayed = parent_shaped_service(clock=FakeClock())
    for record in wal:
        replayed.replay_record(record)
    assert functional_state(replayed) == parent_final
    recovered = parent_shaped_service(clock=FakeClock())
    rng_state = recovered.engine.rng.getstate()
    recovered.import_state(dict(
        parent_snapshot, rng=[rng_state[0], list(rng_state[1]),
                              rng_state[2]]))
    for record in wal[PARENT_COVERED:]:
        recovered.replay_record(record)
    assert functional_state(recovered) == parent_final
