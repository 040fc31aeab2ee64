"""Shard-to-shard work stealing: durability, exactly-once, identity.

Five groups:

* **victim crashes** — kill -9 (abandon without ``close()``: what was
  committed before each reply stays, nothing else) between
  ``STEAL_GRANT`` and ``STEAL_ACK`` requeues the export locally and
  refuses the
  thief's late ack; the same crash *after* the ack preserves the
  export, and the forwarded completions land exactly once;
* **thief crashes** — a tentative import survives recovery and
  resolves through the same commit/abort answers a live exchange uses;
* **who may be stolen from, and for whom** — a victim exports only its
  own jobs' tasks, and only an unscoped parked pull makes a thief ask;
* **bit-identity** — a stealing-enabled service that is never asked
  exports byte-identical state (and RNG stream) to a stealing-off
  service, and the lone shard of a one-shard cluster never arms
  stealing;
* **live e2e** — two real servers over TCP, a
  :class:`~repro.cluster.steal.StealManager` on the idle shard, and a
  clean exactly-once audit with every completion forwarded home.
"""

import asyncio

import pytest

from repro.cli import build_parser
from repro.cluster.shard import open_shard
from repro.cluster.steal import StealManager
from repro.cluster.supervisor import ClusterSupervisor
from repro.obs.events import EventLog
from repro.serve import messages
from repro.serve.client import SchedulerClient, WorkerClient
from repro.serve.server import SchedulerServer
from repro.serve.service import SchedulerService, ServiceError

TIMEOUT = 60


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


class FakeClock:
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


def open_victim(state_dir, **kwargs):
    kwargs.setdefault("clock", FakeClock())
    return open_shard(state_dir, metric="combined", n=2, seed=3,
                      shard_index=0, shard_count=2,
                      steal_watermark=1, **kwargs)


# -- victim crashes ----------------------------------------------------------

def test_victim_crash_before_ack_requeues_export(tmp_path):
    """kill -9 between STEAL_GRANT and STEAL_ACK: the un-acked export
    may or may not have reached the thief, but the thief cannot have
    activated it, so recovery reclaims the tasks locally and the late
    re-ack is refused — nothing runs twice, nothing is lost."""
    state_dir = str(tmp_path)
    first = open_victim(state_dir)
    submit(first.service, SPECS)
    first.events.flush()  # JOB_ACCEPTED
    grant = first.service.export_steal_batch("steal/1", 2, [])
    first.events.flush()  # STEAL_GRANT
    assert grant is not None and len(grant["tasks"]) == 2
    assert first.service.queue_depth == 2
    # Crash: no ack, no close() — the commit before STEAL_GRANT went
    # out persisted the steal-export record, which kill -9 leaves.

    second = open_victim(state_dir)
    assert second.report["steal_requeued"] == 2
    assert second.service.queue_depth == 4
    assert second.service.exported_outstanding == 0
    # The thief's tentative import re-acks, finds the export gone,
    # and must be told to drop it.
    assert second.service.steal_export_acked(grant["export_id"]) \
        is False
    # Exactly-once audit: every task completes locally, once.
    for _ in range(4):
        assignment = pull(second.service, worker="w9", site=0)
        result = second.service.task_done(
            "w9", assignment.task.task_id, assignment.lease_id)
        assert result.accepted
    assert second.service.job_status(0)["done"]
    assert second.service.stats.completions == 4
    assert second.service.stats.duplicate_completions == 0
    second.close()


def test_reclaimed_export_stays_stale_in_the_wal_across_a_second_crash(
        tmp_path):
    """Recovery reclaims an un-acked export without writing a record,
    so until a snapshot supersedes it the export is still un-acked in
    the WAL and a second recovery folds everything that happened since
    on top of it.  The reclaimed tasks were re-exported meanwhile: the
    stale export must leave them with the export that owns them now."""
    state_dir = str(tmp_path)
    first = open_victim(state_dir)
    submit(first.service, SPECS)
    first.events.flush()  # JOB_ACCEPTED
    stale = first.service.export_steal_batch("steal/1", 2, [])
    first.events.flush()  # STEAL_GRANT
    stale_ids = [spec["task_id"] for spec in stale["tasks"]]
    # Crash #1, un-acked.

    second = open_victim(state_dir)
    assert second.report["steal_requeued"] == 2
    again = second.service.export_steal_batch("steal/1", 2, [])
    second.events.flush()  # STEAL_GRANT
    assert again["export_id"] != stale["export_id"]
    # Selection is deterministic: the same two tasks go out again.
    assert [spec["task_id"] for spec in again["tasks"]] == stale_ids
    assert second.service.steal_export_acked(again["export_id"])
    second.events.flush()  # ACK
    # Crash #2 before any snapshot: both exports are in the WAL.

    third = open_victim(state_dir)
    assert third.report["snapshot_seq"] is None
    assert third.report["steal_requeued"] == 0
    assert third.service.exported_outstanding == 2
    assert third.service.queue_depth == 2
    assert third.service.steal_export_acked(stale["export_id"]) is False
    landed = third.service.steal_done(stale_ids, "steal/1")
    assert landed == {"completed": 2, "duplicates": 0}
    assert third.service.exported_outstanding == 0
    # Crash #3 with the second export un-acked instead: reclaimed
    # once, not once per export that ever named the task.
    other_dir = str(tmp_path / "unacked")
    first = open_victim(other_dir)
    submit(first.service, SPECS)
    first.events.flush()  # JOB_ACCEPTED
    first.service.export_steal_batch("steal/1", 2, [])
    first.events.flush()  # STEAL_GRANT
    second = open_victim(other_dir)
    second.service.export_steal_batch("steal/1", 2, [])
    second.events.flush()  # STEAL_GRANT
    third = open_victim(other_dir)
    assert third.report["steal_requeued"] == 2
    assert third.service.queue_depth == 4
    assert third.service.exported_outstanding == 0
    third.close()


def test_stale_export_does_not_take_back_a_task_leased_since(tmp_path):
    """Same stale export, but the reclaimed task was handed to a local
    worker before the second crash: recovery must leave it leased, so
    the worker's completion is accepted and the task runs once."""
    state_dir = str(tmp_path)
    first = open_victim(state_dir)
    submit(first.service, SPECS)
    first.events.flush()  # JOB_ACCEPTED
    stale = first.service.export_steal_batch("steal/1", 4, [])
    first.events.flush()  # STEAL_GRANT
    assert len(stale["tasks"]) == 3  # the watermark keeps one back
    # Crash #1, un-acked.

    second = open_victim(state_dir)
    assert second.report["steal_requeued"] == 3
    held = [pull(second.service, worker="w9", site=0) for _ in range(4)]
    second.events.flush()  # the four TASK replies
    # Crash #2 before any snapshot, all four leases outstanding.

    third = open_victim(state_dir)
    assert third.report["snapshot_seq"] is None
    assert third.report["steal_requeued"] == 0
    assert third.service.queue_depth == 0
    assert third.service.active_leases == 4
    assert third.service.exported_outstanding == 0
    for assignment in held:
        assert third.service.task_done(
            "w9", assignment.task.task_id, assignment.lease_id).accepted
    assert third.service.job_status(0)["done"]
    assert third.service.stats.completions == 4
    third.close()


def test_victim_crash_after_ack_preserves_export(tmp_path):
    """kill -9 after STEAL_ACK: the thief was told to keep the batch,
    so recovery must NOT requeue it — the tasks stay exported and the
    forwarded completions land exactly once (re-forwards are counted
    as duplicates and change nothing)."""
    state_dir = str(tmp_path)
    first = open_victim(state_dir)
    submit(first.service, SPECS)
    first.events.flush()  # JOB_ACCEPTED
    grant = first.service.export_steal_batch("steal/1", 2, [])
    first.events.flush()  # STEAL_GRANT
    stolen_ids = [spec["task_id"] for spec in grant["tasks"]]
    assert first.service.steal_export_acked(grant["export_id"])
    first.events.flush()  # ACK
    # Crash after the durable ack.

    second = open_victim(state_dir)
    assert second.report["steal_requeued"] == 0
    assert second.service.exported_outstanding == 2
    assert second.service.queue_depth == 2
    # An exported task is never handed to a local worker.
    local_ids = set()
    for _ in range(2):
        assignment = pull(second.service, worker="w9", site=0)
        local_ids.add(assignment.task.task_id)
        second.service.task_done("w9", assignment.task.task_id,
                                 assignment.lease_id)
    assert local_ids.isdisjoint(stolen_ids)
    # The thief forwards the stolen completions home — once, then
    # again after its own crash; the second landing is a no-op.
    landed = second.service.steal_done(stolen_ids, "steal/1")
    assert landed == {"completed": 2, "duplicates": 0}
    replay = second.service.steal_done(stolen_ids, "steal/1")
    assert replay == {"completed": 0, "duplicates": 2}
    assert second.service.job_status(0)["done"]
    assert second.service.stats.completions == 4
    assert second.service.exported_outstanding == 0
    second.close()


def test_a_refused_steal_done_changes_nothing():
    """A ``STEAL_DONE`` naming one task the victim never had is refused
    whole: the known completion beside it does not land, so the ERROR
    answer is the truth and no ``complete`` record or counter moves."""
    events = EventLog()
    service = SchedulerService(metric="combined", n=2, seed=3,
                               id_start=0, id_stride=2,
                               steal_watermark=1, events=events)
    submit(service, SPECS)
    grant = service.export_steal_batch("steal/1", 1, [])
    assert service.steal_export_acked(grant["export_id"])
    known = grant["tasks"][0]["task_id"]
    before = (service.export_state(), events.emitted,
              service.stats.completions)
    with pytest.raises(ServiceError, match="unknown task id 999"):
        service.steal_done([known, 999], "steal/1")
    assert (service.export_state(), events.emitted,
            service.stats.completions) == before
    assert service.steal_done([known], "steal/1") \
        == {"completed": 1, "duplicates": 0}


# -- thief crashes -----------------------------------------------------------

def test_thief_crash_with_tentative_import_resolves_on_recovery(
        tmp_path):
    """A tentative import survives kill -9 un-activated; recovery
    re-acks it through the exact live-exchange answers: commit
    activates the foreign tasks (completions forward home), abort
    drops the batch without a trace."""
    state_dir = str(tmp_path)
    specs = [{"task_id": 0, "job_id": 0, "files": [1, 2],
              "flops": 1.0},
             {"task_id": 2, "job_id": 0, "files": [5], "flops": 0.5}]
    first = open_shard(state_dir, metric="combined", n=2, seed=3,
                       shard_index=1, shard_count=2,
                       steal_watermark=1, clock=FakeClock())
    first.service.steal_import_tentative(0, 7, specs)
    first.events.flush()  # STEAL_ACK
    first.service.steal_import_tentative(0, 8, specs)  # to be aborted
    first.events.flush()  # STEAL_ACK
    assert first.service.queue_depth == 0  # tentative = invisible
    # Crash before either answer arrived.

    second = open_shard(state_dir, metric="combined", n=2, seed=3,
                        shard_index=1, shard_count=2,
                        steal_watermark=1, clock=FakeClock())
    assert second.service.pending_steal_imports() == [(0, 7), (0, 8)]
    # The victim aborted export 8 (its recovery requeued the tasks).
    second.service.steal_abort_import(0, 8)
    assert second.service.steal_commit_import(0, 7) == 2
    assert second.service.pending_steal_imports() == []
    assert second.service.queue_depth == 2
    # Foreign completions queue for forwarding, never count locally.
    for _ in range(2):
        assignment = pull(second.service, worker="tw", site=0)
        second.service.task_done("tw", assignment.task.task_id,
                                 assignment.lease_id)
    assert second.service.stats.completions == 0
    outbox = second.service.take_steal_completions()
    assert sorted(outbox) == [0] and sorted(outbox[0]) == [0, 2]
    second.service.steal_forwarded(0, [0, 2])
    assert second.service.steal_outbox_depth == 0
    second.close()


# -- who may be stolen from, and for whom ------------------------------------

def shard(index, **options):
    return SchedulerService(metric="combined", n=2, seed=3,
                            id_start=index, id_stride=2,
                            steal_watermark=1, clock=FakeClock(),
                            **options)


def steal(victim, victim_index, thief, max_tasks):
    """One whole exchange, sans IO: grant, tentative import, ack,
    commit.  Returns the granted specs ([] for a refusal)."""
    grant = victim.export_steal_batch(f"steal/{1 - victim_index}",
                                      max_tasks, [])
    if grant is None:
        return []
    thief.steal_import_tentative(victim_index, grant["export_id"],
                                 grant["tasks"])
    assert victim.steal_export_acked(grant["export_id"])
    thief.steal_commit_import(victim_index, grant["export_id"])
    return grant["tasks"]


def test_a_stolen_task_is_never_stolen_back():
    """A victim exports only its own jobs' tasks.  Stolen tasks used to
    be candidates too: stolen back, their ids were already known at the
    origin, so the import admitted nothing while both shards counted
    them exported — pending nowhere, and the job never finished."""
    a, b = shard(0), shard(1)
    submit(a, SPECS)                       # job 0: tasks 0 2 4 6
    submit(b, [([9], 1.0)])                # job 1: task 1
    assert len(steal(a, 0, b, 3)) == 3
    assert b.queue_depth == 4              # its own task + three stolen
    back = steal(b, 1, a, 3)
    assert [spec["job_id"] for spec in back] == [1]
    assert a.queue_depth == 2 and b.queue_depth == 3
    # Exactly-once audit: every task runs once, and each shard's
    # foreign completions are forwarded home.
    for service in (a, b):
        while service.queue_depth:
            done = pull(service, worker="w", site=0)
            assert service.task_done("w", done.task.task_id,
                                     done.lease_id).accepted
    for service, origin in ((a, b), (b, a)):
        for home, task_ids in service.take_steal_completions().items():
            assert origin.steal_done(task_ids, "steal")["duplicates"] == 0
            service.steal_forwarded(home, task_ids)
    assert a.job_status(0)["completed"] == 4 and a.job_status(0)["done"]
    assert b.job_status(1)["completed"] == 1 and b.job_status(1)["done"]
    assert a.exported_outstanding == b.exported_outstanding == 0
    # With nothing of its own pending, a victim has nothing to give.
    c, d = shard(0), shard(1)
    submit(c, SPECS)
    steal(c, 0, d, 3)
    assert d.export_steal_batch("steal/0", 2, []) is None
    assert d.stats_snapshot()["steal"]["requests"] == {"empty": 1}


def test_a_stolen_job_cannot_be_extended_on_the_thief():
    """Only a job's owner allocates its task ids.  A ``JOB_SUBMIT``
    extending a stolen job on the thief used to be accepted: the new
    id rode home in the same ``STEAL_DONE`` batch as the real stolen
    completion, the origin refused that batch whole every tick, and
    the job never finished.  Now it is refused before any id is
    allocated or any record emitted."""
    events = EventLog()
    origin, thief = shard(0), shard(1, events=events)
    submit(origin, SPECS[:3])                  # job 0: tasks 0 2 4
    (stolen,) = steal(origin, 0, thief, 1)
    next_task_id, emitted = thief._next_task_id, events.emitted
    with pytest.raises(ServiceError, match="is stolen; submit to shard 0"):
        submit(thief, [([7], 1.0)], job_id=stolen["job_id"])
    assert thief._next_task_id == next_task_id
    assert events.emitted == emitted
    assert not [record for record in events.tail()
                if record["event"] == "submit"]
    # The real stolen completion still forwards home and lands.
    done = pull(thief, worker="w", site=0)
    assert thief.task_done("w", done.task.task_id, done.lease_id).accepted
    outbox = thief.take_steal_completions()
    assert outbox == {0: [stolen["task_id"]]}
    assert origin.steal_done(outbox[0], "steal/1") \
        == {"completed": 1, "duplicates": 0}
    thief.steal_forwarded(0, outbox[0])
    assert thief.steal_outbox_depth == 0
    assert origin.job_status(0)["completed"] == 1


def test_a_job_scoped_parked_pull_does_not_steal():
    """A stolen task belongs to another shard's job, so only an
    unscoped pull can run it.  A thief whose one parked pull is scoped
    to its own job used to steal anyway: the tasks sat in its queue,
    the pull stayed parked, and the victim waited on them."""
    victim, thief = shard(0), shard(1)
    submit(victim, SPECS)
    own = submit(thief, [([7], 1.0)])["job_id"]
    pull(thief, worker="t0", job_id=own)   # leases the one task
    assert pull(thief, worker="t1", job_id=own) == "parked"
    manager = StealManager(thief, 1, peers={})
    sent = []

    async def pick_victim(watermark):
        return 0

    async def call(shard_index, message):
        sent.append(type(message).__name__)
        if isinstance(message, messages.StealRequest):
            grant = victim.export_steal_batch(
                "steal/1", message.max_tasks, message.site_refsums)
            return messages.StealGrant(tasks=grant["tasks"],
                                       export_id=grant["export_id"])
        return messages.Ack(
            accepted=victim.steal_export_acked(message.export_id))

    manager._pick_victim = pick_victim
    manager._call = call
    run(manager.tick())
    assert sent == []
    assert victim.exported_outstanding == 0 and thief.queue_depth == 0
    # An unscoped pull is demand: it parks, one task is stolen for it,
    # and the steal's commit hands that task straight to it.
    fed = []
    thief.request_task("t2", 0, fed.append)
    run(manager.tick())
    assert sent == ["StealRequest", "StealAck"]
    assert victim.exported_outstanding == 1
    assert [answer.job_id for answer in fed] == [0]
    assert thief.parked_workers == 1       # t1, still scoped and parked


# -- bit-identity ------------------------------------------------------------

def test_stealing_enabled_but_never_asked_is_bit_identical():
    """The pinned regression: arming stealing must not perturb a shard
    nobody steals from — same decision stream, same RNG, and an
    export_state() with no ``steal`` key at all."""
    def workload(steal_watermark):
        service = SchedulerService(metric="combined", n=2, seed=11,
                                   clock=FakeClock(),
                                   steal_watermark=steal_watermark)
        submit(service, SPECS)
        first = pull(service, worker="w0", site=0)
        pull(service, worker="w1", site=1)
        service.task_done("w0", first.task.task_id, first.lease_id)
        service.file_delta(0, added=[1, 2], removed=[], referenced=[3])
        pull(service, worker="w2", site=0)
        return service

    off = workload(None)
    on = workload(4)
    assert on.export_state() == off.export_state()
    assert "steal" not in on.export_state()
    assert on.engine.rng.getstate() == off.engine.rng.getstate()


def test_supervisor_arms_stealing_only_with_peers(tmp_path):
    """The supervisor forwards the watermark as given and always names
    the topology file; a shard arms stealing only with both *and* a
    peer.  One shard has nobody to steal from, so what keeps its idle
    pulls answering ``idle`` is the ``--shard-count 1`` on its command
    line (``test_cluster_e2e`` runs that lone shard for real)."""
    for shards in (1, 2):
        supervisor = ClusterSupervisor(
            shards=shards, state_root=str(tmp_path),
            shard_args=["--steal-watermark", "4"])
        command = supervisor._shard_command(0)
        assert command[1:4] == ["-m", "repro", "serve"]
        args = build_parser().parse_args(command[3:])
        assert args.steal_watermark == 4
        assert args.cluster_file == supervisor.cluster_file
        assert args.shard_count == shards


# -- live e2e ----------------------------------------------------------------

def test_e2e_steal_feeds_idle_shard_and_forwards_completions():
    """Two real servers over TCP: the loaded victim's job is finished
    by both fleets, every stolen completion is forwarded home, and
    the audit is clean (victim counts all 8, thief counts none)."""
    async def body():
        victim = SchedulerService(metric="combined", n=2, seed=0,
                                  id_start=0, id_stride=2,
                                  steal_watermark=2, name="shard-0")
        thief = SchedulerService(metric="combined", n=2, seed=0,
                                 id_start=1, id_stride=2,
                                 steal_watermark=2, name="shard-1")
        victim_server = SchedulerServer(victim)
        thief_server = SchedulerServer(thief)
        await victim_server.start()
        await thief_server.start()
        manager = StealManager(
            thief, 1, peers={0: (victim_server.host,
                                 victim_server.port)},
            interval=0.01)
        await manager.start()
        try:
            async with SchedulerClient(victim_server.host,
                                       victim_server.port) as control:
                handle = await control.submit(
                    [{"files": [fid, fid + 100], "flops": 1.0}
                     for fid in range(8)])
                # Unscoped thief-side worker: parks, then runs
                # whatever stealing feeds it.
                thief_worker = WorkerClient(thief_server.host,
                                            thief_server.port,
                                            worker="tw", site=0)
                thief_task = asyncio.create_task(thief_worker.run())
                # Slow victim-side worker keeps the queue deep enough
                # to steal from while draining the local remainder.
                victim_worker = WorkerClient(victim_server.host,
                                             victim_server.port,
                                             worker="vw", site=0,
                                             flops_per_sec=50.0,
                                             job_id=handle.job_id)
                victim_summary = await victim_worker.run()
                status = await asyncio.wait_for(handle.wait_done(),
                                                timeout=20)
                victim_stats = await control.stats()
            async with SchedulerClient(thief_server.host,
                                       thief_server.port) as tcontrol:
                thief_stats = await tcontrol.stats()
                await tcontrol.drain()
            thief_summary = await asyncio.wait_for(thief_task,
                                                   timeout=10)
            stolen = thief_stats["steal"]["tasks_stolen"]
            assert status["done"] and status["completed"] == 8
            assert stolen >= 1
            assert victim_stats["steal"]["tasks_exported"] == stolen
            # Forwarded completions count at the owner, never the
            # thief; the two fleets together ran exactly the job.
            assert victim_stats["completions"] == 8
            assert victim_stats["duplicate_completions"] == 0
            assert thief_stats["completions"] == 0
            assert thief_summary["tasks_done"] == stolen
            assert victim_summary["tasks_done"] == 8 - stolen
            assert thief.steal_outbox_depth == 0
            assert victim.exported_outstanding == 0
        finally:
            await manager.stop()
            await thief_server.stop()
            await victim_server.stop()

    run(body())
