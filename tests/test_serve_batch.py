"""Batched assignment end to end: TASK_BATCH, leases, fault paths.

Service-level: a batched pull draws exactly
``PolicyEngine.choose_many``'s without-replacement sequence with one
lease per task; the refusal reasons stay the closed ``NO_TASK`` enum.
Wire-level: a fleet pulling with ``batch=k`` completes a job exactly
once; a worker dying mid-batch — abrupt disconnect or silent stall —
gets *all* k leases requeued with zero lost or duplicated tasks; a
v2 client sending ``max_tasks`` to a server that predates the field
degrades to single-task pulls.
"""

import asyncio
import random

import pytest

from repro.core.policy_engine import PolicyEngine
from repro.grid.job import Task
from repro.serve import messages, protocol
from repro.serve.client import SchedulerClient, WorkerClient
from repro.serve.loadgen import serve_and_load
from repro.serve.server import SchedulerServer
from repro.serve.service import SchedulerService, ServiceError

from test_serve_e2e import TIMEOUT, coadd_job, raw_call, raw_connection


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_service(**kwargs):
    kwargs.setdefault("clock", FakeClock())
    return SchedulerService(**kwargs)


def submit(service, specs, job_id=None):
    return service.submit_job([{"files": files, "flops": flops}
                               for files, flops in specs],
                              job_id=job_id)


def pull_batch(service, k, worker="w0", site=0, job_id=None):
    """Synchronous request_tasks; returns the delivered list, the
    NO_TASK reason string, or "parked"."""
    box = []
    service.request_tasks(worker, site, k, box.append, job_id=job_id)
    return box[0] if box else "parked"


# -- service semantics -------------------------------------------------------

def test_batched_pull_matches_engine_choose_many():
    """The service's batch draw is exactly choose_many's sequence."""
    specs = [([1, 2], 0.0), ([2, 3], 0.0), ([3, 4], 0.0),
             ([4, 5], 0.0), ([1, 5], 0.0), ([2, 5], 0.0)]
    seed, metric, n, k = 11, "combined", 2, 4

    service = make_service(metric=metric, n=n, seed=seed)
    submit(service, specs)
    service.file_delta(0, added=[2, 5], removed=[], referenced=[])

    twin = PolicyEngine(
        {i: Task(i, frozenset(files)) for i, (files, _) in
         enumerate(specs)},
        metric=metric, n=n, rng=random.Random(seed))
    twin.attach_site(0)
    for i, (files, _) in enumerate(specs):
        twin.add_task(Task(i, frozenset(files)))
    twin.file_added(0, 2)
    twin.file_added(0, 5)

    granted = pull_batch(service, k)
    assert [a.task.task_id for a in granted] \
        == [t.task_id for t in twin.choose_many(0, k)]
    # One lease per task, all distinct, all live.
    lease_ids = [a.lease_id for a in granted]
    assert len(set(lease_ids)) == k
    assert service.active_leases == k
    assert service.outstanding == k


def test_batched_pull_grants_at_most_the_queue():
    service = make_service()
    submit(service, [([1], 0.0), ([2], 0.0), ([3], 0.0)])
    granted = pull_batch(service, 8)
    assert len(granted) == 3
    assert service.queue_depth == 0
    snap = service.stats_snapshot()
    assert snap["batches"] == {"requests": 1, "tasks": 3,
                               "sizes": {"3": 1}}


def test_batched_pull_k1_equals_single_task_path():
    """max_tasks=1 makes the same decisions as request_task."""
    specs = [([1, 2], 0.0), ([2, 3], 0.0), ([3], 0.0), ([1, 4], 0.0)]
    batched = make_service(metric="rest", n=2, seed=3)
    plain = make_service(metric="rest", n=2, seed=3)
    submit(batched, specs)
    submit(plain, specs)

    batched_order, plain_order = [], []
    for _ in specs:
        batched_order.append(pull_batch(batched, 1)[0].task.task_id)
        box = []
        plain.request_task("w0", 0, box.append)
        plain_order.append(box[0].task.task_id)
    assert batched_order == plain_order


def test_batched_refusals_use_the_closed_reason_enum():
    service = make_service()
    job_id = submit(service, [([1], 0.0)])["job_id"]
    granted = pull_batch(service, 4, job_id=job_id)
    assert len(granted) == 1
    assignment = granted[0]
    service.task_done("w0", assignment.task.task_id,
                      assignment.lease_id)
    # Job done: the batched pull is refused with the same enum value.
    reason = pull_batch(service, 4, job_id=job_id)
    assert reason == protocol.REASON_JOB_DONE
    assert reason in protocol.NO_TASK_REASONS
    # Idle and draining likewise.
    assert pull_batch(service, 4) == protocol.REASON_IDLE
    service.drain()
    assert pull_batch(service, 4) == protocol.REASON_DRAINING
    assert {protocol.REASON_IDLE, protocol.REASON_DRAINING} \
        <= protocol.NO_TASK_REASONS


def test_batched_pull_parks_until_work_arrives():
    service = make_service()
    box = []
    service.request_tasks("w0", 0, 3, box.append)
    assert box == [] and service.parked_workers == 1
    submit(service, [([1], 0.0), ([2], 0.0)])
    assert len(box) == 1 and len(box[0]) == 2


def test_request_tasks_rejects_bad_max_tasks():
    service = make_service()
    for bad in (0, -1, True, "8", 1.5):
        with pytest.raises(ServiceError):
            service.request_tasks("w0", 0, bad, lambda _: None)


def test_disconnect_mid_batch_requeues_every_unfinished_lease():
    service = make_service()
    submit(service, [([i], 0.0) for i in range(6)])
    granted = pull_batch(service, 4, worker="w0")
    assert len(granted) == 4
    # One task lands before the worker dies; the other three must all
    # come back, none twice, none lost.
    done = granted[0]
    assert service.task_done("w0", done.task.task_id,
                             done.lease_id).accepted
    assert service.disconnect("w0") == 3
    assert service.queue_depth == 2 + 3
    assert service.active_leases == 0

    seen = []
    while True:
        outcome = pull_batch(service, 4, worker="w1")
        if not isinstance(outcome, list):
            assert outcome == protocol.REASON_IDLE
            break
        for assignment in outcome:
            assert service.task_done("w1", assignment.task.task_id,
                                     assignment.lease_id).accepted
            seen.append(assignment.task.task_id)
    assert sorted(seen + [done.task.task_id]) == list(range(6))
    snap = service.stats_snapshot()
    assert snap["completions"] == 6
    assert snap["duplicate_completions"] == 0
    assert snap["stale_completions"] == 0
    assert snap["requeues"] == 3


def test_lease_expiry_mid_batch_requeues_every_lease():
    clock = FakeClock()
    service = make_service(clock=clock, lease_ttl=10.0)
    submit(service, [([i], 0.0) for i in range(5)])
    granted = pull_batch(service, 4, worker="w0")
    assert len(granted) == 4
    clock.advance(10.1)
    assert service.expire_leases() == 4
    assert service.active_leases == 0
    assert service.queue_depth == 5

    # The silent worker's late completions are all rejected.
    for assignment in granted:
        result = service.task_done("w0", assignment.task.task_id,
                                   assignment.lease_id)
        assert not result.accepted and result.reason == "stale-lease"

    rescued = pull_batch(service, 5, worker="w1")
    assert len(rescued) == 5
    for assignment in rescued:
        assert service.task_done("w1", assignment.task.task_id,
                                 assignment.lease_id).accepted
    snap = service.stats_snapshot()
    assert snap["completions"] == 5
    assert snap["duplicate_completions"] == 0
    assert snap["leases"]["expiries"] == 4
    assert snap["stale_completions"] == 4


# -- wire shape --------------------------------------------------------------

def test_task_batch_reply_shape_and_no_task_reason():
    async def scenario():
        service = SchedulerService(metric="rest", n=1)
        server = SchedulerServer(service)
        await server.start()
        try:
            async with SchedulerClient(server.host,
                                       server.port) as control:
                await control.submit([{"files": [1], "flops": 0.0},
                                      {"files": [2], "flops": 0.0}])
            reader, writer = await raw_connection(server)
            reply = await raw_call(reader, writer, messages.Hello(
                worker="z", site=0,
                protocol=protocol.PROTOCOL_VERSION))
            assert isinstance(reply, messages.Welcome)
            reply = await raw_call(reader, writer,
                                   messages.RequestTask(max_tasks=8))
            assert isinstance(reply, messages.TaskBatch)
            assert len(reply.tasks) == 2
            assignments = reply.assignments()
            assert all(isinstance(a, messages.TaskAssign)
                       for a in assignments)
            assert all(a.lease_ttl == service.lease_ttl
                       for a in assignments)
            for assignment in assignments:
                ack = await raw_call(reader, writer, messages.TaskDone(
                    task_id=assignment.task_id,
                    lease_id=assignment.lease_id))
                assert isinstance(ack, messages.Ack) and ack.accepted
            # The batched refusal still carries the closed enum.
            reply = await raw_call(reader, writer,
                                   messages.RequestTask(max_tasks=8))
            assert isinstance(reply, messages.NoTask)
            assert reply.reason in protocol.NO_TASK_REASONS
            writer.close()
        finally:
            await server.stop()

    run(scenario())


def test_e2e_batched_fleet_completes_job_exactly_once():
    job = coadd_job(60)
    report = run(serve_and_load(job, workers=4, sites=4,
                                metric="combined", n=2, seed=42,
                                capacity_files=300, batch=8))
    stats = report["stats"]
    assert report["tasks_done"] == len(job)
    assert stats["completions"] == len(job)
    assert stats["duplicate_completions"] == 0
    assert stats["stale_completions"] == 0
    assert stats["leases"]["granted"] == len(job)
    assert stats["leases"]["active"] == 0
    assert stats["batches"]["tasks"] == len(job)
    assert stats["batches"]["requests"] >= len(job) // 8
    assert sum(stats["batches"]["sizes"].values()) \
        == stats["batches"]["requests"]
    assert report["jobs"][0]["status"]["done"]


def test_e2e_abrupt_death_mid_batch_requeues_all_leases():
    async def scenario():
        service = SchedulerService(metric="rest", n=1)
        server = SchedulerServer(service)
        await server.start()
        try:
            async with SchedulerClient(server.host,
                                       server.port) as control:
                handle = await control.submit(
                    [{"files": [i], "flops": 0.0} for i in range(12)])

                reader, writer = await raw_connection(server)
                await raw_call(reader, writer, messages.Hello(
                    worker="victim", site=0,
                    protocol=protocol.PROTOCOL_VERSION))
                reply = await raw_call(reader, writer,
                                       messages.RequestTask(max_tasks=4))
                assert isinstance(reply, messages.TaskBatch)
                assert len(reply.tasks) == 4
                # Die mid-batch: close the socket with all 4 leases
                # held and nothing completed.
                writer.close()
                await writer.wait_closed()
                for _ in range(100):
                    if service.outstanding == 0:
                        break
                    await asyncio.sleep(0.01)
                assert service.outstanding == 0
                assert service.queue_depth == 12
                assert service.active_leases == 0

                rescuer = WorkerClient(server.host, server.port,
                                       worker="rescue", site=0,
                                       job_id=handle.job_id, batch=4)
                summary = await rescuer.run()
                assert summary["tasks_done"] == 12
                stats = await control.stats()
        finally:
            await server.stop()
        assert stats["completions"] == 12
        assert stats["duplicate_completions"] == 0
        assert stats["stale_completions"] == 0
        assert stats["requeues"] == 4
        assert stats["leases"]["granted"] == 16
        assert stats["leases"]["active"] == 0

    run(scenario())


def test_e2e_silent_death_mid_batch_expires_all_leases():
    async def scenario():
        service = SchedulerService(metric="rest", n=1, lease_ttl=0.3)
        server = SchedulerServer(service, sweep_interval=0.02)
        await server.start()
        try:
            async with SchedulerClient(server.host,
                                       server.port) as control:
                handle = await control.submit(
                    [{"files": [i], "flops": 0.0} for i in range(10)])

                # The zombie pulls a batch, then goes silent without
                # closing its connection (no heartbeats, no
                # completions) — only the sweeper can reclaim it.
                reader, writer = await raw_connection(server)
                await raw_call(reader, writer, messages.Hello(
                    worker="zombie", site=0,
                    protocol=protocol.PROTOCOL_VERSION))
                reply = await raw_call(reader, writer,
                                       messages.RequestTask(max_tasks=4))
                assert isinstance(reply, messages.TaskBatch)
                batch = reply.assignments()
                assert len(batch) == 4

                for _ in range(200):
                    if service.stats.lease_expiries >= 4:
                        break
                    await asyncio.sleep(0.02)
                assert service.stats.lease_expiries == 4
                assert service.queue_depth == 10

                rescuer = WorkerClient(server.host, server.port,
                                       worker="rescue", site=0,
                                       job_id=handle.job_id, batch=4)
                summary = await rescuer.run()
                assert summary["tasks_done"] == 10

                # The zombie wakes up and reports its whole batch:
                # every completion is rejected (the rescuer already
                # finished those tasks), so nothing double-counts.
                for assignment in batch:
                    ack = await raw_call(
                        reader, writer, messages.TaskDone(
                            task_id=assignment.task_id,
                            lease_id=assignment.lease_id))
                    assert isinstance(ack, messages.Ack)
                    assert not ack.accepted
                    assert ack.reason == "already-complete"
                writer.close()
                stats = await control.stats()
        finally:
            await server.stop()
        assert stats["completions"] == 10
        assert stats["duplicate_completions"] == 4
        assert stats["stale_completions"] == 0
        assert stats["leases"]["expiries"] == 4
        assert stats["leases"]["active"] == 0

    run(scenario())


# -- degrade to single task against a predating server -----------------------

class LegacyServer:
    """A v2 server from before ``max_tasks``/``TASK_BATCH`` existed.

    It decodes requests with the same unknown-field tolerance the
    typed layer has always had, so REQUEST_TASK {max_tasks: k} parses
    fine — but it only ever answers a plain single TASK.
    """

    def __init__(self, num_tasks):
        self.remaining = list(range(num_tasks))
        self.completed = []
        self.lease_seq = 0
        self.server = None

    async def start(self):
        self.server = await asyncio.start_server(
            self.handle, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()

    async def handle(self, reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            payload = protocol.decode_line(line)
            kind = payload["type"]
            if kind == protocol.HELLO:
                reply = messages.Welcome(
                    server="legacy", metric="rest", n=1,
                    protocol=protocol.PROTOCOL_VERSION,
                    lease_ttl=30.0, heartbeat_interval=10.0)
            elif kind == protocol.REQUEST_TASK:
                # A pre-batching server: 'max_tasks' is an unknown
                # field it silently ignores.
                if self.remaining:
                    task_id = self.remaining.pop(0)
                    self.lease_seq += 1
                    reply = messages.TaskAssign(
                        task_id=task_id, files=[task_id], flops=0.0,
                        lease_id=self.lease_seq, lease_ttl=30.0,
                        job_id=0)
                else:
                    reply = messages.NoTask(
                        reason=protocol.REASON_IDLE)
            elif kind == protocol.TASK_DONE:
                self.completed.append(payload["task_id"])
                reply = messages.Ack(accepted=True)
            elif kind == protocol.FILE_DELTA:
                reply = messages.Ack()
            elif kind == protocol.HEARTBEAT:
                reply = messages.HeartbeatAck(
                    renewed=payload.get("lease_ids", []), expired=[])
            else:
                reply = messages.Error(error=f"unexpected {kind}")
            writer.write(reply.encode())
            await writer.drain()
            if isinstance(reply, messages.NoTask):
                break
        writer.close()


def test_batched_client_degrades_against_legacy_server():
    """Unknown-field tolerance regression: REQUEST_TASK {max_tasks}
    against a predating server falls back to single-task pulls and
    still drains the queue exactly once."""
    async def scenario():
        legacy = LegacyServer(num_tasks=7)
        await legacy.start()
        try:
            worker = WorkerClient("127.0.0.1", legacy.port,
                                  worker="new", site=0, batch=8)
            summary = await worker.run()
        finally:
            await legacy.stop()
        assert summary["tasks_done"] == 7
        assert summary["stop_reason"] == protocol.REASON_IDLE
        # Each degraded "batch" carried exactly one task.
        assert summary["batches_pulled"] == 7
        assert sorted(legacy.completed) == list(range(7))

    run(scenario())
