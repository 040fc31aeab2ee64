"""End-to-end: live server + worker fleet over localhost TCP.

The deterministic smoke tests of PR 1 (start the daemon, run a small
fixed-seed Coadd-style job through real socket workers, assert
exactly-once completion and a clean drain) plus the protocol-v2
fault-tolerance proofs: version negotiation, lease expiry for a worker
that goes silent mid-task, rejection of a zombie's late completion,
and multi-job tenancy.  Every asyncio entry point is wrapped in a hard
timeout so a deadlock can never hang CI.
"""

import asyncio

import pytest

from repro.exp import ExperimentConfig
from repro.exp.runner import build_job
from repro.serve import messages, protocol
from repro.serve.client import SchedulerClient, WorkerClient
from repro.serve.loadgen import run_load, serve_and_load
from repro.serve.server import SchedulerServer
from repro.serve.service import SchedulerService

#: Hard wall-clock cap per test; localhost runs finish in well under 5 s.
TIMEOUT = 60


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


def coadd_job(num_tasks=60, seed=0):
    return build_job(ExperimentConfig(num_tasks=num_tasks,
                                      capacity_files=500, seed=seed))


async def raw_connection(server):
    """A raw v2 connection for crafting protocol-level scenarios."""
    return await asyncio.open_connection(
        server.host, server.port,
        limit=protocol.MAX_MESSAGE_BYTES + 1024)


async def raw_call(reader, writer, message):
    writer.write(message.encode())
    await writer.drain()
    return messages.decode_server(await reader.readline())


def test_four_workers_complete_a_coadd_job_and_drain():
    job = coadd_job(60)
    report = run(serve_and_load(job, workers=4, sites=4,
                                metric="combined", n=2, seed=42,
                                capacity_files=300))
    stats = report["stats"]
    # Exactly-once completion, across the fleet and on the server.
    assert report["tasks_submitted"] == len(job)
    assert report["tasks_done"] == len(job)
    assert stats["completions"] == len(job)
    assert stats["duplicate_completions"] == 0
    assert stats["stale_completions"] == 0
    assert stats["queue_depth"] == 0
    assert stats["outstanding"] == 0
    # Lease bookkeeping: one grant per assignment, none left behind.
    assert stats["leases"]["granted"] == len(job)
    assert stats["leases"]["active"] == 0
    assert stats["leases"]["expiries"] == 0
    # Tenancy: one job, completed.
    assert report["jobs"][0]["status"]["done"]
    assert stats["jobs_completed"] == 1
    # Observability surfaced something sane.
    assert stats["assignments"] == len(job)
    assert stats["decision_latency"]["count"] == len(job)
    assert stats["decision_latency"]["p99_us"] > 0
    assert set(stats["sites"]) == {"0", "1", "2", "3"}
    # serve_and_load only returns after serve_until_drained finished,
    # so reaching this point *is* the clean-drain assertion; the
    # workers' stop reasons double-check why they exited.
    assert {worker["stop_reason"] for worker in report["workers"]} \
        == {protocol.REASON_JOB_DONE}


def test_e2e_is_deterministic_for_single_worker():
    """One worker, n=1: the assignment order is a pure function of the
    seed, so two runs complete identical task counts with identical
    file-fetch totals."""
    reports = [
        run(serve_and_load(coadd_job(30, seed=7), workers=1, sites=1,
                           metric="rest", n=1, seed=7,
                           capacity_files=300))
        for _ in range(2)
    ]
    assert reports[0]["tasks_done"] == 30
    assert reports[0]["files_fetched"] == reports[1]["files_fetched"]
    assert (reports[0]["stats"]["sites"]
            == reports[1]["stats"]["sites"])


def test_malformed_messages_get_error_replies():
    async def scenario():
        service = SchedulerService()
        server = SchedulerServer(service)
        await server.start()
        try:
            reader, writer = await raw_connection(server)
            # REQUEST_TASK before HELLO is a semantic error: the
            # stream is still parseable, so the connection survives.
            reply = await raw_call(reader, writer,
                                   messages.RequestTask())
            assert isinstance(reply, messages.Error)
            # Bad JSON is a framing error: final ERROR, then close
            # (v3 semantics — the codec cannot trust the stream).
            writer.write(b"nonsense\n")
            await writer.drain()
            reply = messages.decode_server(await reader.readline())
            assert isinstance(reply, messages.Error)
            assert await reader.readline() == b""
            writer.close()
            await writer.wait_closed()
            # An unknown message type also closes: the codec cannot
            # lift the payload into a typed message.
            reader, writer = await raw_connection(server)
            writer.write(protocol.encode_line({"type": "FROBNICATE"}))
            await writer.drain()
            reply = messages.decode_server(await reader.readline())
            assert isinstance(reply, messages.Error)
            assert await reader.readline() == b""
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()

    run(scenario())


def test_v1_hello_is_refused_cleanly():
    """Version negotiation: a v1 client (no ``protocol`` field) gets a
    clean ERROR naming the supported version, then a clean close —
    not a crash, not a hang."""
    async def scenario():
        service = SchedulerService()
        server = SchedulerServer(service)
        await server.start()
        try:
            reader, writer = await raw_connection(server)
            writer.write(protocol.encode_line(
                {"type": protocol.HELLO, "worker": "old", "site": 0}))
            await writer.drain()
            reply = messages.decode_server(await reader.readline())
            assert isinstance(reply, messages.Error)
            assert "protocol version 1" in reply.error
            assert protocol.SUPPORTED_PROTOCOLS_TEXT in reply.error
            # The server closes its side after the refusal.
            assert await reader.readline() == b""
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()
        # The refused connection left no state behind.
        assert service.stats_snapshot()["assignments"] == 0

    run(scenario())


def test_run_load_against_external_server_and_drain():
    """run_load drives an already-running server and DRAIN stops it."""
    async def scenario():
        service = SchedulerService(metric="rest", n=1, seed=3)
        server = SchedulerServer(service)
        await server.start()
        serve_task = asyncio.ensure_future(server.serve_until_drained())
        report = await run_load(server.host, server.port, [coadd_job(20)],
                                workers=2, sites=2, capacity_files=300,
                                drain=True)
        await serve_task  # returns only on a clean drain
        assert report["tasks_done"] == 20
        assert service.draining
        return report

    run(scenario())


def test_stats_and_job_status_midstream():
    async def scenario():
        service = SchedulerService()
        server = SchedulerServer(service)
        await server.start()
        try:
            async with SchedulerClient(server.host,
                                       server.port) as control:
                handle = await control.submit(coadd_job(10))
                stats = await control.stats()
                assert stats["tasks_submitted"] == 10
                assert stats["queue_depth"] == 10
                assert stats["assignments"] == 0
                assert stats["jobs_active"] == 1
                status = await handle.status()
                assert status["tasks"] == 10
                assert status["pending"] == 10
                assert not status["done"]
        finally:
            await server.stop()

    run(scenario())


def test_dead_worker_lease_expires_task_requeues_zombie_rejected():
    """The ISSUE's fault-tolerance proof: a worker that goes silent
    holding a lease loses it within ~2 heartbeat intervals, its task
    is reassigned and completed elsewhere, and the zombie's late
    TASK_DONE is rejected without corrupting the counters."""
    lease_ttl = 0.3
    num_tasks = 6

    async def scenario():
        service = SchedulerService(metric="rest", n=1, seed=0,
                                   lease_ttl=lease_ttl)
        server = SchedulerServer(service, sweep_interval=0.02)
        await server.start()
        try:
            async with SchedulerClient(server.host,
                                       server.port) as control:
                handle = await control.submit(
                    [{"files": [fid], "flops": 0.0}
                     for fid in range(num_tasks)])

                # The doomed worker grabs one task... then goes silent
                # (no heartbeat, no completion) — a kill -9 whose TCP
                # teardown the server never saw.
                reader, writer = await raw_connection(server)
                welcome = await raw_call(
                    reader, writer,
                    messages.Hello(worker="zombie", site=0,
                                   protocol=protocol.PROTOCOL_VERSION))
                assert isinstance(welcome, messages.Welcome)
                assert welcome.lease_ttl == pytest.approx(lease_ttl)
                grabbed = await raw_call(reader, writer,
                                         messages.RequestTask(
                                             job_id=handle.job_id))
                assert isinstance(grabbed, messages.TaskAssign)

                # A healthy worker on another site finishes the job:
                # it drains the other five tasks, parks while the
                # zombie's lease is live, and picks up the requeued
                # task once the sweeper expires it.
                healthy = WorkerClient(server.host, server.port,
                                       worker="healthy", site=1,
                                       job_id=handle.job_id)
                summary = await healthy.run()
                assert summary["tasks_done"] == num_tasks
                assert summary["stop_reason"] \
                    == protocol.REASON_JOB_DONE

                status = await handle.wait_done()
                assert status["completed"] == num_tasks

                # The zombie wakes up and reports its long-lost task.
                late = await raw_call(
                    reader, writer,
                    messages.TaskDone(task_id=grabbed.task_id,
                                      lease_id=grabbed.lease_id))
                assert isinstance(late, messages.Ack)
                assert not late.accepted
                assert late.reason == "already-complete"
                writer.close()
                await writer.wait_closed()

                stats = await control.stats()
                # Zero lost, zero double-counted.
                assert stats["completions"] == num_tasks
                assert stats["duplicate_completions"] == 1
                assert stats["leases"]["expiries"] == 1
                assert stats["requeues"] == 1
                assert stats["leases"]["active"] == 0
                await control.drain()
        finally:
            await server.stop()

    run(scenario())


def test_reassignment_happens_within_two_heartbeat_intervals():
    """Timing half of the acceptance criterion: from the moment the
    lease *can* expire, the requeue lands within two heartbeat
    intervals (heartbeat interval = ttl/3, sweeper period well under
    it)."""
    lease_ttl = 0.3

    async def scenario():
        service = SchedulerService(metric="rest", n=1, seed=0,
                                   lease_ttl=lease_ttl)
        server = SchedulerServer(service, sweep_interval=0.02)
        await server.start()
        try:
            async with SchedulerClient(server.host,
                                       server.port) as control:
                handle = await control.submit([{"files": [1]}])
                reader, writer = await raw_connection(server)
                await raw_call(reader, writer,
                               messages.Hello(
                                   worker="doomed", site=0,
                                   protocol=protocol.PROTOCOL_VERSION))
                grabbed = await raw_call(reader, writer,
                                         messages.RequestTask())
                assert isinstance(grabbed, messages.TaskAssign)
                loop = asyncio.get_running_loop()
                granted_at = loop.time()

                # Park a healthy pull; it resolves when the sweeper
                # requeues the zombie's task.
                healthy = SchedulerClient(server.host, server.port,
                                          name="healthy", site=1)
                async with healthy:
                    reply = await asyncio.wait_for(
                        healthy.call(messages.RequestTask(
                            job_id=handle.job_id)),
                        timeout=TIMEOUT)
                    reassigned_at = loop.time()
                    assert isinstance(reply, messages.TaskAssign)
                    assert reply.task_id == grabbed.task_id
                    assert reply.lease_id != grabbed.lease_id
                    waited_past_ttl = (reassigned_at - granted_at
                                       - lease_ttl)
                    two_heartbeats = 2 * (lease_ttl / 3.0)
                    assert waited_past_ttl < two_heartbeats
                    done = await healthy.call(messages.TaskDone(
                        task_id=reply.task_id,
                        lease_id=reply.lease_id))
                    assert done.accepted
                writer.close()
                await writer.wait_closed()
                await control.drain()
        finally:
            await server.stop()

    run(scenario())


def test_heartbeats_keep_a_slow_worker_alive():
    """A worker slower than the lease TTL survives via renewal: its
    simulated compute outlasts the TTL, but heartbeats at the
    advertised cadence keep the lease fresh and the completion is
    accepted — no spurious requeue, no stale rejection."""
    lease_ttl = 0.3

    async def scenario():
        service = SchedulerService(metric="rest", n=1, seed=0,
                                   lease_ttl=lease_ttl)
        server = SchedulerServer(service, sweep_interval=0.02)
        await server.start()
        try:
            async with SchedulerClient(server.host,
                                       server.port) as control:
                await control.submit([{"files": [1], "flops": 1.0}])
                # flops=1.0 at 1.25 flops/s -> 0.8 s of "compute",
                # well past the 0.3 s TTL.
                worker = WorkerClient(server.host, server.port,
                                      worker="slow", site=0,
                                      flops_per_sec=1.25)
                summary = await worker.run()
                assert summary["tasks_done"] == 1
                assert summary["rejected_completions"] == 0
                assert summary["heartbeats_sent"] >= 2
                stats = await control.stats()
                assert stats["completions"] == 1
                assert stats["leases"]["expiries"] == 0
                assert stats["leases"]["renewals"] >= 2
                await control.drain()
        finally:
            await server.stop()

    run(scenario())


def test_two_tenants_share_one_server():
    """Multi-job tenancy over real sockets: two jobs, two scoped
    fleets; each fleet stops on *its* job's completion and the
    per-job counters never mix."""
    async def scenario():
        service = SchedulerService(metric="rest", n=1, seed=0)
        server = SchedulerServer(service)
        await server.start()
        try:
            async with SchedulerClient(server.host, server.port,
                                       name="tenant-a") as tenant_a, \
                    SchedulerClient(server.host, server.port,
                                    name="tenant-b") as tenant_b:
                job_a = await tenant_a.submit(
                    [{"files": [fid]} for fid in range(8)])
                job_b = await tenant_b.submit(
                    [{"files": [100 + fid]} for fid in range(5)])
                assert job_a.job_id != job_b.job_id

                fleet = [WorkerClient(server.host, server.port,
                                      worker=f"a{i}", site=i % 2,
                                      job_id=job_a.job_id)
                         for i in range(2)]
                fleet += [WorkerClient(server.host, server.port,
                                       worker=f"b{i}", site=i % 2,
                                       job_id=job_b.job_id)
                          for i in range(2)]
                summaries = await asyncio.gather(
                    *(worker.run() for worker in fleet))

                status_a = await job_a.wait_done()
                status_b = await job_b.wait_done()
                assert status_a["tasks"] == 8
                assert status_b["tasks"] == 5
                done_a = sum(s["tasks_done"] for s in summaries
                             if s["job_id"] == job_a.job_id)
                done_b = sum(s["tasks_done"] for s in summaries
                             if s["job_id"] == job_b.job_id)
                assert done_a == 8 and done_b == 5
                assert {s["stop_reason"] for s in summaries} \
                    == {protocol.REASON_JOB_DONE}
                stats = await tenant_a.stats()
                assert stats["completions"] == 13
                assert stats["jobs_completed"] == 2
                await tenant_a.drain()
        finally:
            await server.stop()

    run(scenario())
