"""Router, redirect handshake, redirected clients and stat aggregation.

In-process clusters: real :class:`SchedulerServer` shards (id strides
set so ``job_id % shard_count`` names the owner), a real
:class:`ClusterRouter` in front, real TCP in between.  The capstone is
the determinism pin: a one-shard cluster must make **bit-identical**
decisions — winners, lease ids, and the engine's RNG state — to a
standalone ``repro serve``.
"""

import asyncio

import pytest

from repro.cluster import ClusterRouter, ShardAddress, aggregate_stats
from repro.cluster.link import PeerLink
from repro.exp import ExperimentConfig
from repro.exp.runner import build_job
from repro.serve import messages, protocol
from repro.serve.client import SchedulerClient, WorkerClient
from repro.serve.loadgen import run_load
from repro.serve.server import SchedulerServer
from repro.serve.service import SchedulerService

TIMEOUT = 60


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


def coadd_job(num_tasks=30, seed=0):
    return build_job(ExperimentConfig(num_tasks=num_tasks,
                                      capacity_files=500, seed=seed))


async def start_cluster(shard_count=2, seed=7, upstream_codec="json"):
    """N in-process shard servers plus their router."""
    shards = []
    for index in range(shard_count):
        service = SchedulerService(
            metric="combined", n=2, seed=seed,
            name=f"shard-{index}", id_start=index,
            id_stride=shard_count)
        server = SchedulerServer(service)
        await server.start()
        shards.append((service, server))
    router = ClusterRouter(
        [ShardAddress(index, server.host, server.port)
         for index, (_service, server) in enumerate(shards)],
        upstream_codec=upstream_codec)
    await router.start()
    return router, shards


async def stop_cluster(router, shards):
    await router.stop()
    for _service, server in shards:
        await server.stop()


async def raw_router_connection(router):
    return await asyncio.open_connection(
        router.host, router.port,
        limit=protocol.MAX_MESSAGE_BYTES + 1024)


async def raw_call(reader, writer, message):
    writer.write(message.encode())
    await writer.drain()
    return messages.decode_server(await reader.readline())


# -- handshake ---------------------------------------------------------------

def test_redirect_handshake_returns_the_shard_map():
    async def scenario():
        router, shards = await start_cluster(shard_count=3)
        try:
            async with SchedulerClient(router.host,
                                       router.port) as client:
                assert client.shard_count == 3
                entries = client.shard_map()
                assert [entry["shard"] for entry in entries] == [0, 1, 2]
                for entry, (_service, server) in zip(entries, shards):
                    assert entry["port"] == server.port
            assert router.redirects_sent == 1
        finally:
            await stop_cluster(router, shards)

    run(scenario())


def test_cluster_client_degrades_against_a_plain_scheduler():
    async def scenario():
        service = SchedulerService(metric="rest", n=1)
        server = SchedulerServer(service)
        await server.start()
        try:
            async with SchedulerClient(server.host,
                                       server.port) as client:
                assert client.redirect is None
                assert client.shard_count == 1
                assert client.shard_map()[0]["port"] == server.port
                handle = await client.submit(coadd_job(5))
                assert (await handle.status())["tasks"] == 5
        finally:
            await server.stop()

    run(scenario())


def test_old_client_hello_gets_a_clean_error_and_close():
    async def scenario():
        router, shards = await start_cluster()
        try:
            reader, writer = await raw_router_connection(router)
            reply = await raw_call(reader, writer, messages.Hello(
                worker="old", site=0,
                protocol=protocol.PROTOCOL_VERSION))
            assert isinstance(reply, messages.Error)
            assert "cluster router" in reply.error
            assert "accept_redirect" in reply.error
            assert await reader.readline() == b""  # clean close
            writer.close()
            await writer.wait_closed()
            assert router.rejected_hellos == 1
        finally:
            await stop_cluster(router, shards)

    run(scenario())


def test_data_plane_messages_are_refused_by_the_router():
    async def scenario():
        router, shards = await start_cluster()
        try:
            reader, writer = await raw_router_connection(router)
            reply = await raw_call(reader, writer, messages.Hello(
                worker="w0", site=0,
                protocol=protocol.PROTOCOL_VERSION,
                accept_redirect=True))
            assert isinstance(reply, messages.Redirect)
            reply = await raw_call(reader, writer,
                                   messages.RequestTask())
            assert isinstance(reply, messages.Error)
            assert "data-plane" in reply.error
            writer.close()
            await writer.wait_closed()
        finally:
            await stop_cluster(router, shards)

    run(scenario())


# -- routing -----------------------------------------------------------------

def test_submits_land_on_the_shard_owning_the_job_id():
    async def scenario():
        router, shards = await start_cluster(shard_count=2)
        try:
            async with SchedulerClient(router.host,
                                       router.port) as client:
                first = await client.submit(coadd_job(6, seed=1))
                second = await client.submit(coadd_job(8, seed=2))
                third = await client.submit(coadd_job(4, seed=3))
            # Round-robin placement + strided id allocation: each
            # job id is congruent to its shard index.
            assert [first.job_id, second.job_id, third.job_id] \
                == [0, 1, 2]
            assert all(task_id % 2 == 0 for task_id in first.task_ids)
            assert all(task_id % 2 == 1 for task_id in second.task_ids)
            shard0, shard1 = shards[0][0], shards[1][0]
            assert sorted(job["job_id"]
                          for job in shard0.jobs_overview()) == [0, 2]
            assert sorted(job["job_id"]
                          for job in shard1.jobs_overview()) == [1]
        finally:
            await stop_cluster(router, shards)

    run(scenario())


def test_job_status_is_forwarded_to_the_owning_shard():
    async def scenario():
        router, shards = await start_cluster(shard_count=2)
        try:
            async with SchedulerClient(router.host,
                                       router.port) as client:
                handles = [await client.submit(coadd_job(6, seed=n))
                           for n in range(2)]
                for handle in handles:
                    status = await handle.status()
                    assert status["job_id"] == handle.job_id
                    assert status["tasks"] == 6
        finally:
            await stop_cluster(router, shards)

    run(scenario())


def test_stats_request_returns_the_aggregated_cluster_view():
    async def scenario():
        router, shards = await start_cluster(shard_count=2)
        try:
            async with SchedulerClient(router.host,
                                       router.port) as client:
                await client.submit(coadd_job(6, seed=1))
                await client.submit(coadd_job(8, seed=2))
                stats = await client.stats()
            assert stats["tasks_submitted"] == 14
            assert stats["cluster"] == {"shard_count": 2,
                                        "shards_reporting": 2}
            assert set(stats["shards"]) == {"0", "1"}
            assert stats["shards"]["0"]["tasks_submitted"] == 6
            assert stats["shards"]["1"]["tasks_submitted"] == 8
        finally:
            await stop_cluster(router, shards)

    run(scenario())


def test_aggregate_stats_marks_unreachable_shards():
    merged = aggregate_stats(
        [(0, {"tasks_submitted": 5, "completions": 2,
              "uptime_s": 9.0}),
         (1, None)],
        shard_count=2)
    assert merged["tasks_submitted"] == 5
    assert merged["cluster"] == {"shard_count": 2,
                                 "shards_reporting": 1}
    assert merged["shards"]["1"] == {"error": "shard unreachable"}


def test_router_rides_out_a_shard_moving_ports():
    """A forwarded call retries inside the window while the supervisor
    restarts the shard at a new address."""
    async def scenario():
        router, shards = await start_cluster(shard_count=2)
        service0, server0 = shards[0]
        try:
            async with SchedulerClient(router.host,
                                       router.port) as client:
                handle = await client.submit(coadd_job(6, seed=1))
                assert handle.job_id == 0
                await server0.stop()  # the shard "crashes"

                async def revive():
                    await asyncio.sleep(0.3)
                    new_server = SchedulerServer(service0)
                    await new_server.start()
                    router.update_shard(ShardAddress(
                        0, new_server.host, new_server.port))
                    return new_server

                revive_task = asyncio.ensure_future(revive())
                status = await handle.status()  # spans the outage
                shards[0] = (service0, await revive_task)
                assert status["tasks"] == 6
        finally:
            await stop_cluster(router, shards)

    run(scenario())


# -- the peer link -----------------------------------------------------------

@pytest.mark.parametrize("codec", ["json", "binary"])
def test_peer_link_returns_an_error_reply_verbatim(codec):
    """A forwarder passes refusals on: ERROR is a reply, not an
    exception, and the stream stays in step behind it."""
    async def scenario():
        server = SchedulerServer(SchedulerService())
        await server.start()
        link = PeerLink(ShardAddress(0, server.host, server.port),
                        retry_window=0.0, codec=codec)
        try:
            reply = await link.call(messages.JobStatusRequest(job_id=9))
            assert isinstance(reply, messages.Error)
            assert "9" in reply.error
            reply = await link.call(messages.StatsRequest())
            assert isinstance(reply, messages.StatsReply)
        finally:
            await link.close()
            await server.stop()

    run(scenario())


def test_peer_link_replace_mid_retry_lands_on_the_new_port():
    async def scenario():
        dead = SchedulerServer(SchedulerService())
        await dead.start()
        await dead.stop()  # a port nobody listens on any more
        link = PeerLink(ShardAddress(0, dead.host, dead.port),
                        retry_window=10.0)
        calling = asyncio.ensure_future(
            link.call(messages.StatsRequest()))
        await asyncio.sleep(0.1)
        assert not calling.done()  # still retrying the dead port
        server = SchedulerServer(SchedulerService(name="restarted"))
        await server.start()
        try:
            link.replace(ShardAddress(0, server.host, server.port))
            reply = await calling
            assert isinstance(reply, messages.StatsReply)
            assert link.address.port == server.port
        finally:
            await link.close()
            await server.stop()

    run(scenario())


def test_peer_link_without_a_window_raises_after_one_attempt():
    async def scenario():
        attempts = []

        async def hang_up(_reader, writer):
            attempts.append(writer)
            writer.close()

        listener = await asyncio.start_server(hang_up, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        link = PeerLink(ShardAddress(3, "127.0.0.1", port),
                        retry_window=0.0)
        try:
            with pytest.raises(ConnectionError, match="shard 3"):
                await link.call(messages.StatsRequest())
            assert len(attempts) == 1
        finally:
            await link.close()
            listener.close()
            await listener.wait_closed()

    run(scenario())


# -- cluster load + workers --------------------------------------------------

def test_cluster_load_completes_jobs_across_two_shards():
    async def scenario():
        router, shards = await start_cluster(shard_count=2)
        try:
            report = await run_load(
                router.host, router.port,
                [coadd_job(12, seed=1), coadd_job(14, seed=2)],
                workers=4, sites=2, capacity_files=400)
            assert report["shard_count"] == 2
            assert report["tasks_submitted"] == 26
            assert report["tasks_done"] == 26
            assert all(job["status"]["done"] for job in report["jobs"])
            assert report["stats"]["completions"] == 26
            # Each worker pulled from the shard owning its job.
            for summary in report["workers"]:
                assert summary["shard"] == summary["job_id"] % 2
                assert summary["stop_reason"] == "job-done"
            for service, _server in shards:
                assert service.draining
        finally:
            await stop_cluster(router, shards)

    run(scenario())


def test_cluster_load_runs_end_to_end_on_the_binary_codec():
    """``--codec binary`` cluster-wide: workers negotiate binary
    framing with their shards, the router upgrades its own upstream
    streams, and the run still completes with correct totals."""
    async def scenario():
        router, shards = await start_cluster(shard_count=2,
                                             upstream_codec="binary")
        try:
            report = await run_load(
                router.host, router.port,
                [coadd_job(10, seed=1), coadd_job(12, seed=2)],
                workers=4, sites=2, capacity_files=400, batch=4,
                codec="binary")
            assert report["codec"] == "binary"
            assert report["tasks_done"] == 22
            assert all(job["status"]["done"] for job in report["jobs"])
            for summary in report["workers"]:
                assert summary["codec"] == protocol.CODEC_BINARY
                assert summary["stop_reason"] == "job-done"
        finally:
            await stop_cluster(router, shards)

    run(scenario())


def test_cluster_worker_requires_a_job_scope():
    """A multi-shard REDIRECT needs something to pick the shard by."""
    async def scenario():
        router, shards = await start_cluster(shard_count=2)
        try:
            await WorkerClient(router.host, router.port).run()
        except ValueError as exc:
            assert "job_id" in str(exc)
        else:  # pragma: no cover - the guard must fire
            raise AssertionError("scope-less worker picked a shard")
        finally:
            await stop_cluster(router, shards)

    run(scenario())
    try:
        WorkerClient("127.0.0.1", 1, job_id=3, shard=1)
    except ValueError as exc:
        assert "mutually exclusive" in str(exc)
    else:  # pragma: no cover - the guard must fire
        raise AssertionError("job_id and shard were both accepted")


class DyingScheduler:
    """A plain scheduler that leases one task and then dies: counts
    connections, keeps every HELLO payload it was sent."""

    def __init__(self):
        self.connections = 0
        self.hellos = []
        self.port = None
        self._server = None

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        self.connections += 1
        self.hellos.append(protocol.decode_line(await reader.readline()))
        writer.write(messages.Welcome(
            server="plain", metric="rest", n=1,
            protocol=protocol.PROTOCOL_VERSION, lease_ttl=30.0,
            heartbeat_interval=10.0).encode())
        await reader.readline()  # REQUEST_TASK
        writer.write(messages.TaskAssign(
            task_id=0, files=[1, 2], flops=0.0, lease_id=1,
            lease_ttl=30.0, job_id=0).encode())
        await writer.drain()
        writer.close()  # kill -9, as far as the worker can tell


def test_worker_at_a_plain_server_uses_one_connection_and_fails_fast():
    """WELCOME means: this socket is the scheduler.  No resolve hop,
    and losing it raises at once — there is no router to ask again,
    so the resume window never starts."""
    async def scenario():
        server = DyingScheduler()
        await server.start()
        worker = WorkerClient("127.0.0.1", server.port, worker="solo",
                              site=2, codec="json")
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            await worker.run()
        except ConnectionError:
            elapsed = loop.time() - started
        else:  # pragma: no cover - the server died mid-lease
            raise AssertionError("worker survived its only server")
        finally:
            await server.stop()
        assert elapsed < 5.0
        assert server.connections == 1
        assert worker.reconnects == 0
        # The only wire difference to a pre-cluster worker's HELLO.
        assert server.hellos == [{
            "type": "HELLO", "worker": "solo", "site": 2,
            "protocol": protocol.PROTOCOL_VERSION,
            "accept_redirect": True,
            "codecs": list(protocol.codec_offers("json"))}]

    run(scenario())


def test_one_worker_object_keeps_cache_and_counters_across_reconnect():
    """A forced reconnect re-resolves through the router and resumes
    on the SAME object: one residency mirror (no file is fetched
    twice), one set of counters."""
    job = coadd_job(12, seed=4)
    distinct_files = {fid for task in job for fid in task.files}

    async def scenario():
        router, shards = await start_cluster(shard_count=1)
        service, server = shards[0]
        service.lease_ttl = 0.3
        try:
            async with SchedulerClient(router.host,
                                       router.port) as client:
                handle = await client.submit(job)
                worker = WorkerClient(
                    router.host, router.port, job_id=handle.job_id,
                    capacity_files=len(distinct_files) + 1,
                    seconds_per_file=0.002)
                cache = worker.cache
                running = asyncio.ensure_future(worker.run())
                while service.stats.completions < 3:
                    await asyncio.sleep(0.005)
                await server.stop()  # the shard "crashes" mid-lease
                done_before = worker.tasks_done
                revived = SchedulerServer(service)
                await revived.start()
                shards[0] = (service, revived)
                router.update_shard(ShardAddress(
                    0, revived.host, revived.port))
                summary = await running
                status = await handle.status()
            assert status["done"] and status["completed"] == 12
            assert summary["reconnects"] >= 1
            assert summary["shard"] == 0
            assert summary["stop_reason"] == "job-done"
            assert worker.cache is cache
            assert 3 <= done_before <= summary["tasks_done"]
            # The server's count above is the truth.  The shard was
            # stopped mid-lease, so a TASK_DONE it applied may never
            # have been acked: the worker's own tally can trail by the
            # ack in flight at the crash — one, a burst carries one
            # completion at batch=1 (cf. the audit in serve/loadgen.py).
            assert (summary["tasks_done"]
                    + summary["rejected_completions"]) >= 12 - 1
            # Continuity: every distinct file crossed the wire once,
            # before or after the crash, never both.
            assert summary["files_fetched"] == len(distinct_files)
        finally:
            await stop_cluster(router, shards)

    run(scenario())


def test_a_multi_site_fleet_follows_a_one_shard_router():
    async def scenario():
        router, shards = await start_cluster(shard_count=1)
        try:
            report = await run_load(
                router.host, router.port, [coadd_job(16, seed=2)],
                workers=4, sites=2, capacity_files=400)
            assert report["tasks_done"] == 16
            assert report["audit"]["clean"]
            assert [worker["shard"] for worker in report["workers"]] \
                == [0, 0, 0, 0]
        finally:
            await stop_cluster(router, shards)

    run(scenario())


# -- the determinism pin -----------------------------------------------------

def decision_stream(service):
    """The schedule as the service's event log recorded it."""
    return [(record["event"], record.get("task_id"),
             record.get("worker"), record.get("site"),
             record.get("lease_id"), record.get("job_id"))
            for record in service.events.tail()
            if record["event"] in ("submit", "assign", "complete")]


def test_single_shard_cluster_is_bit_identical_to_standalone():
    """One shard behind the router == ``repro serve``: same winners,
    same lease ids, same RNG state afterwards.  This is the guarantee
    that clustering is purely an availability feature."""
    from repro.obs.events import EventLog

    job = coadd_job(24, seed=5)

    async def standalone():
        service = SchedulerService(metric="combined", n=2, seed=13)
        service.events = EventLog()
        server = SchedulerServer(service)
        await server.start()
        try:
            report = await run_load(server.host, server.port, [job],
                                    workers=1, sites=1,
                                    capacity_files=400, drain=False)
            assert report["tasks_done"] == 24
        finally:
            await server.stop()
        return service

    async def clustered():
        router, shards = await start_cluster(shard_count=1, seed=13)
        service = shards[0][0]
        service.events = EventLog()
        try:
            report = await run_load(
                router.host, router.port, [job], workers=1, sites=1,
                capacity_files=400, drain=False)
            assert report["tasks_done"] == 24
            assert report["reconnects"] == 0
        finally:
            await stop_cluster(router, shards)
        return service

    standalone_service = run(standalone())
    clustered_service = run(clustered())
    assert decision_stream(clustered_service) \
        == decision_stream(standalone_service)
    assert clustered_service.export_state() \
        == standalone_service.export_state()
    assert (clustered_service.engine.rng.getstate()
            == standalone_service.engine.rng.getstate())
