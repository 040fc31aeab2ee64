"""Wire-level containment, stated once, for every front end.

A scheduler and a cluster router run the same connection loop
(:class:`repro.serve.server.FrontEnd`), so a clumsy or hostile peer
must be contained identically by both: framing errors answer one
final ``ERROR`` and close, semantic errors answer ``ERROR`` on a
connection that stays open, and ``HELLO`` is said once.  The
``front_end`` fixture deploys each shape — a plain scheduler, and a
router with a JSON and with a binary upstream link — and every case
below runs against all three.
"""

import asyncio
import contextlib
import functools
import gc

import pytest

from repro.cluster import ClusterRouter, ShardAddress
from repro.serve import messages, protocol
from repro.serve.codec import make_codec
from repro.serve.server import SchedulerServer
from repro.serve.service import SchedulerService

TIMEOUT = 60


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


class Deployed:
    """One front end under test plus the scheduler behind it."""

    def __init__(self, front, server):
        self.front = front
        #: Where a worker pulls: the scheduler itself, or the shard a
        #: router's REDIRECT names.
        self.server = server
        self.service = server.service
        self.unhandled = []

    async def connect(self, at=None):
        at = at or self.front
        return await asyncio.open_connection(
            at.host, at.port, limit=protocol.MAX_MESSAGE_BYTES + 1024)


@contextlib.asynccontextmanager
async def deployed(kind):
    server = SchedulerServer(SchedulerService(name="shard-0"))
    await server.start()
    front = server
    if kind != "scheduler":
        front = ClusterRouter(
            [ShardAddress(0, server.host, server.port)],
            upstream_codec=kind.split("-")[1])
        await front.start()
    deployment = Deployed(front, server)
    # A handler task that dies of an unhandled exception is a
    # containment failure even when the test's own socket looks fine.
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: deployment.unhandled.append(context))
    try:
        yield deployment
    finally:
        if front is not server:
            await front.stop()
        await server.stop()
        gc.collect()  # "Task exception was never retrieved" fires here
        assert deployment.unhandled == []


@pytest.fixture(params=["scheduler", "router-json", "router-binary"])
def front_end(request):
    """``async with front_end() as deployment`` — the shape under test."""
    return functools.partial(deployed, request.param)


def hello(**extra):
    return protocol.encode_line(dict(
        {"type": protocol.HELLO, "worker": "probe", "site": 0,
         "protocol": protocol.PROTOCOL_VERSION, "accept_redirect": True},
        **extra))


async def call_line(reader, writer, line):
    writer.write(line)
    await writer.drain()
    return messages.decode_server(await reader.readline())


async def expect_final_error(reader, writer, sent):
    """``sent`` must be answered by exactly one ERROR, then EOF."""
    reply = await call_line(reader, writer, sent)
    assert isinstance(reply, messages.Error), reply
    assert await reader.readline() == b""
    writer.close()
    await writer.wait_closed()
    return reply


# -- framing errors: one final ERROR, then close -----------------------------

def test_malformed_json_gets_one_final_error(front_end):
    async def scenario():
        async with front_end() as deployment:
            reader, writer = await deployment.connect()
            # A well-framed message the front end refuses (a pull
            # before HELLO, or data-plane traffic at a router) is a
            # semantic error: the connection survives it.
            reply = await call_line(reader, writer,
                                    messages.RequestTask().encode())
            assert isinstance(reply, messages.Error)
            await expect_final_error(reader, writer, b"nonsense\n")

    run(scenario())


def test_unknown_type_gets_one_final_error(front_end):
    async def scenario():
        async with front_end() as deployment:
            reader, writer = await deployment.connect()
            reply = await expect_final_error(
                reader, writer,
                protocol.encode_line({"type": "FROBNICATE"}))
            assert "FROBNICATE" in reply.error

    run(scenario())


def test_oversized_line_gets_one_final_error(front_end):
    async def scenario():
        async with front_end() as deployment:
            reader, writer = await deployment.connect()
            # One byte over the cap and no newline: the codec gives up
            # on the byte that crosses it, with nothing left unread.
            reply = await expect_final_error(
                reader, writer,
                b"x" * (protocol.MAX_MESSAGE_BYTES + 1))
            assert "exceeds" in reply.error

    run(scenario())


def test_bad_magic_after_a_binary_switch_gets_one_final_error(front_end):
    async def scenario():
        async with front_end() as deployment:
            reader, writer = await deployment.connect()
            greeting = await call_line(
                reader, writer, hello(codecs=[protocol.CODEC_BINARY]))
            assert greeting.codec == protocol.CODEC_BINARY
            writer.write(b"\x00" * 8)  # a frame header, magic 0x0000
            await writer.drain()
            replies = make_codec(protocol.CODEC_BINARY,
                                 decodes="server").feed(
                await reader.read())  # to EOF: the close is the point
            assert len(replies) == 1
            assert isinstance(replies[0], messages.Error)
            assert "magic" in replies[0].error
            writer.close()
            await writer.wait_closed()

    run(scenario())


# -- negotiation -------------------------------------------------------------

def test_v1_hello_is_refused_with_the_supported_range(front_end):
    async def scenario():
        async with front_end() as deployment:
            reader, writer = await deployment.connect()
            reply = await expect_final_error(
                reader, writer, protocol.encode_line(
                    {"type": protocol.HELLO, "worker": "old",
                     "site": 0}))
            assert "protocol version 1" in reply.error
            assert protocol.SUPPORTED_PROTOCOLS_TEXT in reply.error

    run(scenario())


def test_v2_hello_is_refused_like_v1(front_end):
    """Protocol 2 is not a generation any more: the same final ERROR
    a v1 client gets, from the scheduler and the router alike."""
    async def scenario():
        async with front_end() as deployment:
            reader, writer = await deployment.connect()
            reply = await expect_final_error(
                reader, writer, hello(protocol=2))
            assert "protocol version 2" in reply.error
            assert protocol.SUPPORTED_PROTOCOLS_TEXT in reply.error

    run(scenario())


def test_pipelining_across_negotiation_is_refused(front_end):
    async def scenario():
        async with front_end() as deployment:
            reader, writer = await deployment.connect()
            writer.write(hello(codecs=[protocol.CODEC_BINARY])
                         + messages.StatsRequest().encode())
            await writer.drain()
            replies = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                replies.append(protocol.decode_line(line))
            writer.close()
            await writer.wait_closed()
            assert replies[0]["type"] in (protocol.WELCOME,
                                          protocol.REDIRECT)
            assert replies[-1]["type"] == protocol.ERROR
            assert "pipelined" in replies[-1]["error"]

    run(scenario())


def test_a_second_hello_is_refused_and_requeues_under_the_first_key(
        front_end):
    """A repeated HELLO used to re-key the connection, so the close
    looked up the wrong worker: leased tasks stayed outstanding until
    the lease TTL and the first key's bookkeeping leaked."""
    async def scenario():
        async with front_end() as deployment:
            # At the front end's own door.
            reader, writer = await deployment.connect()
            greeting = await call_line(reader, writer, hello())
            assert isinstance(greeting, (messages.Welcome,
                                         messages.Redirect))
            reply = await expect_final_error(reader, writer, hello())
            assert "already" in reply.error
            # And where the leases live: the scheduler itself, or the
            # shard the router redirects workers to.
            service = deployment.service
            service.submit_job([{"files": [1, 2], "flops": 0.0}])
            reader, writer = await deployment.connect(deployment.server)
            await call_line(reader, writer, hello())
            assigned = await call_line(reader, writer,
                                       messages.RequestTask().encode())
            assert isinstance(assigned, messages.TaskAssign)
            assert (service.queue_depth, service.outstanding) == (0, 1)
            await expect_final_error(reader, writer,
                                     hello(worker="again"))
            while service.outstanding:  # the handler's finally block
                await asyncio.sleep(0.005)
            assert (service.queue_depth, service.outstanding) == (1, 0)
            assert service.stats.requeues == 1

    run(scenario())


# -- semantic errors: ERROR, connection stays open ---------------------------

@pytest.mark.parametrize("message", [
    messages.JobStatusRequest(job_id=2 ** 70),
    messages.JobSubmit(tasks=[{"files": [1], "flops": 0.0}],
                       job_id=2 ** 70),
], ids=["JOB_STATUS", "JOB_SUBMIT"])
def test_an_id_no_codec_can_carry_is_a_semantic_error(front_end,
                                                      message):
    """2**70 fits no binary frame.  A scheduler answers ERROR (no
    such job); a router whose upstream link is binary cannot even
    forward it — and must answer the same way, not die encoding."""
    async def scenario():
        async with front_end() as deployment:
            reader, writer = await deployment.connect()
            await call_line(reader, writer, hello())
            reply = await call_line(reader, writer, message.encode())
            assert isinstance(reply, messages.Error), reply
            # Still open, still in step: the next request is answered.
            stats = await call_line(reader, writer,
                                    messages.StatsRequest().encode())
            assert isinstance(stats, messages.StatsReply)
            assert stats.stats["tasks_submitted"] == 0
            writer.close()
            await writer.wait_closed()

    run(scenario())
