"""Asyncio TCP front ends (protocol v3): the connection loop, once.

A *front end* is a dispatcher: :class:`FrontEnd` owns the listener,
``start``/``stop`` and the per-connection wire loop described below,
and asks its subclass one question per message, ``_dispatch``.
:class:`SchedulerServer` answers from a :class:`SchedulerService`; the
cluster's :class:`~repro.cluster.router.ClusterRouter` redirects and
forwards — and so contains a hostile or clumsy peer identically.

One coroutine per connection reads socket chunks, feeds them through
the connection's :class:`~repro.serve.codec.Codec` (JSON lines until
``HELLO`` negotiates otherwise, binary frames after), dispatches each
decoded message into the single-threaded service, and writes the
replies back.  I/O is coalesced per burst: one ``read()`` can surface
a whole pipelined ``TASK_DONE`` train or ``TASK_BATCH`` worth of
messages, and their replies accumulate into a single buffered
write + ``drain()`` instead of one syscall per message.  A server with
an event log commits it (:meth:`~repro.obs.events.EventLog.flush`)
right before that write — one WAL ``write`` per burst, and no reply
ever leaves ahead of the records it depends on.  A commit that raises
ends the process (:func:`commit_or_exit`).
Backpressure stays per-connection — the drain happens on the
connection's own writer, so a slow worker throttles only its own
stream, never the scheduler.  A parked ``REQUEST_TASK`` blocks only
that connection's read loop (already-buffered replies are flushed
first, so pipelined acks are never held hostage by a parked pull).

Version negotiation: ``HELLO`` must carry a ``protocol`` in
:data:`~repro.serve.protocol.SUPPORTED_PROTOCOLS` (3).  Anything
else gets a clean ``ERROR`` naming the supported version and its
connection is closed — never a crash or a silent hang.  A connection
says ``HELLO`` once: a repeat is refused the same way, leaving the
identity its leases are keyed by untouched.  When the
``HELLO`` offers ``codecs``, the server picks the first mutual name,
announces it in ``WELCOME.codec``, and switches the connection's
codec right after encoding that reply; bytes pipelined *past* the
``HELLO`` before its reply arrived are a protocol error (the client
cannot know the codec they should be in).

Framing errors — bad magic/version, oversized frames or lines,
malformed JSON/msgpack bodies, unknown types — are unrecoverable by
definition (the stream position is lost), so both codecs share the
same closed-ERROR behavior: the server sends one final ``ERROR`` and
closes the connection.  Semantic errors on well-framed messages
(``REQUEST_TASK`` before ``HELLO``, a stale lease, an unknown job)
still get an ``ERROR``/negative-ack reply on a connection that stays
open.

Lease sweeping: :meth:`start` spawns a monotonic-clock sweeper task
that calls :meth:`SchedulerService.expire_leases` every quarter lease
TTL (bounded to [10 ms, 1 s], so expiry lag is a small fraction of the
TTL without busy-looping): a worker that dies *without* closing
its TCP connection (kill -9, network partition, frozen VM) still has
its tasks requeued within one lease TTL plus one sweep.

Shutdown: a ``DRAIN`` message (or :meth:`SchedulerServer.drain`) flips
the service into draining mode; once the last outstanding task
completes the server closes its listener and all idle connections, and
:meth:`serve_until_drained` returns.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
from typing import Callable, Optional, Sequence, Set

from . import messages, protocol
from .codec import Codec, JsonLinesCodec, make_codec
from .service import AdmissionRejected, SchedulerService, ServiceError

log = logging.getLogger("repro.serve.server")
stats_log = logging.getLogger("repro.serve.stats")

#: One socket read's worth of pipelined traffic.
READ_CHUNK = 64 * 1024

#: Exit status after a failed WAL commit (sysexits' ``EX_IOERR``).
EXIT_COMMIT_FAILED = 74


def commit_or_exit(commit: Callable[[], None]) -> None:
    """Run one WAL commit; if it raises, log it and end the process
    with :data:`EXIT_COMMIT_FAILED` — serving on would run ahead of
    the log.  No retry and no final snapshot: recovery starts from
    what the failure left, at most one torn final line."""
    try:
        commit()
    except Exception:  # noqa: BLE001 - any commit failure is fatal
        log.critical("WAL commit failed; exiting with %d",
                     EXIT_COMMIT_FAILED, exc_info=True)
        os._exit(EXIT_COMMIT_FAILED)


def install_uvloop() -> bool:
    """Swap in uvloop's event-loop policy when the package is
    available; a graceful no-op (returning False) when it is not —
    uvloop is an optional accelerator, never a dependency."""
    try:
        import uvloop
    except ImportError:
        return False
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return True


class _Conn:
    """One connection's mutable state: identity, codec, reply buffer."""

    __slots__ = ("writer", "commit", "codec", "out", "worker_key",
                 "site_id", "next_codec")

    def __init__(self, writer: asyncio.StreamWriter,
                 commit: Optional[Callable[[], None]], worker_key: str):
        self.writer = writer
        #: The WAL commit taken before any reply byte leaves (None
        #: when the front end keeps no log).
        self.commit = commit
        #: Connections always start in JSON lines; ``HELLO`` itself is
        #: never binary.
        self.codec: Codec = JsonLinesCodec(decodes="client")
        self.out = bytearray()
        self.worker_key = worker_key
        self.site_id: Optional[int] = None
        #: Codec name to switch to after the pending reply is encoded
        #: (set while dispatching a ``HELLO`` that offered codecs).
        self.next_codec: Optional[str] = None

    async def flush(self) -> None:
        """One buffered write + drain for everything accumulated —
        after the commit, so no reply can reveal a record the OS does
        not have yet."""
        if self.out:
            if self.commit is not None:
                commit_or_exit(self.commit)
            self.writer.write(bytes(self.out))
            self.out.clear()
            await self.writer.drain()  # per-connection backpressure


class FrontEnd:
    """A listening endpoint: the socket, its connections, the wire loop.

    Subclasses supply :meth:`_dispatch` (what a message means here)
    and may override :meth:`_closed` (what a lost connection means).
    """

    #: Called before every reply write; a front end with a WAL sets it.
    _commit: Optional[Callable[[], None]] = None

    def __init__(self, host: str, port: int,
                 codecs: Optional[Sequence[str]]):
        self.host = host
        self.port = port
        #: Wire codecs this front end accepts in ``HELLO.codecs``, in
        #: its own preference order.  JSON lines is always spoken (it
        #: is the pre-negotiation format), so a ``(CODEC_BINARY,)``
        #: restriction only stops *negotiating* json-2, it cannot
        #: break a client that offers no codecs.
        self.codecs: Sequence[str] = (tuple(codecs) if codecs is not None
                                      else protocol.DEFAULT_CODECS)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._handler_tasks: Set[asyncio.Task] = set()
        self._conn_seq = 0

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind and listen; resolves :attr:`port` when it was 0."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=protocol.MAX_MESSAGE_BYTES + 1024)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        if self._handler_tasks:
            # Closed transports EOF the read loops; let them finish so
            # loop teardown never has to cancel a live handler.
            await asyncio.wait(self._handler_tasks, timeout=5)

    # -- what a subclass answers ---------------------------------------
    async def _dispatch(self, message: messages.ClientMessage,
                        conn: _Conn) -> messages.ServerMessage:
        """One well-framed message in, its one reply out; raising
        ``ServiceError``/``ProtocolError`` answers ``ERROR``."""
        raise NotImplementedError

    def _closed(self, conn: _Conn) -> None:
        """The connection is gone (EOF, reset, or closed by a rule)."""

    def _greet(self, hello: messages.Hello,
               conn: _Conn) -> Optional[str]:
        """The shared ``HELLO`` rules: version check, once per
        connection, identity, codec pick.  Returns the reply's
        ``codec`` (None when none were offered) and arms the switch;
        a refusal raises, i.e. answers the final ``ERROR``."""
        if hello.protocol not in protocol.SUPPORTED_PROTOCOLS:
            raise protocol.ProtocolError(
                f"unsupported protocol version {hello.protocol}; "
                f"this server speaks {protocol.SUPPORTED_PROTOCOLS_TEXT}")
        if conn.site_id is not None:
            # Re-keying would orphan everything filed under the first
            # identity (leases, parked pulls) until their TTL.
            raise protocol.ProtocolError(
                "HELLO already received on this connection")
        conn.worker_key = f"{hello.worker}/{conn.worker_key}"
        conn.site_id = hello.site
        if hello.codecs is not None:
            conn.next_codec = protocol.negotiate_codec(hello.codecs,
                                                       self.codecs)
        return conn.next_codec

    # -- per-connection loop ---------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._conn_seq += 1
        conn = _Conn(writer, self._commit, f"conn-{self._conn_seq}")
        self._connections.add(writer)
        self._handler_tasks.add(asyncio.current_task())
        log.debug("connection %s opened", conn.worker_key)
        try:
            chunk = b""
            closing = False
            while not closing:
                try:
                    inbound = conn.codec.feed(chunk)
                except protocol.ProtocolError as exc:
                    # Framing/decode errors lose the stream position:
                    # one final ERROR, then close (both codecs).
                    conn.out += conn.codec.encode(
                        messages.Error(str(exc)))
                    break
                if not inbound:
                    chunk = await reader.read(READ_CHUNK)
                    if not chunk:
                        break  # EOF
                    continue
                chunk = b""  # drain the codec buffer before reading on
                for index, message in enumerate(inbound):
                    try:
                        reply = await self._dispatch(message, conn)
                    except (ServiceError,
                            protocol.ProtocolError) as exc:
                        reply = messages.Error(str(exc))
                    conn.out += conn.codec.encode(reply)
                    if isinstance(reply, messages.NoTask):
                        # The worker is done; close our side too.
                        closing = True
                        break
                    if (isinstance(reply, messages.Error)
                            and isinstance(message, messages.Hello)):
                        closing = True  # failed negotiation
                        break
                    if conn.next_codec is not None:
                        name, conn.next_codec = conn.next_codec, None
                        if name == conn.codec.name:
                            continue
                        if (index + 1 < len(inbound)
                                or conn.codec.buffered):
                            # The client cannot know which codec bytes
                            # after HELLO should be in until our reply
                            # lands — pipelining across negotiation is
                            # unrecoverable.
                            conn.out += conn.codec.encode(
                                messages.Error(
                                    "messages pipelined across codec "
                                    "negotiation; await the HELLO "
                                    "reply before sending more"))
                            closing = True
                            break
                        conn.codec = make_codec(name, decodes="client")
                # One coalesced write + drain for the whole burst.
                await conn.flush()
            await conn.flush()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._handler_tasks.discard(asyncio.current_task())
            self._connections.discard(writer)
            self._closed(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


class SchedulerServer(FrontEnd):
    """Serves one :class:`SchedulerService` on a TCP port."""

    def __init__(self, service: SchedulerService,
                 host: str = "127.0.0.1", port: int = 0,
                 stats_interval: Optional[float] = None,
                 codecs: Optional[Sequence[str]] = None):
        super().__init__(host, port, codecs)
        self.service = service
        #: Every ``stats_interval`` seconds the full stats snapshot is
        #: logged as one JSON line at INFO on ``repro.serve.stats`` —
        #: greppable history for runs without a scraper.  None (the
        #: default) disables the ticker.
        if stats_interval is not None and stats_interval <= 0:
            raise ValueError(
                f"stats_interval must be > 0, got {stats_interval}")
        self.stats_interval = stats_interval
        self._sweeper: Optional[asyncio.Task] = None
        self._stats_ticker: Optional[asyncio.Task] = None
        self._drained = asyncio.Event()
        if service.events is not None:
            self._commit = service.events.flush
        service.on_drained = self._drained.set
        if service.draining:
            # Recovered mid-drain: the state was restored before this
            # callback existed, so ask again now that someone listens.
            service.drain()

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        await super().start()
        loop = asyncio.get_running_loop()
        self._sweeper = loop.create_task(self._sweep_leases())
        if self.stats_interval is not None:
            self._stats_ticker = loop.create_task(self._tick_stats())
        log.info("listening on %s:%d (metric=%s, n=%d, lease_ttl=%.1fs)",
                 self.host, self.port, self.service.engine.metric_name,
                 self.service.engine.n, self.service.lease_ttl)

    async def _sweep_leases(self) -> None:
        while True:
            await asyncio.sleep(
                min(max(self.service.lease_ttl / 4.0, 0.01), 1.0))
            expired = self.service.expire_leases()
            if expired:
                log.info("lease sweep requeued %d task(s)", expired)
            if self._commit is not None:
                commit_or_exit(self._commit)  # freshness only

    async def _tick_stats(self) -> None:
        while True:
            await asyncio.sleep(self.stats_interval)
            stats_log.info("%s", json.dumps(
                self.service.stats_snapshot(), sort_keys=True,
                separators=(",", ":")))

    async def serve_until_drained(self) -> None:
        """Serve until a DRAIN completes, then close everything."""
        if self._server is None:
            await self.start()
        await self._drained.wait()
        await self.stop()

    def drain(self) -> None:
        log.info("drain requested (%d outstanding, %d queued)",
                 self.service.outstanding, self.service.queue_depth)
        self.service.drain()

    async def stop(self) -> None:
        for task_attr in ("_sweeper", "_stats_ticker"):
            task = getattr(self, task_attr)
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
                setattr(self, task_attr, None)
        await super().stop()
        self._drained.set()

    def _closed(self, conn: _Conn) -> None:
        requeued = self.service.disconnect(conn.worker_key)
        if requeued:
            log.info("connection %s closed; requeued %d task(s)",
                     conn.worker_key, requeued)
        else:
            log.debug("connection %s closed", conn.worker_key)

    async def _dispatch(self, message: messages.ClientMessage,
                        conn: _Conn) -> messages.ServerMessage:
        service = self.service

        if isinstance(message, messages.Hello):
            codec_name = self._greet(message, conn)
            service.ensure_site(message.site)
            return messages.Welcome(
                server=service.name,
                metric=service.engine.metric_name,
                n=service.engine.n,
                protocol=message.protocol,
                lease_ttl=service.lease_ttl,
                heartbeat_interval=service.heartbeat_interval,
                codec=codec_name)

        if isinstance(message, messages.RequestTask):
            if conn.site_id is None:
                raise protocol.ProtocolError("REQUEST_TASK before HELLO")
            future: asyncio.Future = (
                asyncio.get_running_loop().create_future())

            def deliver(outcome) -> None:
                if not future.done():
                    future.set_result(outcome)

            if message.max_tasks is None:
                # Plain single-task pull: a TASK reply.
                service.request_task(conn.worker_key, conn.site_id,
                                     deliver, job_id=message.job_id)
            else:
                service.request_tasks(conn.worker_key, conn.site_id,
                                      message.max_tasks, deliver,
                                      job_id=message.job_id)
            if not future.done():
                # Parking: flush buffered replies (pipelined acks)
                # before waiting, so they are never held hostage.
                await conn.flush()
            outcome = await future
            if isinstance(outcome, str):  # a NO_TASK reason
                # Batched or not, the refusal carries the same closed
                # reason enum.
                return messages.NoTask(reason=outcome)
            if isinstance(outcome, list):  # batched pull
                return messages.TaskBatch(
                    tasks=[{"task_id": granted.task.task_id,
                            "files": granted.task.files,
                            "flops": granted.task.flops,
                            "lease_id": granted.lease_id,
                            "job_id": granted.job_id}
                           for granted in outcome],
                    lease_ttl=service.lease_ttl)
            return messages.TaskAssign(
                task_id=outcome.task.task_id,
                files=outcome.task.files,
                flops=outcome.task.flops,
                lease_id=outcome.lease_id,
                lease_ttl=outcome.lease_ttl,
                job_id=outcome.job_id)

        if isinstance(message, messages.TaskDone):
            result = service.task_done(conn.worker_key,
                                       message.task_id,
                                       message.lease_id)
            return messages.Ack(accepted=result.accepted,
                                reason=result.reason)

        if isinstance(message, messages.Heartbeat):
            renewed, gone = service.heartbeat(conn.worker_key,
                                              message.lease_ids)
            return messages.HeartbeatAck(renewed=renewed, expired=gone)

        if isinstance(message, messages.FileDelta):
            site = (message.site if message.site is not None
                    else conn.site_id)
            if site is None:
                raise protocol.ProtocolError(
                    "FILE_DELTA needs an int 'site' (or a prior HELLO)")
            service.file_delta(site, added=message.added,
                               removed=message.removed,
                               referenced=message.referenced)
            return messages.Ack()

        if isinstance(message, messages.JobSubmit):
            try:
                accepted = service.submit_job(message.tasks,
                                              job_id=message.job_id,
                                              weight=message.weight)
            except AdmissionRejected as exc:
                return messages.Ack(accepted=False,
                                    reason=protocol.REASON_OVERLOADED,
                                    retry_after=exc.retry_after)
            return messages.JobAccepted(**accepted)

        if isinstance(message, messages.JobStatusRequest):
            return messages.JobStatusReply(
                **service.job_status(message.job_id))

        if isinstance(message, messages.StatsRequest):
            return messages.StatsReply(stats=service.stats_snapshot())

        if isinstance(message, messages.Drain):
            service.drain()
            return messages.Ack(draining=True)

        if isinstance(message, messages.StealRequest):
            # The thief is this connection; the victim is us.  The
            # export is WAL'd inside the service, and committed with
            # the burst before the grant is written.
            try:
                grant = service.export_steal_batch(
                    conn.worker_key, message.max_tasks,
                    message.site_refsums)
            except Exception:
                service.stats.record_steal_request("error")
                raise
            if grant is None:
                return messages.StealGrant(tasks=[])
            return messages.StealGrant(tasks=grant["tasks"],
                                       export_id=grant["export_id"])

        if isinstance(message, messages.StealAck):
            accepted = service.steal_export_acked(message.export_id)
            return messages.Ack(accepted=accepted)

        if isinstance(message, messages.StealDone):
            service.steal_done(message.task_ids,
                               worker=conn.worker_key)
            return messages.Ack(accepted=True)

        raise protocol.ProtocolError(
            f"unhandled message type {message.TYPE!r}")
