"""Protocol-v3 clients: the pull-loop worker and the control surface.

Every client here negotiates its wire codec at ``HELLO`` (the
``codec=`` kwarg: ``"auto"`` offers binary-then-JSON, ``"json"`` /
``"binary"`` pin one) and stays on JSON lines when the reply names no
codec — see :mod:`repro.serve.codec`.

The clients follow the handshake: ``HELLO`` always carries
``accept_redirect``, and the answer says what is behind the address.
``WELCOME`` is a scheduler — talk to it on this socket.  ``REDIRECT``
is a cluster router — control traffic stays (the router forwards it),
a worker reconnects to the shard owning its job and, when that shard
dies mid-lease, asks the original address again and resumes.  Nothing
else distinguishes standalone from clustered on the client side.

:class:`WorkerClient` is the network twin of the simulator's
``grid.worker.Worker`` pull loop.  It keeps an LRU mirror of its
site's file cache and reports every change to the scheduler as a
``FILE_DELTA`` — evictions first, then insertions, then the references
the task made — which is exactly the event stream the simulator's
:class:`SiteStorage` feeds the overlap index, so the server's
:class:`PolicyEngine` sees the same state it would in simulation.
Every assignment arrives with a lease; while the worker "computes"
(simulated wall-clock delay: ``seconds_per_file`` per missing file for
the fetch, ``task.flops / flops_per_sec`` for the compute) it sends
``HEARTBEAT`` renewals at the cadence the server advertised, so a slow
task is never mistaken for a dead worker.

There is one pull loop, and it is pipelined: a worker executes what
one ``REQUEST_TASK`` granted, writes each ``TASK_DONE`` without waiting
for its ACK, merges the grant's cache deltas into one ``FILE_DELTA``
(no decision happens between the tasks of a grant, so this is
decision-identical to per-task reports) and piggybacks the next
``REQUEST_TASK`` on the same write burst, so a grant of k tasks costs
~one round trip.  The strict in-order request/response protocol makes
this safe: replies are consumed in send order before the next blocking
call's reply.  On top of it, **batched pulls** (``batch=k``):
``REQUEST_TASK`` carries ``max_tasks`` and the server answers with a
``TASK_BATCH`` of up to k leased tasks.  ``batch=1`` is a batch of one
on the older wire shapes — no ``max_tasks``, a plain ``TASK`` back —
through the same loop.  A server that predates ``max_tasks`` ignores
the unknown field and answers a plain ``TASK`` too; the worker then
runs batches of one.

:class:`SchedulerClient` is the submitter/operator side:
:meth:`SchedulerClient.submit` sends a job (chunked ``JOB_SUBMIT``
messages extending one ``job_id``) and returns a :class:`JobHandle`
whose :meth:`JobHandle.wait_done` polls per-job completion — multiple
tenants can share one server and each waits only for its own work.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
from collections import OrderedDict, deque
from typing import (Callable, Deque, Dict, Iterable, List, Optional,
                    Set)

from ..obs.events import EventLog
from . import messages, protocol
from .codec import Codec, JsonLinesCodec, make_codec

#: Tasks per JOB_SUBMIT message (keeps lines well under the size cap).
SUBMIT_CHUNK = 200

#: One socket read's worth of pipelined replies.
READ_CHUNK = 64 * 1024

log = logging.getLogger("repro.serve.client")


class OverloadedError(RuntimeError):
    """The server kept rejecting ``JOB_SUBMIT`` under admission
    control for longer than the client's retry budget."""


class SiteCacheMirror:
    """Client-side LRU over file ids, reporting what it evicts."""

    def __init__(self, capacity_files: int):
        if capacity_files < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity_files}")
        self.capacity_files = capacity_files
        self._resident: "OrderedDict[int, None]" = OrderedDict()

    def __contains__(self, fid: int) -> bool:
        return fid in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def admit(self, files: List[int]) -> Dict[str, List[int]]:
        """Make ``files`` resident; returns the added/removed delta."""
        added: List[int] = []
        removed: List[int] = []
        for fid in files:
            if fid in self._resident:
                self._resident.move_to_end(fid)
                continue
            while len(self._resident) >= self.capacity_files:
                evicted, _ = self._resident.popitem(last=False)
                removed.append(evicted)
            self._resident[fid] = None
            added.append(fid)
        return {"added": added, "removed": removed}


class _Connection:
    """One strict request/response stream of typed messages.

    Besides the blocking :meth:`call`, the connection supports
    *pipelining*: :meth:`send_nowait` buffers a request without
    reading its reply, and the next :meth:`call` (or an explicit
    :meth:`drain_replies`) consumes the outstanding replies in send
    order before its own.  The server answers every request on a
    connection strictly in order, so reply N is always the answer to
    send N — no tagging needed.

    ``codec`` is the negotiation stance (``"auto"``/``"json"``/
    ``"binary"`` or an exact codec name): :meth:`handshake` offers the
    matching capability list and switches the connection to whatever
    the server (or router) picked.
    """

    def __init__(self, host: str, port: int, codec: str = "auto"):
        self.host = host
        self.port = port
        #: ``HELLO.codecs`` this connection will offer (fails fast on
        #: a bad ``codec`` option).
        self.offers = protocol.codec_offers(codec)
        #: Settled by :meth:`handshake`.
        self.negotiated: Optional[protocol.CodecNegotiation] = None
        self._codec: Codec = JsonLinesCodec(decodes="server")
        #: Replies decoded from the last read but not yet consumed —
        #: one chunked read can surface a whole burst of pipelined
        #: ACKs.
        self._inbox: Deque[messages.ServerMessage] = deque()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        #: Reply handlers for pipelined sends, FIFO (None = just check
        #: the reply is not an ERROR and drop it).
        self._pending: Deque[Optional[
            Callable[[messages.ServerMessage], None]]] = deque()
        #: Locally buffered outgoing messages: pipelined sends coalesce
        #: into one transport write (one syscall per burst, not per
        #: message) at the next :meth:`call`/:meth:`drain_replies`.
        self._outgoing = bytearray()

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port,
            limit=protocol.MAX_MESSAGE_BYTES + 1024)

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    def send_nowait(self, message: messages.ClientMessage,
                    on_reply: Optional[Callable[
                        [messages.ServerMessage], None]] = None) -> None:
        """Buffer one request without waiting for its reply.

        The reply is consumed — in send order — by the next
        :meth:`call` or :meth:`drain_replies` and handed to
        ``on_reply`` (an ``ERROR`` reply raises there instead).
        """
        self._outgoing += self._codec.encode(message)
        self._pending.append(on_reply)

    def _flush_outgoing(self) -> None:
        if self._outgoing:
            self._writer.write(bytes(self._outgoing))
            self._outgoing.clear()

    async def drain_replies(self) -> None:
        """Consume the reply of every pipelined send, in order."""
        self._flush_outgoing()
        if self._pending:
            await self._writer.drain()
        while self._pending:
            on_reply = self._pending.popleft()
            reply = self._raise_on_error(await self._read_reply())
            if on_reply is not None:
                on_reply(reply)

    async def _read_reply(self) -> messages.ServerMessage:
        while not self._inbox:
            data = await self._reader.read(READ_CHUNK)
            if not data:
                raise ConnectionError("server closed the connection")
            self._inbox.extend(self._codec.feed(data))
        return self._inbox.popleft()

    @staticmethod
    def _raise_on_error(reply: messages.ServerMessage,
                        ) -> messages.ServerMessage:
        if isinstance(reply, messages.Error):
            raise RuntimeError(f"server error: {reply.error}")
        return reply

    async def exchange(self, message: messages.ClientMessage,
                       ) -> messages.ServerMessage:
        """Send one request, return its one reply verbatim — an
        ``ERROR`` is a reply like any other (what a forwarder wants).

        Pipelined sends queued before this call go out on the same
        write burst (the piggyback) and their replies are drained
        first, so ordering is preserved.
        """
        self._outgoing += self._codec.encode(message)
        self._flush_outgoing()
        await self._writer.drain()
        await self.drain_replies()
        return await self._read_reply()

    async def call(self, message: messages.ClientMessage,
                   ) -> messages.ServerMessage:
        """:meth:`exchange`, with an ``ERROR`` reply raised (what a
        client that expects success wants)."""
        return self._raise_on_error(await self.exchange(message))

    def _adopt(self, name: str) -> None:
        """Switch to the negotiated codec.  Replies can only follow
        the server's own switch (it answers in order), so any bytes
        already buffered belong to the new codec."""
        if name == self._codec.name:
            return
        residue = self._codec.residue()
        self._codec = make_codec(name, decodes="server")
        if residue:
            self._inbox.extend(self._codec.feed(residue))

    async def handshake(self, worker: str, site: int,
                        accept_redirect: Optional[bool] = None,
                        ) -> messages.ServerMessage:
        """Send HELLO (offering this connection's codecs), adopt the
        server's pick, and return the reply — ``WELCOME`` from a
        scheduler, ``REDIRECT`` from a cluster router."""
        reply = await self.call(messages.Hello(
            worker=worker, site=site,
            protocol=protocol.PROTOCOL_VERSION,
            accept_redirect=accept_redirect,
            codecs=list(self.offers)))
        if not isinstance(reply, (messages.Welcome, messages.Redirect)):
            raise RuntimeError(
                f"expected WELCOME or REDIRECT, got {reply}")
        chosen = reply.codec
        served_protocol = (reply.protocol
                           if isinstance(reply, messages.Welcome)
                           else protocol.PROTOCOL_VERSION)
        if chosen is not None:
            self._adopt(chosen)
        # A reply without ``codec`` is a pre-v3 server: JSON lines
        # stay in effect for the whole connection.
        self.negotiated = protocol.CodecNegotiation(
            protocol=served_protocol,
            codec=chosen if chosen is not None else protocol.CODEC_JSON)
        return reply

    async def hello(self, worker: str, site: int) -> messages.Welcome:
        reply = await self.handshake(worker, site)
        if not isinstance(reply, messages.Welcome):
            raise RuntimeError(f"expected WELCOME, got {reply}")
        return reply


class _DeltaFold:
    """Accumulates one batch's cache deltas into a single report.

    Ops for one file strictly alternate (the LRU mirror only adds an
    absent file and only evicts a resident one), so folding keeps the
    *net* op per file: an add then a remove — or a remove then a
    re-add — inside the same batch cancels out and never hits the
    wire.  References keep their multiplicity: the engine's r_i
    popularity counts need every occurrence.
    """

    def __init__(self) -> None:
        #: fid -> net op (True = added, False = removed).
        self._net: Dict[int, bool] = {}
        self.referenced: List[int] = []

    def add(self, added: List[int], removed: List[int],
            referenced: Iterable[int]) -> None:
        for fid in removed:
            if self._net.get(fid) is True:
                del self._net[fid]
            else:
                self._net[fid] = False
        for fid in added:
            if self._net.get(fid) is False:
                del self._net[fid]
            else:
                self._net[fid] = True
        self.referenced.extend(referenced)

    def message(self, site: int) -> messages.FileDelta:
        return messages.FileDelta(
            site=site,
            added=sorted(f for f, op in self._net.items() if op),
            removed=sorted(f for f, op in self._net.items() if not op),
            referenced=self.referenced)


class WorkerClient:
    """One pull-loop worker; it asks *the* scheduler for its next task.

    What is behind ``host:port`` is the handshake's business.  A plain
    :class:`SchedulerServer` answers ``WELCOME`` and the worker pulls on
    that one connection; losing it raises at once.  A cluster router
    answers ``REDIRECT`` and the worker reconnects to the shard owning
    ``job_id`` (``job_id % shard_count``) — or to the pinned ``shard``
    for *unscoped* pulls, the work-stealing deployment shape where an
    idle shard's parked workers are fed stolen tasks.  When that shard
    dies mid-lease the worker asks ``host:port`` again (picking up the
    restarted shard's new port) and resumes, riding out up to
    ``resume_window`` seconds without progress.  The cache mirror and
    every counter live on this object, so the residency picture — and
    the ``FILE_DELTA`` stream a recovered shard sees — stays continuous.
    Exactly-once needs nothing here: a completion acked before the
    crash is in the shard's WAL; one acked by nobody is requeued by
    the lease machinery and re-earned.
    """

    def __init__(self, host: str, port: int, worker: str = "w0",
                 site: int = 0, capacity_files: int = 1000,
                 flops_per_sec: float = 0.0,
                 seconds_per_file: float = 0.0,
                 job_id: Optional[int] = None,
                 events: Optional[EventLog] = None,
                 batch: int = 1,
                 codec: str = "auto",
                 resume_window: float = 30.0,
                 retry_interval: float = 0.2,
                 shard: Optional[int] = None):
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if job_id is not None and shard is not None:
            raise ValueError("job_id and shard are mutually "
                             "exclusive: scoped pulls already name "
                             "the owning shard")
        self.host = host
        self.port = port
        #: Wire-codec stance for every connection this worker opens
        #: (``auto``/``json``/``binary``); what actually got negotiated
        #: lands in :attr:`negotiated` after :meth:`run`.
        self.codec = codec
        self.negotiated: Optional[protocol.CodecNegotiation] = None
        self.worker = worker
        self.site = site
        self.cache = SiteCacheMirror(capacity_files)
        self.flops_per_sec = flops_per_sec
        self.seconds_per_file = seconds_per_file
        #: Scope pulls to one job; None pulls from the global queue.
        self.job_id = job_id
        #: Client-side event log: the worker's own view of each
        #: assign/delta/complete, for offline timeline reconstruction.
        self.events = events
        #: Prefetch depth: k > 1 sends REQUEST_TASK {max_tasks: k} and
        #: gets a TASK_BATCH; 1 sends no max_tasks and gets a TASK — a
        #: batch of one through the same pipelined loop.
        self.batch = batch
        #: Behind a router: how long reconnects may keep failing with
        #: nothing completed before the outage is reported instead of
        #: ridden out; the supervisor restarts a crashed shard well
        #: inside this.
        self.resume_window = resume_window
        self.retry_interval = retry_interval
        #: Behind a router: pull unscoped from this shard (mod the
        #: shard count) instead of from the shard owning ``job_id``.
        self.shard = shard
        #: The shard a ``REDIRECT`` last sent this worker to; None as
        #: long as ``host:port`` itself answers ``WELCOME``.
        self.redirected_to: Optional[int] = None
        self.reconnects = 0
        self.tasks_done = 0
        self.files_fetched = 0
        self.heartbeats_sent = 0
        self.rejected_completions = 0
        self.batches_pulled = 0
        self.stop_reason: Optional[str] = None
        self._heartbeat_interval = 0.0
        #: Leases currently held (a grant minus the tasks already
        #: reported done); heartbeats renew all of them at once.
        self._held: Set[int] = set()

    def _progress(self) -> tuple:
        return (self.tasks_done, self.files_fetched,
                self.heartbeats_sent, self.rejected_completions,
                self.batches_pulled)

    async def run(self) -> Dict:
        """Pull tasks until the server says NO_TASK; returns a summary."""
        loop = asyncio.get_running_loop()
        outage_started: Optional[float] = None
        while True:
            before = self._progress()
            try:
                await self._session()
                break
            except (ConnectionError, OSError) as exc:
                if self.redirected_to is None:
                    raise  # no router to ask where the scheduler went
                now = loop.time()
                if outage_started is None or self._progress() != before:
                    outage_started = now
                elif now - outage_started > self.resume_window:
                    raise ConnectionError(
                        f"worker {self.worker}: shard "
                        f"{self.redirected_to} unreachable for "
                        f"{self.resume_window:.1f}s") from exc
                self.reconnects += 1
                log.info("worker %s: shard %s connection lost (%s); "
                         "re-resolving via %s:%d", self.worker,
                         self.redirected_to, exc, self.host, self.port)
                await asyncio.sleep(self.retry_interval)
        return {"worker": self.worker, "site": self.site,
                "job_id": self.job_id,
                "shard": self.redirected_to,
                "reconnects": self.reconnects,
                "codec": (self.negotiated.codec
                          if self.negotiated is not None else None),
                "batch": self.batch,
                "batches_pulled": self.batches_pulled,
                "tasks_done": self.tasks_done,
                "files_fetched": self.files_fetched,
                "heartbeats_sent": self.heartbeats_sent,
                "rejected_completions": self.rejected_completions,
                "stop_reason": self.stop_reason}

    def _owning_entry(self, redirect: messages.Redirect) -> Dict:
        """The ``{shard, host, port}`` entry this worker pulls from."""
        scope = self.shard if self.shard is not None else self.job_id
        if scope is None:
            if redirect.shard_count > 1:
                raise ValueError(
                    "workers behind a router must scope to a job_id "
                    "(it names the owning shard) or pin a shard for "
                    "unscoped pulls")
            scope = 0
        self.redirected_to = scope % redirect.shard_count
        for entry in redirect.shards:
            if entry["shard"] == self.redirected_to:
                return entry
        raise RuntimeError(
            f"router shard map has no shard {self.redirected_to}: "
            f"{redirect.shards}")

    async def _session(self) -> None:
        """One connection's pulling: HELLO at ``host:port``, follow a
        REDIRECT to the owning shard, pull until ``NO_TASK``."""
        conn = _Connection(self.host, self.port, codec=self.codec)
        await conn.open()
        try:
            welcome = await conn.handshake(self.worker, self.site,
                                           accept_redirect=True)
            if isinstance(welcome, messages.Redirect):
                entry = self._owning_entry(welcome)
                await conn.close()
                conn = _Connection(entry["host"], entry["port"],
                                   codec=self.codec)
                await conn.open()
                welcome = await conn.hello(self.worker, self.site)
            self.negotiated = conn.negotiated
            self._heartbeat_interval = welcome.heartbeat_interval
            await self._pull(conn)
        finally:
            await conn.close()

    async def _pull(self, conn: _Connection) -> None:
        """The pull loop: a grant in, pipelined reports out, the next
        REQUEST_TASK piggybacked on the last TASK_DONE write.

        The grant's cache deltas are merged into **one** FILE_DELTA
        sent just before the next REQUEST_TASK.  No scheduling
        decision happens between the tasks of a grant (the next
        decision is the next REQUEST_TASK, which this write precedes),
        so the merge is decision-identical to per-task reports while
        cutting the wire traffic per task almost in half.
        """
        request = messages.RequestTask(
            job_id=self.job_id,
            max_tasks=self.batch if self.batch > 1 else None)
        reply = await conn.call(request)
        while True:
            if isinstance(reply, messages.NoTask):
                self.stop_reason = reply.reason
                return
            assignments = self._as_assignments(reply)
            self.batches_pulled += 1
            self._held = {a.lease_id for a in assignments}
            fold = _DeltaFold()
            try:
                for assignment in assignments:
                    await self._execute(conn, assignment, fold)
                    self._held.discard(assignment.lease_id)
            finally:
                self._held = set()
            if fold.referenced:
                conn.send_nowait(fold.message(self.site),
                                 on_reply=self._expect_ack)
            # Completion pipelining: this write shares a burst with
            # the merged delta and the TASK_DONEs above; call()
            # drains the pending ACKs (in order) before reading the
            # next grant.
            reply = await conn.call(request)

    @staticmethod
    def _as_assignments(reply: messages.ServerMessage,
                        ) -> List[messages.TaskAssign]:
        if isinstance(reply, messages.TaskBatch):
            return reply.assignments()
        if isinstance(reply, messages.TaskAssign):
            # What a pull without max_tasks gets (batch=1), and what a
            # server predating max_tasks answers to any pull.
            return [reply]
        raise RuntimeError(f"expected TASK_BATCH or TASK, got {reply}")

    def _emit(self, event: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(event, **fields)

    async def _execute(self, conn: _Connection,
                       assignment: messages.TaskAssign,
                       fold: _DeltaFold) -> None:
        files = assignment.files
        missing = [fid for fid in files if fid not in self.cache]
        self._emit("assign", task_id=assignment.task_id, site=self.site,
                   worker=self.worker, job_id=assignment.job_id,
                   lease_id=assignment.lease_id,
                   files=len(files), missing=len(missing))
        if missing and self.seconds_per_file > 0:
            await self._work(conn, self.seconds_per_file * len(missing))
        delta = self.cache.admit(files)
        self.files_fetched += len(delta["added"])
        # _pull sends one merged FILE_DELTA before the next
        # REQUEST_TASK.
        fold.add(delta["added"], delta["removed"], files)
        if delta["added"] or delta["removed"]:
            self._emit("delta", site=self.site,
                       added=len(delta["added"]),
                       removed=len(delta["removed"]),
                       referenced=len(files))
        if assignment.flops and self.flops_per_sec > 0:
            await self._work(conn, assignment.flops / self.flops_per_sec)
        conn.send_nowait(
            messages.TaskDone(task_id=assignment.task_id,
                              lease_id=assignment.lease_id),
            on_reply=self._on_done_ack(assignment))

    @staticmethod
    def _expect_ack(reply: messages.ServerMessage) -> None:
        if not isinstance(reply, messages.Ack):
            raise RuntimeError(f"expected ACK, got {reply}")

    def _on_done_ack(self, assignment: messages.TaskAssign,
                     ) -> Callable[[messages.ServerMessage], None]:
        def handle(reply: messages.ServerMessage) -> None:
            self._expect_ack(reply)
            if reply.accepted:
                self.tasks_done += 1
                self._emit("complete", task_id=assignment.task_id,
                           worker=self.worker,
                           job_id=assignment.job_id,
                           lease_id=assignment.lease_id)
            else:
                # The lease lapsed (e.g. a long stall) and the task
                # was requeued elsewhere; drop it and keep pulling.
                self.rejected_completions += 1
        return handle

    async def _work(self, conn: _Connection, seconds: float) -> None:
        """Sleep ``seconds``, renewing leases at heartbeat cadence.

        Every still-held lease of the grant is renewed, not just the
        running task's — the prefetched tasks must not expire while an
        earlier one computes.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + seconds
        interval = self._heartbeat_interval
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return
            if interval <= 0 or remaining <= interval:
                await asyncio.sleep(remaining)
                return
            await asyncio.sleep(interval)
            reply = await conn.call(
                messages.Heartbeat(lease_ids=sorted(self._held)))
            if not isinstance(reply, messages.HeartbeatAck):
                raise RuntimeError(f"expected HEARTBEAT_ACK, got {reply}")
            self.heartbeats_sent += 1


class JobHandle:
    """One submitted job, seen through a :class:`SchedulerClient`."""

    def __init__(self, client: "SchedulerClient", job_id: int,
                 task_ids: List[int]):
        self._client = client
        self.job_id = job_id
        self.task_ids = task_ids

    async def status(self) -> Dict:
        """The server's per-job counters, as a plain dict."""
        reply = await self._client.call(
            messages.JobStatusRequest(job_id=self.job_id))
        return {"job_id": reply.job_id, "tasks": reply.tasks,
                "completed": reply.completed, "pending": reply.pending,
                "outstanding": reply.outstanding, "done": reply.done}

    async def wait_done(self, poll_interval: float = 0.05) -> Dict:
        """Poll until every task of the job completed; returns the
        final status.  Wrap in ``asyncio.wait_for`` for a deadline."""
        while True:
            status = await self.status()
            if status["done"]:
                return status
            await asyncio.sleep(poll_interval)


class SchedulerClient:
    """A non-worker connection: submit jobs, track them, read stats.

    Async context manager::

        async with SchedulerClient(host, port) as client:
            handle = await client.submit(job)
            await handle.wait_done()
            print(await client.stats())

    Works the same against a scheduler (``welcome`` is set) and a
    cluster router (``redirect`` holds the shard map; the router
    forwards submits and statuses to the owning shard and aggregates
    ``STATS``) — the wire shapes are identical either way.
    """

    def __init__(self, host: str, port: int, name: str = "control",
                 site: int = 0, codec: str = "auto"):
        self._conn = _Connection(host, port, codec=codec)
        self.name = name
        self.site = site
        self.welcome: Optional[messages.Welcome] = None
        self.redirect: Optional[messages.Redirect] = None

    async def __aenter__(self) -> "SchedulerClient":
        await self._conn.open()
        reply = await self._conn.handshake(self.name, self.site,
                                           accept_redirect=True)
        if isinstance(reply, messages.Redirect):
            self.redirect = reply
        else:
            self.welcome = reply
        return self

    @property
    def negotiated(self) -> Optional[protocol.CodecNegotiation]:
        return self._conn.negotiated

    @property
    def shard_count(self) -> int:
        return 1 if self.redirect is None else self.redirect.shard_count

    def shard_map(self) -> List[Dict]:
        """Where the data plane lives: the router's shard entries, or
        this very address for a plain scheduler."""
        if self.redirect is None:
            return [{"shard": 0, "host": self._conn.host,
                     "port": self._conn.port}]
        return list(self.redirect.shards)

    async def __aexit__(self, *exc_info) -> None:
        await self._conn.close()

    async def call(self, message: messages.ClientMessage,
                   ) -> messages.ServerMessage:
        return await self._conn.call(message)

    async def submit(self, job: Iterable,
                     weight: Optional[float] = None,
                     max_retries: int = 20,
                     extend_job_id: Optional[int] = None) -> JobHandle:
        """Submit every task of ``job``; returns its :class:`JobHandle`.

        ``job`` is any iterable of objects with ``files`` and ``flops``
        (a :class:`~repro.grid.job.Job`, a task list), or of
        ``{"files": ..., "flops": ...}`` dicts.  Large jobs are chunked
        over several ``JOB_SUBMIT`` messages extending one job id.

        ``weight`` opts the job into weighted-fair scheduling (sent on
        the opening chunk only).  When the server rejects a chunk with
        ``reason="overloaded"`` (admission control), the chunk is
        retried after the server-suggested ``retry_after`` delay, up to
        ``max_retries`` times before :class:`OverloadedError` is
        raised.  ``extend_job_id`` appends the tasks to an existing
        job instead of opening a new one (how a submitter streams
        waves of work into one job).
        """
        specs = [task if isinstance(task, dict)
                 else {"files": sorted(task.files), "flops": task.flops}
                 for task in job]
        job_id: Optional[int] = extend_job_id
        task_ids: List[int] = []
        for start in range(0, len(specs), SUBMIT_CHUNK):
            chunk = specs[start:start + SUBMIT_CHUNK]
            retries = 0
            while True:
                reply = await self.call(messages.JobSubmit(
                    tasks=chunk, job_id=job_id,
                    weight=weight if job_id is None else None))
                if isinstance(reply, messages.JobAccepted):
                    break
                if (isinstance(reply, messages.Ack)
                        and not reply.accepted
                        and reply.reason == protocol.REASON_OVERLOADED):
                    if retries >= max_retries:
                        raise OverloadedError(
                            f"JOB_SUBMIT rejected {retries + 1} times; "
                            "server stays over its admission watermark")
                    retries += 1
                    delay = reply.retry_after or 0.25
                    await asyncio.sleep(min(delay, 5.0))
                    continue
                raise RuntimeError(f"expected JOB_ACCEPTED, got {reply}")
            job_id = reply.job_id
            task_ids.extend(reply.task_ids)
        if job_id is None:
            raise ValueError("cannot submit an empty job")
        return JobHandle(self, job_id, task_ids)

    async def stats(self) -> Dict:
        reply = await self.call(messages.StatsRequest())
        if not isinstance(reply, messages.StatsReply):
            raise RuntimeError(f"expected STATS, got {reply}")
        return reply.stats

    async def drain(self) -> None:
        await self.call(messages.Drain())
