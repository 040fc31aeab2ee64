"""The benchmark's own protocol-v3 client — frozen on purpose.

The offered load must not change when the program's clients are
refactored, so this file speaks the wire protocol itself, on top of
the three stable pieces only: the typed messages
(:mod:`repro.serve.messages`), the codec factory
(:func:`repro.serve.codec.make_codec`) and the client-side LRU
(:class:`repro.serve.client.SiteCacheMirror`).  It imports nothing from
``serve/loadgen.py``, ``cluster/loadgen.py`` or the
``WorkerClient``/``ClusterWorkerClient`` twins.

Load shape: **closed loop**.  Each worker connection has at most one
``REQUEST_TASK`` in flight and sends the next one only after the
previous reply was decoded.  One burst on the wire is
``k x TASK_DONE, FILE_DELTA, REQUEST_TASK`` (completion pipelining, the
same order the program's batched worker uses), so one task costs one
round trip and the pull latency covers the server's whole per-task
critical path.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.serve import messages
from repro.serve.client import SiteCacheMirror
from repro.serve.codec import make_codec

#: Frozen protocol constants (protocol v3, binary framing).
PROTOCOL_VERSION = 3
CODEC_JSON = "json-2"
CODEC_BINARY = "binary-1"
SUBMIT_CHUNK = 200
READ_CHUNK = 64 * 1024


class WireCounters:
    """Client-side tallies shared by every connection of one pass."""

    def __init__(self) -> None:
        self.sent = 0
        self.received = 0
        self.bytes_out = 0
        self.bytes_in = 0
        self.errors: List[str] = []


class Conn:
    """One strict request/response stream of typed messages."""

    def __init__(self, counters: WireCounters):
        self.counters = counters
        self._codec = make_codec(CODEC_JSON, decodes="server")
        self._inbox: List[messages.ServerMessage] = []
        self._next = 0
        self._out = bytearray()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self, host: str, port: int) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            host, port, limit=(1 << 20) + 1024)

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def send(self, message: messages.ClientMessage) -> None:
        """Buffer one request; :meth:`flush` writes the whole burst."""
        self._out += self._codec.encode(message)
        self.counters.sent += 1

    def flush(self) -> None:
        if self._out:
            self.counters.bytes_out += len(self._out)
            self._writer.write(bytes(self._out))
            self._out.clear()

    async def recv(self) -> messages.ServerMessage:
        """The next reply, in send order.  ``ERROR`` replies are
        tallied (they count as failed operations) and returned."""
        while self._next >= len(self._inbox):
            data = await self._reader.read(READ_CHUNK)
            if not data:
                raise ConnectionError("server closed the connection")
            self.counters.bytes_in += len(data)
            self._inbox = self._codec.feed(data)
            self._next = 0
        reply = self._inbox[self._next]
        self._next += 1
        self.counters.received += 1
        if isinstance(reply, messages.Error):
            self.counters.errors.append(reply.error)
        return reply

    async def call(self, message: messages.ClientMessage,
                   ) -> messages.ServerMessage:
        self.send(message)
        self.flush()
        return await self.recv()

    async def hello(self, worker: str, site: int,
                    accept_redirect: Optional[bool] = None,
                    ) -> messages.ServerMessage:
        """HELLO offering binary framing; switches to the server's
        pick.  Returns ``WELCOME`` (scheduler) or ``REDIRECT``
        (cluster router)."""
        reply = await self.call(messages.Hello(
            worker=worker, site=site, protocol=PROTOCOL_VERSION,
            accept_redirect=accept_redirect,
            codecs=[CODEC_BINARY, CODEC_JSON]))
        chosen = getattr(reply, "codec", None)
        if chosen is not None and chosen != self._codec.name:
            residue = self._codec.residue()
            self._codec = make_codec(chosen, decodes="server")
            if residue:
                self._inbox = self._codec.feed(residue)
                self._next = 0
        return reply


class PullStats:
    """What the worker connections of one pass observed.

    ``stride`` and ``read_cpu_ns`` turn on **segment marks**: every
    ``stride`` accepted completions the stats record ``(time, accepted,
    program CPU ns)``.  The pass reports the *median* segment rate and
    CPU per task, which a burst of interference on a shared box cannot
    move the way it moves a whole-run mean.
    """

    def __init__(self, stride: int = 0,
                 read_cpu_ns: Optional[Callable[[], int]] = None) -> None:
        self.stride = stride
        self.read_cpu_ns = read_cpu_ns
        self.marks: List[Tuple[float, int, int]] = []
        self._next_mark = stride
        self.pull_latencies: List[float] = []
        self.granted = 0
        self.accepted = 0
        self.rejected = 0
        self.first_hello: Optional[float] = None
        self.last_ack: Optional[float] = None
        #: When the first pull reply arrived since this was last set to
        #: None (the durable workload clears it at the restart).
        self.first_reply: Optional[float] = None
        #: Per worker name: tasks whose completion was accepted.
        self.by_worker: Dict[str, int] = {}
        #: Per (worker name, job id): when its first task arrived.
        self.first_task_at: Dict[tuple, float] = {}

    def mark(self, now: float) -> None:
        self.marks.append((now, self.accepted, self.read_cpu_ns()))

    def accept(self, worker: str, now: float) -> None:
        """One TASK_DONE was acknowledged as accepted."""
        self.accepted += 1
        self.by_worker[worker] = self.by_worker.get(worker, 0) + 1
        self.last_ack = now
        if self.stride and self.accepted >= self._next_mark:
            self._next_mark += self.stride
            self.mark(now)


class Worker:
    """One closed-loop pull worker on one connection.

    ``k`` is the prefetch depth (``k == 1`` sends a plain
    ``REQUEST_TASK`` and gets ``TASK``; ``k > 1`` asks for
    ``max_tasks=k`` and gets ``TASK_BATCH``).  ``job_id`` scopes the
    pulls.  ``work_s`` is simulated compute per task (a sleep).  The
    cache mirror outlives reconnects, so a recovered server sees a
    continuous ``FILE_DELTA`` stream.
    """

    def __init__(self, name: str, site: int, k: int, capacity: int,
                 stats: PullStats, counters: WireCounters,
                 job_id: Optional[int] = None, work_s: float = 0.0):
        self.name = name
        self.site = site
        self.k = k
        self.job_id = job_id
        self.work_s = work_s
        self.cache = SiteCacheMirror(capacity)
        self.stats = stats
        self.counters = counters
        self.stop_reason: Optional[str] = None

    async def run(self, host: str, port: int,
                  quota: Optional[int] = None) -> None:
        """Pull until ``NO_TASK`` — or, with ``quota``, until exactly
        that many tasks were granted and acknowledged (the worker then
        holds no lease: a quiescent stop)."""
        stats = self.stats
        conn = Conn(self.counters)
        await conn.open(host, port)
        try:
            if stats.first_hello is None:
                stats.first_hello = time.perf_counter()
                if stats.stride:
                    stats.mark(stats.first_hello)
            welcome = await conn.hello(self.name, self.site)
            if not isinstance(welcome, messages.Welcome):
                raise RuntimeError(f"expected WELCOME, got {welcome}")
            unacked = 0  # TASK_DONE + FILE_DELTA replies still owed
            granted = 0
            while quota is None or granted < quota:
                want = self.k if quota is None \
                    else min(self.k, quota - granted)
                conn.send(messages.RequestTask(
                    job_id=self.job_id,
                    max_tasks=None if self.k == 1 else want))
                conn.flush()
                sent_at = time.perf_counter()
                await self._consume_acks(conn, unacked)
                reply = await conn.recv()
                now = time.perf_counter()
                stats.pull_latencies.append(now - sent_at)
                if stats.first_reply is None:
                    stats.first_reply = now
                if isinstance(reply, messages.NoTask):
                    self.stop_reason = reply.reason
                    return
                if isinstance(reply, messages.TaskBatch):
                    assignments = reply.tasks
                elif isinstance(reply, messages.TaskAssign):
                    assignments = [{"task_id": reply.task_id,
                                    "lease_id": reply.lease_id,
                                    "job_id": reply.job_id,
                                    "files": reply.files}]
                else:
                    raise RuntimeError(f"expected a task, got {reply}")
                stats.first_task_at.setdefault(
                    (self.name, assignments[0]["job_id"]), now)
                granted += len(assignments)
                stats.granted += len(assignments)
                unacked = self._report(conn, assignments)
                if self.work_s:
                    await asyncio.sleep(self.work_s * len(assignments))
            conn.flush()
            await self._consume_acks(conn, unacked)
            self.stop_reason = "quota"
        finally:
            await conn.close()

    def _report(self, conn: Conn, assignments: List[dict]) -> int:
        """Buffer the batch's TASK_DONEs and its one merged
        FILE_DELTA (net add/remove per file, every reference kept)."""
        net: Dict[int, bool] = {}
        referenced: List[int] = []
        for entry in assignments:
            files = entry["files"]
            delta = self.cache.admit(files)
            for fid in delta["removed"]:
                if net.get(fid) is True:
                    del net[fid]
                else:
                    net[fid] = False
            for fid in delta["added"]:
                if net.get(fid) is False:
                    del net[fid]
                else:
                    net[fid] = True
            referenced.extend(files)
            conn.send(messages.TaskDone(task_id=entry["task_id"],
                                        lease_id=entry["lease_id"]))
        conn.send(messages.FileDelta(
            site=self.site,
            added=sorted(f for f, op in net.items() if op),
            removed=sorted(f for f, op in net.items() if not op),
            referenced=referenced))
        return len(assignments) + 1

    async def _consume_acks(self, conn: Conn, count: int) -> None:
        """Read ``count`` owed replies: TASK_DONE acks, then the
        FILE_DELTA ack (send order)."""
        stats = self.stats
        for index in range(count):
            reply = await conn.recv()
            if index == count - 1:
                continue  # the FILE_DELTA ack
            if isinstance(reply, messages.Ack) and reply.accepted:
                stats.accept(self.name, time.perf_counter())
            else:
                stats.rejected += 1


class Control:
    """The control connection: submit, status, stats, drain."""

    def __init__(self, counters: WireCounters, name: str = "bench-control"):
        self.conn = Conn(counters)
        self.name = name
        self.redirect: Optional[messages.Redirect] = None
        self.redirect_s: Optional[float] = None

    async def open(self, host: str, port: int,
                   cluster: bool = False) -> None:
        await self.conn.open(host, port)
        start = time.perf_counter()
        reply = await self.conn.hello(
            self.name, 0, accept_redirect=True if cluster else None)
        if cluster:
            if not isinstance(reply, messages.Redirect):
                raise RuntimeError(f"expected REDIRECT, got {reply}")
            self.redirect = reply
            self.redirect_s = time.perf_counter() - start
        elif not isinstance(reply, messages.Welcome):
            raise RuntimeError(f"expected WELCOME, got {reply}")

    async def close(self) -> None:
        await self.conn.close()

    async def submit(self, specs: List[dict]) -> Dict:
        """Chunked JOB_SUBMIT; returns ``{job_id, accepted, seconds}``
        timed from the first chunk written to the last one accepted."""
        job_id: Optional[int] = None
        accepted = 0
        start = time.perf_counter()
        for offset in range(0, len(specs), SUBMIT_CHUNK):
            reply = await self.conn.call(messages.JobSubmit(
                tasks=specs[offset:offset + SUBMIT_CHUNK],
                job_id=job_id))
            if not isinstance(reply, messages.JobAccepted):
                raise RuntimeError(f"expected JOB_ACCEPTED, got {reply}")
            job_id = reply.job_id
            accepted += len(reply.task_ids)
        return {"job_id": job_id, "accepted": accepted,
                "seconds": time.perf_counter() - start}

    async def status(self, job_id: int) -> messages.JobStatusReply:
        reply = await self.conn.call(
            messages.JobStatusRequest(job_id=job_id))
        if not isinstance(reply, messages.JobStatusReply):
            raise RuntimeError(f"expected JOB_STATUS, got {reply}")
        return reply

    async def stats(self) -> Dict:
        reply = await self.conn.call(messages.StatsRequest())
        if not isinstance(reply, messages.StatsReply):
            raise RuntimeError(f"expected STATS, got {reply}")
        return reply.stats

    async def drain(self) -> None:
        reply = await self.conn.call(messages.Drain())
        if not isinstance(reply, messages.Ack):
            raise RuntimeError(f"expected ACK, got {reply}")
