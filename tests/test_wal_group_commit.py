"""Group commit at the socket: no byte leaves ahead of its WAL records.

A durable shard (``open_shard``) behind a live ``SchedulerServer``,
with ``asyncio.StreamWriter.write`` spied.  At every write a durable
process makes — a front end's reply burst, a thief's peer call — a
second file handle must read that process's WAL as complete lines,
``seq`` 0 up to ``events.next_seq - 1``: whatever the process decided
so far is in the OS before anything it sends could reveal it.  And
the commits are grouped: fewer commits than records over the run.
"""

import asyncio
import json

from repro.cluster.shard import open_shard, wal_files
from repro.cluster.steal import StealManager
from repro.obs.events import EventLog
from repro.serve import messages
from repro.serve.client import _Connection
from repro.serve.server import SchedulerServer

TIMEOUT = 30


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


def read_wal(state_dir):
    """The WAL as a reader outside the process sees it."""
    records = []
    for path in wal_files(state_dir):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert text == "" or text.endswith("\n"), "torn line on disk"
        records += [json.loads(line) for line in text.splitlines()]
    return records


class Barrier:
    """Spies every transport write and checks the writer's WAL."""

    def __init__(self, monkeypatch):
        #: (is this write the process's?, its state dir, its log)
        self.owners = []
        self.checked = 0
        #: Writes that left ahead of a record: (state dir, seqs on
        #: disk, ``next_seq``).  Collected, not raised, so the server
        #: under test keeps running and the test names the write.
        self.early = []
        self.commits = 0
        write = asyncio.StreamWriter.write
        flush = EventLog.flush

        def spied_write(writer, data):
            for owns, state_dir, events in self.owners:
                if owns(writer):
                    seqs = [record["seq"] for record in read_wal(state_dir)]
                    if seqs != list(range(events.next_seq)):
                        self.early.append((state_dir, seqs,
                                           events.next_seq))
                    self.checked += 1
            return write(writer, data)

        def counted_flush(events):
            self.commits += 1
            return flush(events)

        monkeypatch.setattr(asyncio.StreamWriter, "write", spied_write)
        monkeypatch.setattr(EventLog, "flush", counted_flush)

    def serve(self, shard, state_dir):
        """A live server over ``shard``; its replies are checked."""
        server = SchedulerServer(shard.service)
        self.owners.append((server._connections.__contains__, state_dir,
                            shard.events))
        return server


async def worker(server, name, site=0):
    conn = _Connection(server.host, server.port)
    await conn.open()
    await conn.hello(name, site)
    return conn


async def submit(server, count, base=0):
    conn = await worker(server, "control")
    accepted = await conn.call(messages.JobSubmit(
        tasks=[{"files": [base + index, base + index + 1]}
               for index in range(count)]))
    await conn.close()
    return accepted.job_id


async def until(predicate):
    while not predicate():
        await asyncio.sleep(0.005)


def test_every_reply_and_peer_call_follows_its_commit(tmp_path,
                                                      monkeypatch):
    barrier = Barrier(monkeypatch)

    async def body():
        victim_dir, thief_dir = (str(tmp_path / "shard-0"),
                                 str(tmp_path / "shard-1"))
        victim = open_shard(victim_dir, metric="combined", n=2,
                            shard_index=0, shard_count=2,
                            steal_watermark=1)
        thief = open_shard(thief_dir, metric="combined", n=2,
                           shard_index=1, shard_count=2,
                           steal_watermark=1)
        victim_server = barrier.serve(victim, victim_dir)
        thief_server = barrier.serve(thief, thief_dir)
        await victim_server.start()
        await thief_server.start()
        try:
            # 1. A k=8 pull, then its pipelined TASK_DONE x 8 +
            # FILE_DELTA + next pull in one burst.
            job = await submit(victim_server, 16)
            conn = await worker(victim_server, "w0")
            batch = await conn.call(
                messages.RequestTask(job_id=job, max_tasks=8))
            assert len(batch.tasks) == 8
            for _ in range(2):
                files = sorted({fid for task in batch.tasks
                                for fid in task["files"]})
                for task in batch.tasks:
                    conn.send_nowait(messages.TaskDone(
                        task_id=task["task_id"],
                        lease_id=task["lease_id"]))
                conn.send_nowait(messages.FileDelta(
                    site=0, added=files, removed=[], referenced=files))
                batch = await conn.call(
                    messages.RequestTask(job_id=job, max_tasks=8))
            assert isinstance(batch, messages.NoTask)
            await conn.close()

            # 2. A parked pull answered by another connection's
            # completion: B's job-done reveals A's ``complete``s.
            job = await submit(victim_server, 2, base=100)
            a = await worker(victim_server, "a")
            b = await worker(victim_server, "b", site=1)
            held = await a.call(
                messages.RequestTask(job_id=job, max_tasks=2))
            parked = asyncio.create_task(
                b.call(messages.RequestTask(job_id=job)))
            await until(lambda: victim.service.parked_workers == 1)
            for task in held.tasks:
                a.send_nowait(messages.TaskDone(
                    task_id=task["task_id"], lease_id=task["lease_id"]))
            await a.drain_replies()
            assert (await parked).reason == "job-done"
            await a.close()
            await b.close()

            # 3. The thief's STEAL_ACK: the tentative import is in the
            # thief's WAL before the ack leaves, and the stolen task
            # reaches the parked thief-side worker the same way.
            await submit(victim_server, 8, base=200)
            idle = await worker(thief_server, "tw")
            fed = asyncio.create_task(idle.call(messages.RequestTask()))
            await until(lambda: thief.service.parked_workers == 1)
            manager = StealManager(
                thief.service, 1,
                peers={0: (victim_server.host, victim_server.port)})
            tick = asyncio.create_task(manager.tick())
            barrier.owners.append(
                (lambda _writer: asyncio.current_task() is tick,
                 thief_dir, thief.events))
            await tick
            assert manager.steal_grants == 1
            assert isinstance(await fed, messages.TaskAssign)
            await idle.close()
            await manager.stop()
        finally:
            await thief_server.stop()
            await victim_server.stop()
        return victim.events.emitted + thief.events.emitted

    records = run(body())
    assert barrier.early == []
    assert barrier.checked > 20
    assert barrier.commits < records
    assert [record["event"] for record in read_wal(tmp_path / "shard-1")
            if record["event"].startswith("steal")] == \
        ["steal-import", "steal-import-commit"]
