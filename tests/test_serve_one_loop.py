"""One worker pull loop: ``batch=1`` is a batch of one, pipelined.

``WorkerClient`` used to run an unpipelined loop at ``batch=1`` — a
round trip each for ``FILE_DELTA``, ``TASK_DONE`` and ``REQUEST_TASK``
— and the pipelined one above it.  There is one loop now.  At
``batch=1`` it keeps the old wire shapes (``REQUEST_TASK`` without
``max_tasks``, a ``TASK`` back) and the old decisions: the reports of
a task still all reach the scheduler before the next pull does, they
just share its write burst.
"""

import asyncio

from repro.obs.events import EventLog
from repro.serve import client as client_module
from repro.serve import messages
from repro.serve.client import (SchedulerClient, SiteCacheMirror,
                                WorkerClient)
from repro.serve.server import SchedulerServer
from repro.serve.service import Assignment, SchedulerService

from test_serve_e2e import TIMEOUT, coadd_job

OPTIONS = dict(metric="combined", n=2, seed=21)
SITE = 0
#: Small enough that the LRU mirror evicts, so deltas carry removals.
CAPACITY = 120


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


def specs_of(job):
    return [{"files": sorted(task.files), "flops": task.flops}
            for task in job]


def assigns(events):
    return [(record["task_id"], record["lease_id"])
            for record in events.tail() if record["event"] == "assign"]


async def pull_over_the_wire(job, spy=None):
    """One ``batch=1`` worker drains ``job`` from a real server."""
    service = SchedulerService(events=EventLog(ring_size=1 << 16),
                               **OPTIONS)
    server = SchedulerServer(service)
    await server.start()
    try:
        async with SchedulerClient(server.host, server.port,
                                   site=SITE) as control:
            handle = await control.submit(specs_of(job))
            if spy is not None:
                spy.clear()  # keep the worker's messages only
            summary = await WorkerClient(
                server.host, server.port, site=SITE,
                capacity_files=CAPACITY, job_id=handle.job_id,
                batch=1, codec="json").run()
    finally:
        await server.stop()
    assert summary["tasks_done"] == len(job)
    return service


def pull_in_the_old_order(job):
    """The retired loop, sans IO: per task a delta, a done, a pull."""
    service = SchedulerService(events=EventLog(ring_size=1 << 16),
                               **OPTIONS)
    service.ensure_site(SITE)  # what the control client's HELLO does
    job_id = service.submit_job(specs_of(job))["job_id"]
    cache = SiteCacheMirror(CAPACITY)
    answers = []
    while True:
        service.request_task("w0", SITE, answers.append, job_id=job_id)
        granted = answers.pop()
        if not isinstance(granted, Assignment):
            assert granted == "job-done"
            return service
        files = sorted(granted.task.files)
        delta = cache.admit(files)
        service.file_delta(SITE, added=delta["added"],
                           removed=delta["removed"], referenced=files)
        assert service.task_done("w0", granted.task.task_id,
                                 granted.lease_id).accepted


def test_batch_one_makes_the_old_loops_decisions():
    job = coadd_job(40, seed=3)
    wired = run(pull_over_the_wire(job))
    reference = pull_in_the_old_order(job)
    assert len(assigns(wired.events)) == len(job)
    assert assigns(wired.events) == assigns(reference.events)
    assert wired.engine.rng.getstate() == reference.engine.rng.getstate()
    removed = [record["removed"] for record in wired.events.tail()
               if record["event"] == "delta"]
    assert any(removed)  # the cache did churn


def test_batch_one_keeps_the_single_task_wire_shapes(monkeypatch):
    """Transcript of one ``batch=1`` worker: never ``max_tasks`` out,
    never ``TASK_BATCH`` in, and after the opening pull every burst is
    done, delta, pull — answered ack, ack, task."""
    seen = []
    connection = client_module._Connection
    real_send, real_exchange, real_read = (
        connection.send_nowait, connection.exchange,
        connection._read_reply)

    def send_nowait(self, message, on_reply=None):
        seen.append(message)
        real_send(self, message, on_reply)

    async def exchange(self, message):
        seen.append(message)
        return await real_exchange(self, message)

    async def read_reply(self):
        reply = await real_read(self)
        seen.append(reply)
        return reply

    monkeypatch.setattr(connection, "send_nowait", send_nowait)
    monkeypatch.setattr(connection, "exchange", exchange)
    monkeypatch.setattr(connection, "_read_reply", read_reply)
    job = coadd_job(5, seed=1)
    run(pull_over_the_wire(job, spy=seen))
    burst = ["TASK_DONE", "FILE_DELTA", "REQUEST_TASK",
             "ACK", "ACK", "TASK"]
    assert [message.TYPE for message in seen] == (
        ["HELLO", "WELCOME", "REQUEST_TASK", "TASK"]
        + burst * (len(job) - 1) + burst[:-1] + ["NO_TASK"])
    assert all(message.max_tasks is None for message in seen
               if isinstance(message, messages.RequestTask))
