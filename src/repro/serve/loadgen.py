"""Load generator: replay ``workload`` jobs against a live scheduler.

``run_load`` drives an already-listening address — a ``repro serve``
daemon or a ``repro cluster`` router, the handshake tells the clients
which: it submits each :class:`~repro.grid.job.Job` through one
:class:`SchedulerClient` (chunked ``JOB_SUBMIT`` messages extending
one job id; a router places each new job on a shard), spins up
``workers`` concurrent :class:`~repro.serve.client.WorkerClient` pull
loops spread round-robin over ``sites`` site ids and over the jobs —
each scoped to its job, so it stops on ``NO_TASK(job-done)`` even if
other tenants keep the server busy, and pulls straight from the shard
owning that job — waits for the fleet, confirms every job completed
via its :class:`JobHandle`, then pulls a ``STATS`` snapshot (the
router's is the cross-shard aggregate) and optionally drains.

``serve_and_load`` bundles server + load into one event loop for
tests, benchmarks and single-command demos.

Throughput lever: ``batch=k`` gives every worker a prefetch depth of
k (``TASK_BATCH`` pulls; the default 1 is a batch of one through the
same pipelined loop).  Each worker reports its cache changes itself,
one merged ``FILE_DELTA`` per grant on its own connection.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Dict, Optional, Sequence

from ..grid.job import Job
from ..obs.events import EventLog
from .client import (SUBMIT_CHUNK, JobHandle, SchedulerClient,
                     WorkerClient)
from .server import SchedulerServer
from .service import SchedulerService

__all__ = ["SUBMIT_CHUNK", "run_load", "serve_and_load",
           "SchedulerClient", "JobHandle"]


async def run_load(host: str, port: int, jobs: Sequence[Job],
                   workers: int = 8, sites: int = 4,
                   capacity_files: int = 600,
                   flops_per_sec: float = 0.0,
                   seconds_per_file: float = 0.0,
                   drain: bool = True,
                   event_log: Optional[str] = None,
                   batch: int = 1,
                   codec: str = "auto",
                   unscoped: bool = False) -> Dict:
    """Submit ``jobs``, run the worker fleet, return a load report.

    ``event_log`` writes the client-side view of the run — submit,
    every assign/delta/complete as each worker saw it — as JSON lines
    to that path, ready for
    :func:`repro.analysis.eventlog.load_timelines` (how the recovery
    tests prove exactly-once completion across a shard kill).

    ``codec`` sets the fleet's negotiation stance (``auto``/``json``/
    ``binary``); the per-worker pick lands in each summary's
    ``codec`` field.

    ``unscoped`` is the work-stealing deployment shape: instead of
    scoping each worker to one job, workers are pinned round-robin to
    shards and pull from the global queue — a worker whose shard ran
    dry parks, and (with ``--steal-watermark``) its shard steals
    pending tasks from loaded peers to feed it.  The run then waits
    for every job to finish and drains to release the parked fleet,
    so ``drain`` is implied.
    """
    if not jobs:
        raise ValueError("need at least one job")
    if workers < 1 or sites < 1:
        raise ValueError("need at least one worker and one site")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    events = EventLog(path=event_log) if event_log else None
    async with contextlib.AsyncExitStack() as stack:
        if events is not None:
            stack.enter_context(events)
        control = await stack.enter_async_context(
            SchedulerClient(host, port, name="loadgen", codec=codec))
        handles = []
        for job in jobs:
            handle = await control.submit(job)
            handles.append(handle)
            if events is not None:
                events.emit("submit", job_id=handle.job_id,
                            tasks=len(handle.task_ids),
                            task_ids=handle.task_ids)
        fleet = [
            WorkerClient(host, port, worker=f"w{index}",
                         site=index % sites,
                         capacity_files=capacity_files,
                         flops_per_sec=flops_per_sec,
                         seconds_per_file=seconds_per_file,
                         job_id=(None if unscoped else
                                 handles[index % len(handles)].job_id),
                         events=events, batch=batch, codec=codec,
                         shard=(index % control.shard_count
                                if unscoped else None))
            for index in range(workers)
        ]
        running = [asyncio.ensure_future(worker.run())
                   for worker in fleet]
        if unscoped:
            # Unscoped pulls only stop on drain: wait out the jobs,
            # take the stats, then drain to release the parked fleet.
            for handle in handles:
                await handle.wait_done()
        else:
            await asyncio.gather(*running)
        job_statuses = [await handle.status() for handle in handles]
        stats = await control.stats()
        if drain or unscoped:
            await control.drain()
        summaries = await asyncio.gather(*running)
    submitted = sum(len(handle.task_ids) for handle in handles)
    completed = sum(status["completed"] for status in job_statuses)
    accepted = sum(s["tasks_done"] for s in summaries)
    # The server-side per-job counters are authoritative: a worker may
    # lose the ACK for a completion the WAL durably recorded, so the
    # client-side tally can undercount across a crash — ``lost`` uses
    # the server counters, and ``double_counted`` only fires when
    # workers collected MORE acks than tasks exist.
    audit = {
        "tasks_submitted": submitted,
        "completed": completed,
        "lost": max(0, submitted - completed),
        "double_counted": max(0, accepted - completed),
    }
    audit["clean"] = audit["lost"] == 0 and audit["double_counted"] == 0
    return {
        "shard_count": control.shard_count,
        "jobs": [{"job_id": handle.job_id,
                  "tasks_submitted": len(handle.task_ids),
                  "status": status}
                 for handle, status in zip(handles, job_statuses)],
        "tasks_submitted": submitted,
        "tasks_done": accepted,
        "files_fetched": sum(s["files_fetched"] for s in summaries),
        "reconnects": sum(s["reconnects"] for s in summaries),
        "batch": batch,
        "codec": codec,
        "workers": summaries,
        "audit": audit,
        "stats": stats,
        "event_log": event_log,
    }


async def serve_and_load(job: Job, workers: int = 8, sites: int = 4,
                         metric: str = "rest", n: int = 1, seed: int = 0,
                         capacity_files: int = 600,
                         flops_per_sec: float = 0.0,
                         seconds_per_file: float = 0.0,
                         lease_ttl: Optional[float] = None,
                         event_log: Optional[str] = None,
                         batch: int = 1,
                         codec: str = "auto") -> Dict:
    """In-process server + load run; returns the load report."""
    kwargs = {} if lease_ttl is None else {"lease_ttl": lease_ttl}
    service = SchedulerService(metric=metric, n=n, seed=seed, **kwargs)
    server = SchedulerServer(service)
    await server.start()
    serve_task = asyncio.ensure_future(server.serve_until_drained())
    try:
        report = await run_load(
            server.host, server.port, [job], workers=workers,
            sites=sites,
            capacity_files=capacity_files, flops_per_sec=flops_per_sec,
            seconds_per_file=seconds_per_file, drain=True,
            event_log=event_log, batch=batch, codec=codec)
        await serve_task
    finally:
        if not serve_task.done():
            serve_task.cancel()
        await server.stop()
    return report
