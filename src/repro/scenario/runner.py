"""Drive one scenario against live in-process daemons.

The runner owns the whole story: it boots ``scenario.shards``
:class:`~repro.serve.server.SchedulerServer` s on ephemeral ports (N =
1 for all but the work-stealing scenario; each with the scenario's
admission watermark / replication switches and one shared server-side
JSONL event log), plays the tenants' submission waves and the worker
groups' joins/kills/stalls against them over real TCP, samples the
pending-queue depth throughout, and folds the event log into
per-tenant latency distributions at the end.

Workers are :class:`~repro.serve.client.WorkerClient` pull loops in a
re-pull wrapper: a ``NO_TASK (idle|job-done)`` between submission
waves means *no work right now*, not *the scenario is over*, so the
wrapper reconnects until the orchestrator flags the run finished and
drains the server.  Killed workers are cancelled mid-task — the
connection drops with leases in flight, which is the point.

Every run writes ``events.jsonl`` and ``summary.json`` into its own
directory and returns the summary dict; ``summary["passed"]`` is the
AND of the scenario's declared checks.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
from typing import Dict, List, Optional

from ..analysis.eventlog import load_timelines
from ..cluster.stats import aggregate_stats
from ..cluster.steal import StealManager
from ..obs.events import EventLog, iter_events
from ..serve import messages
from ..serve.client import SchedulerClient, WorkerClient
from ..serve.codec import JsonLinesCodec
from ..serve.server import SchedulerServer
from ..serve.service import SchedulerService
from .definitions import Scenario, TenantSpec, build_tasks
from .summary import percentile

__all__ = ["run_scenario", "QUICK_FACTOR", "CHECKS"]

#: ``--quick`` task-count multiplier (floored per tenant).
QUICK_FACTOR = 0.15

#: Queue-depth sampling cadence, seconds.
_SAMPLE_INTERVAL = 0.005

#: Wave size cap so one submit can't blow straight past a watermark.
_WAVE_CHUNK = 50


class _Run:
    """Mutable state shared by the orchestrator's coroutines."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.finished = asyncio.Event()
        #: tenant name -> job id, set once the first wave lands.
        self.jobs: Dict[str, int] = {}
        self.job_ready: Dict[str, asyncio.Event] = {
            spec.name: asyncio.Event() for spec in scenario.tenants}
        self.submitted: Dict[str, int] = {
            spec.name: 0 for spec in scenario.tenants}
        self.max_queue_depth = 0
        self.depth_curve: List[List[float]] = []
        self.worker_summaries: List[Dict] = []


async def _submit_tenant(run: _Run, host: str, port: int,
                         spec: TenantSpec, index: int) -> None:
    if spec.submit_at > 0:
        await asyncio.sleep(spec.submit_at)
    tasks = build_tasks(spec, run.scenario.seed,
                        pool_offset=index * 100_000)
    waves = max(1, min(spec.waves, len(tasks)))
    per_wave = (len(tasks) + waves - 1) // waves
    async with SchedulerClient(host, port,
                               name=f"tenant-{spec.name}") as client:
        job_id: Optional[int] = None
        for start in range(0, len(tasks), per_wave):
            if start and spec.wave_interval > 0:
                await asyncio.sleep(spec.wave_interval)
            wave = tasks[start:start + per_wave]
            for piece_start in range(0, len(wave), _WAVE_CHUNK):
                piece = wave[piece_start:piece_start + _WAVE_CHUNK]
                handle = await client.submit(
                    piece, weight=spec.weight, max_retries=200,
                    extend_job_id=job_id)
                job_id = handle.job_id
                run.submitted[spec.name] += len(piece)
                if spec.name not in run.jobs:
                    run.jobs[spec.name] = job_id
                    run.job_ready[spec.name].set()


async def _run_worker(run: _Run, host: str, port: int, group,
                      index: int) -> Dict:
    name = f"{group.name}-{index}"
    site = group.site_offset + (index % max(1, group.sites))
    if group.join_at > 0:
        await asyncio.sleep(group.join_at)
    job_id: Optional[int] = None
    if group.tenant is not None:
        await run.job_ready[group.tenant].wait()
        job_id = run.jobs[group.tenant]
    worker = WorkerClient(host, port, worker=name, site=site,
                          capacity_files=group.capacity_files,
                          flops_per_sec=group.flops_per_sec,
                          seconds_per_file=group.seconds_per_file,
                          job_id=job_id, batch=group.batch)

    async def pull_until_finished() -> Dict:
        # ``idle``/``job-done`` between waves only means "right now":
        # reconnect and keep pulling until the orchestrator says the
        # story is over (the final answer is then ``draining``).
        summary: Dict = {"worker": name, "site": site,
                         "tasks_done": 0, "stop_reason": None}
        while True:
            try:
                summary = await worker.run()
            except (ConnectionError, OSError):
                if run.finished.is_set():
                    # The drain completed between our last NO_TASK and
                    # this reconnect; the server is simply gone.
                    summary["stop_reason"] = "drained"
                    summary["tasks_done"] = worker.tasks_done
                    return summary
                raise
            reason = summary.get("stop_reason")
            if reason == "draining" or run.finished.is_set():
                return summary
            await asyncio.sleep(0.02)
            if run.finished.is_set():
                return summary

    task = asyncio.create_task(pull_until_finished())
    if group.kill_after is None:
        return await task
    done, _ = await asyncio.wait({task}, timeout=group.kill_after)
    if done:
        return task.result()
    task.cancel()
    with contextlib.suppress(asyncio.CancelledError, Exception):
        await task
    return {"worker": name, "site": site, "killed": True,
            "tasks_done": worker.tasks_done,
            "files_fetched": worker.files_fetched,
            "rejected_completions": worker.rejected_completions,
            "stop_reason": "killed"}


async def _slow_reader(run: _Run, host: str, port: int,
                       index: int) -> None:
    """Solicit replies and never read them until the run ends."""
    codec = JsonLinesCodec()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(codec.encode(messages.Hello(
            worker=f"slacker-{index}", site=0, protocol=3)))
        stats_line = codec.encode(messages.StatsRequest())
        # A burst of pipelined requests whose replies pile up in the
        # server's write buffer — never read, the jammed-socket case.
        for _ in range(50):
            writer.write(stats_line)
        await writer.drain()
        await run.finished.wait()
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


async def _sample_depth(run: _Run, services: List[SchedulerService],
                        started_at: float) -> None:
    loop = asyncio.get_running_loop()
    while True:
        depth = sum(service.queue_depth for service in services)
        if depth > run.max_queue_depth:
            run.max_queue_depth = depth
        if len(run.depth_curve) < 5000:
            run.depth_curve.append(
                [round(loop.time() - started_at, 4), depth])
        await asyncio.sleep(_SAMPLE_INTERVAL)


def _latency_block(values: List[float]) -> Dict:
    values = sorted(v for v in values if v is not None)
    if not values:
        return {"samples": 0, "p50": None, "p99": None, "max": None}
    return {"samples": len(values),
            "p50": round(percentile(values, 50.0), 6),
            "p99": round(percentile(values, 99.0), 6),
            "max": round(values[-1], 6)}


def _evaluate_checks(run: _Run, summary: Dict) -> List[Dict]:
    scenario = run.scenario
    results = []
    for name in scenario.checks:
        check = CHECKS.get(name)
        if check is None:
            results.append({"name": name, "passed": False,
                            "detail": "unknown check"})
            continue
        passed, detail = check(run, summary)
        results.append({"name": name, "passed": bool(passed),
                        "detail": detail})
    return results


def _check_audit_clean(run: _Run, summary: Dict):
    audit = summary["audit"]
    return (audit["clean"],
            f"lost={audit['lost']} "
            f"double_counted={audit['double_counted']}")


def _check_all_jobs_complete(run: _Run, summary: Dict):
    missing = {name: tenant for name, tenant
               in summary["tenants"].items()
               if tenant["completed"] < tenant["submitted"]}
    if not missing:
        return True, "every tenant's job ran to completion"
    return False, ", ".join(
        f"{name}: {t['completed']}/{t['submitted']}"
        for name, t in sorted(missing.items()))


def _check_watermark_held(run: _Run, summary: Dict):
    watermark = run.scenario.admission_watermark
    if watermark is None:
        return False, "scenario has no admission watermark"
    peak = summary["admission"]["max_queue_depth"]
    return (peak <= watermark,
            f"peak queue depth {peak} vs watermark {watermark}")


def _check_admission_engaged(run: _Run, summary: Dict):
    rejections = summary["admission"]["rejections"]
    return (rejections > 0,
            f"{rejections} JOB_SUBMIT(s) bounced off the watermark")


def _check_p99_queue_wait(run: _Run, summary: Dict):
    bound = run.scenario.p99_queue_wait_bound
    if bound is None:
        return False, "scenario sets no p99 queue-wait bound"
    worst = 0.0
    for tenant in summary["tenants"].values():
        p99 = tenant["queue_wait"]["p99"]
        if p99 is not None:
            worst = max(worst, p99)
    return worst <= bound, f"worst tenant p99 {worst:.3f}s vs {bound}s"


def _check_weighted_fair(run: _Run, summary: Dict):
    shares = summary.get("fair_shares")
    if not shares:
        return False, "no fair-share window measured"
    tolerance = run.scenario.fair_share_tolerance
    worst = max(abs(entry["observed"] - entry["expected"])
                for entry in shares.values())
    detail = ", ".join(
        f"{name}: {entry['observed']:.2f} vs {entry['expected']:.2f}"
        for name, entry in sorted(shares.items()))
    return worst <= tolerance, f"{detail} (tolerance {tolerance})"


def _check_replication_engaged(run: _Run, summary: Dict):
    granted = summary["replication"]["granted"]
    return granted > 0, f"{granted} replica lease(s) granted"


def _check_no_double_count(run: _Run, summary: Dict):
    doubles = summary["audit"]["double_counted"]
    wins = summary["replication"]["replica_wins"]
    return (doubles == 0,
            f"double_counted={doubles} (replica wins: {wins})")


def _check_steal_share(run: _Run, summary: Dict):
    """Work stealing moved a real share of the heavy tenant's tasks.

    The heavy tenant (largest task count) owns one shard; its
    assignments recorded on *other* shards can only come from steal
    imports.  Their share of the tenant's total must clear
    ``extra["steal_share_floor"]``.
    """
    scenario = run.scenario
    floor = scenario.extra.get("steal_share_floor")
    if floor is None:
        return False, "scenario sets no extra['steal_share_floor']"
    heavy_index, heavy = max(enumerate(scenario.tenants),
                             key=lambda pair: pair[1].tasks)
    owner = heavy_index % max(1, scenario.shards)
    job_id = run.jobs.get(heavy.name)
    counts = {index: snap.get("tenants", {}).get(str(job_id), 0)
              for index, snap in summary["stats"].get("shards",
                                                      {}).items()
              if "error" not in snap}
    total = sum(counts.values())
    if not total:
        return False, (f"no assignments recorded for heavy tenant "
                       f"{heavy.name!r}")
    foreign = total - counts.get(str(owner), 0)
    share = foreign / total
    stolen = summary["stats"].get("steal", {}).get("tasks_stolen", 0)
    return (share >= float(floor),
            f"{foreign}/{total} heavy-tenant assignments ({share:.0%}) "
            f"ran off owner shard {owner}; {stolen} task(s) stolen "
            f"cluster-wide (floor {float(floor):.0%})")


CHECKS = {
    "audit-clean": _check_audit_clean,
    "all-jobs-complete": _check_all_jobs_complete,
    "watermark-held": _check_watermark_held,
    "admission-engaged": _check_admission_engaged,
    "p99-queue-wait-bounded": _check_p99_queue_wait,
    "weighted-fair": _check_weighted_fair,
    "replication-engaged": _check_replication_engaged,
    "no-double-count": _check_no_double_count,
    "steal-share": _check_steal_share,
}


def _fair_share_window(events_path: str, jobs: Dict[str, int],
                       submitted: Dict[str, int],
                       weights: Dict[str, Optional[float]]) -> Dict:
    """Observed vs expected assignment shares while all tenants live.

    Measured over the first K primary assignments (K = the smallest
    tenant's task count) so every tenant still has pending work across
    the whole window — afterwards the exhausted tenants' shares
    necessarily drift toward zero.
    """
    if len(jobs) < 2:
        return {}
    window = min(submitted.values())
    by_job = {job_id: name for name, job_id in jobs.items()}
    counts = {name: 0 for name in jobs}
    seen = 0
    for event in iter_events(events_path):
        if event.get("event") != "assign" or event.get("replica"):
            continue
        name = by_job.get(event.get("job_id"))
        if name is None:
            continue
        counts[name] += 1
        seen += 1
        if seen >= window:
            break
    if seen == 0:
        return {}
    total_weight = sum(weights.get(name) or 1.0 for name in jobs)
    return {name: {"observed": counts[name] / seen,
                   "expected": (weights.get(name) or 1.0)
                   / total_weight,
                   "assignments": counts[name]}
            for name in jobs}


async def _run_body(run: _Run, out_dir: str, quick: bool) -> Dict:
    """Boot ``scenario.shards`` in-process servers and play the story.

    The servers share ONE event log (the exactly-once audit folds it
    whatever N is).  Each tenant lands on shard ``tenant_index % N``;
    worker groups scoped to a tenant follow it, unscoped ones pin to
    shard ``worker_index % N`` — the deployment shape where a drained
    shard's parked fleet is fed by stealing, for which a
    :class:`~repro.cluster.steal.StealManager` per shard is armed
    when the scenario sets ``steal_watermark``.
    """
    scenario = run.scenario
    events_path = os.path.join(out_dir, "events.jsonl")
    # The log appends by design; a rerun into the same out-dir must
    # start from a clean file or the timeline fold sees both runs.
    if os.path.exists(events_path):
        os.remove(events_path)
    events = EventLog(path=events_path)
    servers: List[SchedulerServer] = []
    for index in range(scenario.shards):
        service = SchedulerService(
            metric=scenario.metric, n=scenario.n, seed=scenario.seed,
            name=f"scenario-{scenario.name}-shard{index}",
            lease_ttl=scenario.lease_ttl, events=events,
            id_start=index, id_stride=scenario.shards,
            admission_watermark=scenario.admission_watermark,
            admission_retry_after=scenario.admission_retry_after,
            replicate_tail=scenario.replicate_stragglers,
            max_replicas=scenario.max_replicas,
            steal_watermark=scenario.steal_watermark)
        server = SchedulerServer(service, host="127.0.0.1", port=0)
        await server.start()
        servers.append(server)
    managers: List[StealManager] = []
    if scenario.steal_watermark is not None:
        for index, server in enumerate(servers):
            peers = {peer: (other.host, other.port)
                     for peer, other in enumerate(servers)
                     if peer != index}
            manager = StealManager(server.service, index,
                                   peers=peers, interval=0.005)
            await manager.start()
            managers.append(manager)
    serve_tasks = [asyncio.ensure_future(server.serve_until_drained())
                   for server in servers]
    loop = asyncio.get_running_loop()
    started_at = loop.time()
    sampler = asyncio.create_task(
        _sample_depth(run, [server.service for server in servers],
                      started_at))
    tenant_server = {
        spec.name: servers[index % scenario.shards]
        for index, spec in enumerate(scenario.tenants)}
    spawned: List[asyncio.Task] = []
    statuses: Dict[str, messages.JobStatusReply] = {}
    stats: Dict = {}
    try:
        submitters = [
            asyncio.create_task(_submit_tenant(
                run, tenant_server[spec.name].host,
                tenant_server[spec.name].port, spec, index))
            for index, spec in enumerate(scenario.tenants)]
        workers: List[asyncio.Task] = []
        for group in scenario.workers:
            for index in range(group.count):
                server = (tenant_server[group.tenant]
                          if group.tenant is not None
                          else servers[len(workers) % scenario.shards])
                workers.append(asyncio.create_task(_run_worker(
                    run, server.host, server.port, group, index)))
        slackers = [
            asyncio.create_task(_slow_reader(run, server.host,
                                             server.port, index))
            for index, server in zip(range(scenario.slow_readers),
                                     itertools.cycle(servers))]
        spawned = submitters + workers + slackers
        await asyncio.gather(*submitters)
        async with contextlib.AsyncExitStack() as stack:
            controls = {
                server: await stack.enter_async_context(SchedulerClient(
                    server.host, server.port, name="orchestrator"))
                for server in servers}
            while True:
                statuses = {
                    name: (await controls[tenant_server[name]].call(
                        messages.JobStatusRequest(job_id=job_id)))
                    for name, job_id in run.jobs.items()}
                if all(reply.done for reply in statuses.values()):
                    break
                await asyncio.sleep(0.02)
            stats = aggregate_stats(
                [(index, await controls[server].stats())
                 for index, server in enumerate(servers)])
            run.finished.set()
            for control in controls.values():
                await control.drain()
        run.worker_summaries = await asyncio.gather(*workers)
        await asyncio.gather(*slackers)
        await asyncio.gather(*serve_tasks)
    finally:
        # Also reached via wait_for cancellation on timeout: reap
        # every coroutine this run spawned so nothing leaks into the
        # caller's loop.
        for manager in managers:
            await manager.stop()
        for task in spawned:
            if not task.done():
                task.cancel()
        if spawned:
            await asyncio.gather(*spawned, return_exceptions=True)
        sampler.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await sampler
        for serve_task in serve_tasks:
            if not serve_task.done():
                serve_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await serve_task
        for server in servers:
            await server.stop()
        events.close()
    duration = loop.time() - started_at
    return _build_summary(run, statuses, stats, events_path, duration,
                          quick)


def _build_summary(run: _Run, statuses: Dict, stats: Dict,
                   events_path: str, duration: float,
                   quick: bool) -> Dict:
    scenario = run.scenario
    timelines = load_timelines(events_path)
    double_counted = 0
    completes_per_task: Dict[int, int] = {}
    for event in iter_events(events_path):
        if event.get("event") == "complete":
            task_id = event["task_id"]
            completes_per_task[task_id] = (
                completes_per_task.get(task_id, 0) + 1)
    double_counted = sum(count - 1
                         for count in completes_per_task.values()
                         if count > 1)
    tenants: Dict[str, Dict] = {}
    for spec in scenario.tenants:
        job_id = run.jobs.get(spec.name)
        status = statuses.get(spec.name)
        completed = status.completed if status is not None else 0
        lines = [line for line in timelines.values()
                 if line.job_id == job_id]
        tenants[spec.name] = {
            "job_id": job_id,
            "weight": spec.weight,
            "submitted": run.submitted[spec.name],
            "completed": completed,
            "lost": max(0, run.submitted[spec.name] - completed),
            "throughput_per_sec": (round(completed / duration, 3)
                                   if duration > 0 else None),
            "queue_wait": _latency_block(
                [line.queue_wait for line in lines]),
            "turnaround": _latency_block(
                [line.turnaround for line in lines]),
            "retries": sum(line.retries for line in lines),
        }
    submitted = sum(run.submitted.values())
    completed = sum(entry["completed"] for entry in tenants.values())
    audit = {
        "tasks_submitted": submitted,
        "completed": completed,
        "lost": max(0, submitted - completed),
        "double_counted": double_counted,
    }
    audit["clean"] = audit["lost"] == 0 and double_counted == 0
    killed = sum(1 for s in run.worker_summaries if s.get("killed"))
    summary = {
        "scenario": scenario.name,
        "description": scenario.description,
        "quick": quick,
        "duration": round(duration, 3),
        "tenants": tenants,
        "fleet": {
            "workers": len(run.worker_summaries),
            "killed": killed,
            "tasks_done": sum(s.get("tasks_done", 0)
                              for s in run.worker_summaries),
            "rejected_completions": sum(
                s.get("rejected_completions", 0)
                for s in run.worker_summaries),
            "summaries": run.worker_summaries,
        },
        "admission": {
            "watermark": scenario.admission_watermark,
            "rejections": stats.get("admission", {}).get(
                "rejections", 0),
            "max_queue_depth": run.max_queue_depth,
        },
        "replication": {
            "enabled": scenario.replicate_stragglers,
            "granted": stats.get("replication", {}).get("granted", 0),
            "replica_wins": stats.get("replication", {}).get(
                "replica_wins", 0),
        },
        "audit": audit,
        "depth_curve": run.depth_curve,
        "stats": stats,
        "event_log": events_path,
    }
    if len(run.jobs) > 1:
        summary["fair_shares"] = _fair_share_window(
            events_path, run.jobs, run.submitted,
            {spec.name: spec.weight for spec in scenario.tenants})
    summary["checks"] = _evaluate_checks(run, summary)
    summary["passed"] = all(check["passed"]
                            for check in summary["checks"])
    return summary


async def run_scenario(scenario: Scenario, out_dir: str,
                       quick: bool = False) -> Dict:
    """Run one scenario; writes events.jsonl + summary.json under
    ``out_dir/<scenario-name>/`` and returns the summary dict."""
    if quick:
        scenario = scenario.scaled(QUICK_FACTOR)
    run_dir = os.path.join(out_dir, scenario.name)
    os.makedirs(run_dir, exist_ok=True)
    run = _Run(scenario)
    try:
        summary = await asyncio.wait_for(
            _run_body(run, run_dir, quick), timeout=scenario.timeout)
    except asyncio.TimeoutError:
        summary = {
            "scenario": scenario.name, "quick": quick,
            "duration": scenario.timeout,
            "tenants": {}, "audit": {"tasks_submitted": 0,
                                     "completed": 0, "lost": 0,
                                     "double_counted": 0,
                                     "clean": False},
            "checks": [{"name": "timed-out", "passed": False,
                        "detail": f"run exceeded "
                                  f"{scenario.timeout:g}s"}],
            "passed": False,
        }
    summary_path = os.path.join(run_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    summary["summary_path"] = summary_path
    return summary
