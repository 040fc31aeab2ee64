"""The six workloads: inputs, the drive against the real CLI, checks.

Each ``run_*`` function performs one **pass**: generate the inputs from
the seed, start the program (``repro serve`` / ``repro cluster`` /
``repro run``) as a subprocess, drive it, audit the outcome, reap the
processes and return a :class:`Pass` of raw measurements.  Metric
arithmetic lives in :mod:`bench.metrics`; this module only measures.

The seed reaches the input generators and nothing else: the program
always runs with its own default ``--seed 0`` (its ChooseTask(n)
stream) and sees only the generated tasks.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import shutil
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import spans
from .client import Control, PullStats, WireCounters, Worker
from .procs import Child, Sandbox

HOST = "127.0.0.1"
#: Wall-clock cap on one pass's drive; a pass that hits it counts every
#: operation as failed.
PASS_TIMEOUT = 120.0
#: Start the program this many times per pass; ``setup_s`` is the median.
SETUP_SAMPLES = 3
#: The pull phase is cut into this many equal-task segments; throughput
#: and CPU per task are the medians over them.
SEGMENTS = 200
#: Simulated compute per task on the cluster workload (a client sleep).
CLUSTER_WORK_S = 0.005
#: ``repro run`` seeds with pinned results in ``expected.json``.  The
#: seed also draws the simulated topology, and the run's cost swings by
#: 28 % with it (seeds 0-21 measured); these eight cost within ~3 % of
#: each other, so the spread between seeds measures the machine.
SIM_SEEDS = (0, 1, 3, 6, 11, 17, 18, 21)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                 # "serve", "cluster" or "sim"
    tasks: int                # at the nominal --seconds 10
    inputs: str = "light"
    metric: str = "rest"
    k: int = 1
    scoped: bool = False
    capacity: int = 600
    durable: bool = False
    #: Tasks submitted on top of ``tasks`` that are never pulled: they
    #: keep the queue deep so every decision costs about the same.
    backlog: int = 0


WORKLOADS = [
    Workload(
        "wire_rest_k8",
        "light unscoped rest pulls at k=8: bucketed ~10us decisions and "
        "tiny messages, so sockets, codec and leases do the work; "
        "bypasses the WAL and the linear scorer",
        kind="serve", tasks=80000, inputs="light", metric="rest", k=8),
    Workload(
        "durable_rest_k8",
        "the same traffic through --state-dir (WAL on) with a SIGKILL "
        "and restart at a quiescent 60% mark: the twin whose difference "
        "is WAL emit+flush, and the one that yields recovery time",
        kind="serve", tasks=40000, inputs="light", metric="rest", k=8,
        durable=True),
    Workload(
        "hotset_combined_k1",
        "combined, scoped k=1, every task holds one of 20 hot files so "
        "every pending task overlaps every site and choose scans the "
        "whole queue, kept ~10k deep: decision-bound",
        kind="serve", tasks=2800, inputs="hotset", metric="combined",
        scoped=True, capacity=2000, backlog=8000),
    Workload(
        "coadd_combined_k1",
        "the paper's Coadd job (~78 files/task) under combined, scoped "
        "k=1: cheap decisions, but id-list coding and overlap-index "
        "writes dominate",
        kind="serve", tasks=6000, inputs="coadd", metric="combined",
        scoped=True, capacity=6000),
    Workload(
        "cluster_skew_steal",
        "2 durable shards behind the real supervisor and router, one "
        "job with 5ms simulated work on shard 0, one worker pinned per "
        "shard: sleep-bound, measures redirect and steal logic",
        kind="cluster", tasks=2000, inputs="cluster", metric="combined"),
    Workload(
        "sim_coadd_6000",
        "repro run --scheduler combined.2 on the paper-scale Coadd job: "
        "pure CPU through sim/net/grid and the same PolicyEngine, so a "
        "serve-side kernel change that taxes the simulator shows",
        kind="sim", tasks=6000),
]
BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass
class Pass:
    """Raw measurements of one pass of one workload."""

    workload: str
    seed: int
    traced: bool
    tasks: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    setup_samples: List[float] = field(default_factory=list)
    spawn_samples: List[float] = field(default_factory=list)
    submit_s: float = 0.0
    submitted: int = 0
    pull_wall_s: float = 0.0
    completed: int = 0
    #: (time, accepted acks, program CPU ns) every 1/SEGMENTS of the job.
    marks: List[tuple] = field(default_factory=list)
    pull_latencies: List[float] = field(default_factory=list)
    program_cpu_s: float = 0.0
    peak_rss_kb: int = 0
    recovery_s: Optional[float] = None
    loadgen_cpu_s: float = 0.0
    #: Exact per-pass operation counts (traced and untraced passes of
    #: the same inputs must agree on these).
    counts: Dict[str, int] = field(default_factory=dict)
    #: Layer measurements taken by the benchmark process itself.
    extras: Dict[str, float] = field(default_factory=dict)
    fold: Optional[spans.Fold] = None

    def fail(self, problem: str, operations: int = 1) -> None:
        self.problems.append(problem)
        self.failed = min(self.attempted or operations,
                          self.failed + operations)


def scaled(workload: Workload, seconds: float) -> int:
    """Tasks pulled in a run of ``seconds`` (nominal sizes are for 10)."""
    if workload.kind == "sim":
        # Results are pinned in expected.json for two sizes only.
        return 6000 if seconds >= 5 else 600
    count = max(80, int(workload.tasks * seconds / 10.0))
    return count - count % 80  # whole k=8 batches per 30% quota


# -- input generators (the only consumers of the seed) -----------------

def light_inputs(seed: int, count: int) -> List[dict]:
    """One file of 300 per task: a tiny message, an O(1) decision."""
    rng = random.Random(seed)
    return [{"files": [rng.randrange(300)], "flops": 0.0}
            for _ in range(count)]


def hotset_inputs(seed: int, count: int) -> List[dict]:
    """One file from a 20-file hot set plus 4 from a 20k cold pool."""
    rng = random.Random(seed)
    return [{"files": sorted({rng.randrange(20)}
                             | {20 + fid for fid
                                in rng.sample(range(20000), 4)}),
             "flops": 0.0}
            for _ in range(count)]


def coadd_inputs(seed: int, count: int) -> List[dict]:
    """The paper's Coadd trace, through the program's own generator."""
    from repro.exp.config import ExperimentConfig
    from repro.exp.runner import build_job
    job = build_job(ExperimentConfig(num_tasks=count, seed=seed))
    return [{"files": sorted(task.files), "flops": task.flops}
            for task in job]


def cluster_inputs(seed: int, count: int) -> List[dict]:
    """Three files per task from a pool as large as the job, so a task
    overlaps only a handful of others and decisions stay cheap: the
    cluster workload is about the tier's logic, not the scorer."""
    rng = random.Random(seed)
    return [{"files": sorted(rng.sample(range(count), 3)), "flops": 1.0}
            for _ in range(count)]


INPUTS: Dict[str, Callable[[int, int], List[dict]]] = {
    "light": light_inputs, "hotset": hotset_inputs,
    "coadd": coadd_inputs, "cluster": cluster_inputs,
}


# -- shared helpers ------------------------------------------------------

@dataclass
class Started:
    """A program that is listening: its process, its port, and how long
    spawn-until-listening took."""
    child: Child
    port: int
    spawn_s: float
    state_dir: Optional[str] = None


def _start_serve(box: Sandbox, workload: Workload, tag: str,
                 state_dir: Optional[str] = None) -> Started:
    port_file = box.file(f"port-{tag}.json")
    args = ["serve", "--port", "0", "--port-file", port_file,
            "--metric", workload.metric, "--n", "2"]
    if workload.durable:
        # No periodic snapshot inside a run: recovery replays the whole
        # WAL, whose length the quota below makes deterministic.
        state_dir = state_dir or box.file(f"state-{tag}")
        args += ["--state-dir", state_dir, "--snapshot-interval", "3600"]
    child = box.spawn(args)
    port = box.await_json(port_file, child, "port")["port"]
    return Started(child, port, time.perf_counter() - child.spawned_at,
                   state_dir)


def _start_cluster(box: Sandbox, workload: Workload, tag: str) -> Started:
    state_root = box.file(f"cluster-{tag}")
    child = box.spawn([
        "cluster", "--shards", "2", "--steal-watermark", "4",
        "--state-root", state_root, "--port", "0",
        "--metric", workload.metric, "--n", "2", "--codec", "binary",
        "--snapshot-interval", "3600"])
    topology = box.await_json(os.path.join(state_root, "cluster.json"),
                              child, "router")
    child.descendants = [shard["pid"] for shard in topology["shards"]]
    return Started(child, topology["router"]["port"],
                   time.perf_counter() - child.spawned_at)


def _setup(result: Pass, make_inputs: Callable[[], List[dict]],
           start: Callable[[str], Started],
           ) -> Tuple[List[dict], Started]:
    """Generate the inputs and start the program ``SETUP_SAMPLES``
    times; every start but the last is a probe that is killed at once.
    Records one ``setup_s`` sample (generation + spawn-until-listening)
    per start."""
    for sample in range(SETUP_SAMPLES):
        began = time.perf_counter()
        inputs = make_inputs()
        generated = time.perf_counter() - began
        started = start(f"s{sample}")
        result.setup_samples.append(generated + started.spawn_s)
        result.spawn_samples.append(started.spawn_s)
        if sample < SETUP_SAMPLES - 1:
            started.child.kill()
            started.child.wait()
    return inputs, started


def _account(result: Pass, children: List[Child]) -> None:
    result.program_cpu_s = sum(child.cpu_s for child in children)
    result.peak_rss_kb = max(child.max_rss_kb for child in children)


def _audit(result: Pass, jobs: List[tuple], server_stats: Dict,
           stats: PullStats, counters: WireCounters) -> None:
    """Exactly-once over ``(JOB_STATUS, pulled, backlog)`` per job:
    every submitted task is accounted for, completed == the tasks
    pulled == accepted acks, the backlog is still pending, and nothing
    was rejected, duplicated or answered with ERROR."""
    for status, pulled, backlog in jobs:
        if (status.tasks, status.completed, status.pending,
                status.outstanding) != (pulled + backlog, pulled,
                                        backlog, 0):
            result.fail(f"JOB_STATUS of job {status.job_id}: "
                        f"{status.completed} completed, {status.pending} "
                        f"pending, {status.outstanding} outstanding of "
                        f"{status.tasks}; expected {pulled} completed, "
                        f"{backlog} pending",
                        abs(pulled - status.completed) or 1)
    pulled = sum(job[1] for job in jobs)
    if stats.accepted != pulled:
        result.fail(f"{stats.accepted} accepted ack(s) for {pulled} "
                    f"task(s) pulled", abs(pulled - stats.accepted))
    if stats.rejected:
        result.fail(f"{stats.rejected} rejected completion(s)",
                    stats.rejected)
    if counters.errors:
        result.fail(f"{len(counters.errors)} ERROR repl(ies): "
                    f"{counters.errors[0]}", len(counters.errors))
    doubled = (server_stats.get("duplicate_completions", 0)
               + server_stats.get("stale_completions", 0))
    if doubled:
        result.fail(f"{doubled} duplicate/stale completion(s)", doubled)


def _finish_counts(result: Pass, server_stats: Dict,
                   counters: WireCounters) -> None:
    result.counts.update(
        decisions=server_stats.get("assignments", 0),
        messages=counters.sent + counters.received)


# -- repro serve ---------------------------------------------------------

def run_serve(workload: Workload, seed: int, seconds: float,
              traced: bool) -> Pass:
    count = scaled(workload, seconds)
    backlog = int(workload.backlog * seconds / 10.0)
    result = Pass(workload.name, seed, traced, tasks=count,
                  attempted=count)
    generate = INPUTS[workload.inputs]
    with Sandbox(workload.name, traced) as box:
        specs, started = _setup(
            result, lambda: generate(seed, count + backlog),
            lambda tag: _start_serve(box, workload, tag))
        live = [started.child]
        try:
            asyncio.run(asyncio.wait_for(
                _drive_serve(workload, result, box, specs, backlog,
                             started, live),
                PASS_TIMEOUT))
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            result.fail(f"{type(exc).__name__}: {exc}", count)
        for child in live:
            if child.wait() not in (0, -signal.SIGKILL):
                result.fail(f"repro serve exited with "
                            f"{child.proc.returncode}", count)
        _account(result, live)
        if workload.durable and not result.problems:
            _audit_wal(result, started.state_dir, count)
        if traced:
            result.fold = spans.load_dir(box.trace_dir)
            if workload.durable and not result.problems:
                measure_recovery(result, box.file("state-at-kill"),
                                 workload)
    return result


async def _drive_serve(workload: Workload, result: Pass, box: Sandbox,
                       specs: List[dict], backlog: int, started: Started,
                       live: List[Child]) -> None:
    counters = WireCounters()
    count = len(specs) - backlog
    stats = PullStats(max(1, count // SEGMENTS),
                      lambda: sum(child.cpu_ns() for child in live))
    control = Control(counters)
    await control.open(HOST, started.port)
    submitted = await control.submit(specs)
    result.submit_s = submitted["seconds"]
    result.submitted = submitted["accepted"]
    job_id = submitted["job_id"]
    workers = [Worker(f"w{site}", site, workload.k, workload.capacity,
                      stats, counters,
                      job_id=job_id if workload.scoped else None)
               for site in range(2)]
    port = started.port
    gap = 0.0
    cpu_before = time.process_time()
    if workload.durable:
        # Each worker stops, lease-free, after exactly 30% of the job.
        quota = count * 3 // 10
        await asyncio.gather(*(w.run(HOST, port, quota=quota)
                               for w in workers))
        quiesced = time.perf_counter()
        await control.close()
        if result.traced:
            shutil.copytree(started.state_dir,
                            box.file("state-at-kill"))
            _dump_spans(box, started.child)
        started.child.sample_rss()
        killed = time.perf_counter()
        started.child.signal(signal.SIGKILL)
        started.child.wait()
        restarted = _start_serve(box, workload, "restart",
                                 started.state_dir)
        live.append(restarted.child)
        port = restarted.port
        stats.first_reply = None
        await asyncio.gather(*(w.run(HOST, port) for w in workers))
        result.recovery_s = stats.first_reply - killed
        gap = stats.first_reply - quiesced
        control = Control(counters)
        await control.open(HOST, port)
    else:
        # With a backlog each worker pulls exactly half of ``count``.
        quota = count // 2 if backlog else None
        await asyncio.gather(*(w.run(HOST, port, quota=quota)
                               for w in workers))
    result.loadgen_cpu_s = time.process_time() - cpu_before
    result.pull_wall_s = stats.last_ack - stats.first_hello - gap
    result.completed = stats.accepted
    result.pull_latencies = stats.pull_latencies
    result.marks = stats.marks
    status = await control.status(job_id)
    server_stats = await control.stats()
    live[-1].sample_rss()
    await control.drain()
    await control.close()
    _audit(result, [(status, count, backlog)], server_stats, stats,
           counters)
    _finish_counts(result, server_stats, counters)
    if workload.durable:
        # The restarted server only counts its own incarnation.
        result.counts["decisions"] = stats.granted


def _dump_spans(box: Sandbox, child: Child) -> None:
    """Ask an idle traced server to write its spans (it is about to be
    SIGKILLed, so its exit hook will never run)."""
    child.signal(signal.SIGUSR1)
    deadline = time.monotonic() + 30.0
    pattern = f"spans-{child.pid}-"
    while not any(name.startswith(pattern) and name.endswith(".bin")
                  for name in os.listdir(box.trace_dir)):
        if time.monotonic() > deadline:
            raise RuntimeError("traced server did not dump its spans")
        time.sleep(0.005)


def _audit_wal(result: Pass, state_dir: str, expected: int) -> None:
    """Exactly-once across the crash, from the log itself: every task
    has exactly one ``complete`` record over both incarnations."""
    from repro.cluster.shard import wal_files
    from repro.obs.events import iter_events
    completions: Dict[int, int] = {}
    records = 0
    for path in wal_files(state_dir):
        for record in iter_events(path):
            records += 1
            if record["event"] == "complete":
                task_id = record["task_id"]
                completions[task_id] = completions.get(task_id, 0) + 1
    result.counts["wal_records"] = records
    wrong = sum(1 for seen in completions.values() if seen != 1) \
        + abs(expected - len(completions))
    if wrong:
        result.fail(f"WAL holds {len(completions)} completed task(s), "
                    f"{wrong} not exactly once", wrong)


def measure_recovery(result: Pass, state_dir: str,
                     workload: Workload) -> None:
    """Per-layer recovery costs, timed in this process on a copy of the
    killed server's state directory."""
    from repro.cluster.shard import open_shard
    from repro.cluster.snapshot import (load_latest_snapshot,
                                        write_snapshot)
    began = time.perf_counter()
    durability = open_shard(state_dir, metric=workload.metric, n=2,
                            snapshot_interval=3600)
    replay_s = time.perf_counter() - began
    try:
        state = durability.service.export_state()
        began = time.perf_counter()
        path = write_snapshot(state_dir, state,
                              durability.events.next_seq)
        write_s = time.perf_counter() - began
        began = time.perf_counter()
        load_latest_snapshot(state_dir)
        load_s = time.perf_counter() - began
    finally:
        durability.events.close()
    replayed = durability.report["replayed"]
    result.extras.update({
        "cluster.shard.replay_s": replay_s,
        "cluster.shard.replay_records_per_s": replayed / replay_s,
        "cluster.snapshot.write_ms": write_s * 1e3,
        "cluster.snapshot.load_ms": load_s * 1e3,
        "cluster.snapshot.bytes": float(os.path.getsize(path)),
    })


# -- repro cluster -------------------------------------------------------

def run_cluster(workload: Workload, seed: int, seconds: float,
                traced: bool) -> Pass:
    count = scaled(workload, seconds)
    result = Pass(workload.name, seed, traced, tasks=count + 1,
                  attempted=count + 1)
    with Sandbox(workload.name, traced) as box:
        specs, started = _setup(
            result, lambda: INPUTS[workload.inputs](seed, count),
            lambda tag: _start_cluster(box, workload, tag))
        try:
            asyncio.run(asyncio.wait_for(
                _drive_cluster(result, specs, started), PASS_TIMEOUT))
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            result.fail(f"{type(exc).__name__}: {exc}", count + 1)
        if started.child.wait() != 0:
            result.fail(f"repro cluster exited with "
                        f"{started.child.proc.returncode}", count + 1)
        _account(result, [started.child])
        if traced:
            result.fold = spans.load_dir(box.trace_dir)
    return result


async def _drive_cluster(result: Pass, specs: List[dict],
                         started: Started) -> None:
    counters = WireCounters()
    stats = PullStats(max(1, len(specs) // SEGMENTS), started.child.cpu_ns)
    control = Control(counters)
    await control.open(HOST, started.port, cluster=True)
    result.extras["cluster.router.redirect_ms"] = control.redirect_s * 1e3
    ports = {entry["shard"]: entry["port"]
             for entry in control.redirect.shards}
    # New jobs are placed round-robin: the big job lands on shard 0,
    # the token job (shard 1 must own a job to park its worker) on 1.
    big = await control.submit(specs)
    token = await control.submit([{"files": [0], "flops": 1.0}])
    result.submit_s = big["seconds"]
    result.submitted = big["accepted"] + token["accepted"]
    workers = [Worker(f"w{shard}", shard, 1, 600, stats, counters,
                      work_s=CLUSTER_WORK_S) for shard in range(2)]
    cpu_before = time.process_time()
    pulls = [asyncio.ensure_future(w.run(HOST, ports[shard]))
             for shard, w in enumerate(workers)]
    statuses = []
    for job_id in (big["job_id"], token["job_id"]):
        while True:
            status = await control.status(job_id)
            if status.done or any(pull.done() for pull in pulls):
                break
            await asyncio.sleep(0.02)
        statuses.append(status)
    result.loadgen_cpu_s = time.process_time() - cpu_before
    server_stats = await control.stats()
    started.child.sample_rss()
    await control.drain()  # releases the parked (thief-side) pulls
    await asyncio.gather(*pulls)
    await control.close()
    result.pull_wall_s = stats.last_ack - stats.first_hello
    result.completed = stats.accepted
    result.pull_latencies = stats.pull_latencies
    result.marks = stats.marks
    _audit(result, [(statuses[0], len(specs), 0), (statuses[1], 1, 0)],
           server_stats, stats, counters)
    _finish_counts(result, server_stats, counters)
    steal = server_stats.get("steal", {})
    requests = steal.get("requests", {})
    thief_done = stats.by_worker.get("w1", 0)
    first_steal = stats.first_task_at.get(("w1", big["job_id"]))
    result.extras.update({
        "cluster.steal.tasks_stolen": float(steal.get("tasks_stolen", 0)),
        "cluster.steal.requests_granted":
            float(requests.get("granted", 0)),
        "cluster.steal.requests_refused":
            float(sum(n for outcome, n in requests.items()
                      if outcome != "granted")),
        "cluster.steal.thief_share": thief_done / max(1, stats.accepted),
        "cluster.steal.first_steal_s":
            (first_steal - stats.first_hello) if first_steal else 0.0,
    })


# -- repro run -----------------------------------------------------------

def run_sim(workload: Workload, seed: int, seconds: float,
            traced: bool) -> Pass:
    from repro.exp.config import ExperimentConfig
    from repro.exp.runner import build_grid, build_job
    count = scaled(workload, seconds)
    sim_seed = SIM_SEEDS[seed % len(SIM_SEEDS)]
    result = Pass(workload.name, seed, traced, tasks=count,
                  attempted=count)
    config = ExperimentConfig(scheduler="combined.2", num_tasks=count,
                              seed=sim_seed)
    for _ in range(SETUP_SAMPLES):
        began = time.perf_counter()
        build_grid(config, build_job(config))
        result.setup_samples.append(time.perf_counter() - began)
    with Sandbox(workload.name, traced) as box:
        saved = box.file("result.jsonl")
        child = box.spawn(["run", "--scheduler", "combined.2",
                           "--tasks", str(count), "--seed", str(sim_seed),
                           "--save", saved])
        code = child.wait(timeout=PASS_TIMEOUT)
        result.pull_wall_s = time.perf_counter() - child.spawned_at
        _account(result, [child])
        if code != 0:
            result.fail(f"repro run exited with {code}", count)
        else:
            with open(saved, "r", encoding="utf-8") as handle:
                metrics = json.loads(handle.readline())["metrics"]
            _check_sim(result, metrics, count, sim_seed)
        if traced:
            result.fold = spans.load_dir(box.trace_dir)
    return result


def _check_sim(result: Pass, metrics: Dict, count: int,
               sim_seed: int) -> None:
    """Makespan, file transfers and evictions must be bit-equal to the
    pinned values; nothing may be cancelled."""
    result.completed = count - metrics["tasks_cancelled"]
    if metrics["tasks_cancelled"]:
        result.fail(f"{metrics['tasks_cancelled']} task(s) cancelled",
                    metrics["tasks_cancelled"])
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "expected.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)["combined.2"][str(count)][str(sim_seed)]
    for key in ("makespan", "file_transfers", "evictions"):
        if metrics[key] != pinned[key]:
            result.fail(f"{key} {metrics[key]!r} != pinned "
                        f"{pinned[key]!r}", count)


RUNNERS = {"serve": run_serve, "cluster": run_cluster, "sim": run_sim}


def run_pass(workload: Workload, seed: int, seconds: float,
             traced: bool) -> Pass:
    """One pass, with the collector quiet while the load runs."""
    gc.collect()
    gc.disable()
    try:
        result = RUNNERS[workload.kind](workload, seed, seconds, traced)
    finally:
        gc.enable()
    return result
