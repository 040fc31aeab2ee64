"""Cluster bench: shard-count scaling and the price of durability.

Not a paper artifact — it characterizes the ``repro.cluster`` tier.
Everything runs in-process over real localhost TCP with zero simulated
work, so the measurement isolates the cluster path (router redirect,
shard-local scheduling, WAL flushes):

* **shard sweep** — the same light multi-job workload over 1, 2 and 4
  shards (jobs spread round-robin, workers pull straight from the
  shard owning their job after one REDIRECT).  Shards only pay the
  router on the control plane, so assignment rate should hold or
  improve as shards are added;
* **durability overhead** — one shard serving the same job as a plain
  in-memory scheduler vs. a WAL-ing, snapshotting ``open_shard``.
  The WAL flushes on every emitted record by design; this row keeps
  that cost visible (and bounded) instead of anecdotal.
* **skew sweep** — the work-stealing payoff: one giant job (simulated
  per-task work) lands on shard 0 of 4 while the other shards each
  get a single token job, workers pinned round-robin to shards.
  Without stealing, shard 0's two workers grind the giant job alone;
  with ``--steal-watermark`` the drained shards pull the queue over
  and the whole fleet finishes it.  ``--check`` enforces the ≥1.5x
  speedup floor and compares both sweeps against the checked-in
  ``results/cluster_throughput_baseline.json``.

Standalone CLI (no pytest) for CI smoke use::

    python benchmarks/bench_cluster_throughput.py --quick
    python benchmarks/bench_cluster_throughput.py --quick --check
    python benchmarks/bench_cluster_throughput.py --quick --write-baseline
"""

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.cluster import ClusterRouter, ShardAddress, open_shard
from repro.cluster.steal import StealManager
from repro.grid.job import Task
from repro.serve.loadgen import run_load
from repro.serve.server import SchedulerServer
from repro.serve.service import SchedulerService

SHARD_COUNTS = (1, 2, 4)
RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "cluster_throughput_baseline.json"
#: Sanity floor, not a target (CI machines are noisy and shared).
MIN_RATE = 50.0
#: The WAL may cost a lot relative to pure in-memory dispatch, but an
#: order of magnitude means something is broken (sync writes on the
#: hot path, a lost flush batch, ...).
MAX_DURABILITY_SLOWDOWN = 10.0
#: Work stealing must buy at least this on the skewed workload; the
#: fleet-wide parallelism headroom is ~4x, so 1.5x leaves plenty of
#: slack for noisy CI machines.
MIN_STEAL_SPEEDUP = 1.5
#: Baseline regression tolerance: cluster rates on shared runners are
#: noisy, so only flag a collapse, not a wobble.
MAX_BASELINE_DROP = 0.5
#: Skew-sweep shape: 4 shards, 2 pinned workers each, thieves refill
#: to a 4-task watermark (small watermark = small protected tail on
#: the victim).
SKEW_SHARDS = 4
SKEW_WORKERS = 8
SKEW_WATERMARK = 4
#: Simulated work for the skewed giant job: 1 flop per task at this
#: rate = 5 ms per task, so compute (not dispatch) is the bottleneck
#: stealing can attack.
SKEW_FLOPS_PER_SEC = 200.0


def light_tasks(num_tasks, files_per_task=3, num_files=300, start=0,
                flops=0.0):
    return [
        Task(task_id=0,  # ids are reassigned by the service
             files=frozenset({(start + index * files_per_task + offset)
                              % num_files
                              for offset in range(files_per_task)}),
             flops=flops)
        for index in range(num_tasks)
    ]


async def _timed_cluster(num_tasks, shards, workers, state_root=None,
                         snapshot_interval=0.5, jobs=None,
                         steal_watermark=None, unscoped=False,
                         flops_per_sec=0.0):
    """One cluster run; returns (assignments/sec, report)."""
    servers = []
    durabilities = []
    snapshot_tasks = []
    for index in range(shards):
        if state_root is not None:
            durability = open_shard(
                str(Path(state_root) / f"shard-{index}"),
                metric="combined", n=2, seed=0, shard_index=index,
                shard_count=shards,
                snapshot_interval=snapshot_interval)
            durabilities.append(durability)
            service = durability.service
        else:
            service = SchedulerService(metric="combined", n=2, seed=0,
                                       id_start=index,
                                       id_stride=shards,
                                       steal_watermark=steal_watermark)
        server = SchedulerServer(service)
        await server.start()
        servers.append(server)
    router = ClusterRouter([ShardAddress(i, s.host, s.port)
                            for i, s in enumerate(servers)])
    await router.start()
    managers = []
    if steal_watermark is not None:
        for index, server in enumerate(servers):
            peers = {peer: (other.host, other.port)
                     for peer, other in enumerate(servers)
                     if peer != index}
            manager = StealManager(server.service, index, peers=peers,
                                   interval=0.002)
            await manager.start()
            managers.append(manager)
    loop = asyncio.get_running_loop()
    snapshot_tasks = [loop.create_task(d.snapshot_loop())
                      for d in durabilities]
    try:
        if jobs is None:
            per_job = num_tasks // shards
            jobs = [light_tasks(per_job, start=index * per_job * 3)
                    for index in range(shards)]
        start = time.perf_counter()
        report = await run_load(router.host, router.port, jobs,
                                workers=workers, sites=min(workers, 4),
                                capacity_files=600,
                                flops_per_sec=flops_per_sec,
                                unscoped=unscoped)
        wall = time.perf_counter() - start
    finally:
        for manager in managers:
            await manager.stop()
        for task in snapshot_tasks:
            task.cancel()
        for task in snapshot_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        await router.stop()
        for server in servers:
            await server.stop()
        for durability in durabilities:
            durability.close()
    done = sum(job["status"]["completed"] for job in report["jobs"])
    expected = sum(len(job) for job in jobs)
    assert done == expected, f"lost tasks: {done}/{expected}"
    return done / wall, report


def run_cluster(num_tasks, shards, workers, state_root=None,
                **kwargs):
    return asyncio.run(asyncio.wait_for(
        _timed_cluster(num_tasks, shards, workers,
                       state_root=state_root, **kwargs), timeout=300))


def sweep_shards(num_tasks, workers=8):
    """(shards, rate, router p99 merged) per shard count."""
    rows = []
    for shards in SHARD_COUNTS:
        rate, report = run_cluster(num_tasks, shards, workers)
        latency = report["stats"]["decision_latency"]
        rows.append((shards, rate, latency["p99_us"]))
    return rows


def durability_overhead(num_tasks, workers=4, repeats=3):
    """Best-of-N (plain_rate, durable_rate) on a one-shard cluster."""
    plain = 0.0
    durable = 0.0
    for _ in range(repeats):
        rate, _report = run_cluster(num_tasks, 1, workers)
        plain = max(plain, rate)
        with tempfile.TemporaryDirectory() as state_root:
            rate, _report = run_cluster(num_tasks, 1, workers,
                                        state_root=state_root)
            durable = max(durable, rate)
    return plain, durable


def skewed_jobs(giant_tasks, shards=SKEW_SHARDS):
    """One giant job (lands on shard 0) + a token job per other shard."""
    jobs = [light_tasks(giant_tasks, flops=1.0)]
    for index in range(1, shards):
        jobs.append(light_tasks(1, start=index * 37, flops=1.0))
    return jobs


def sweep_skew(giant_tasks, repeats=2):
    """Best-of-N stealing-off vs stealing-on rates on the skewed
    workload; returns ``{stealing_off, stealing_on, speedup,
    tasks_stolen}`` (rates in tasks/s)."""
    off = 0.0
    on = 0.0
    stolen = 0
    for _ in range(repeats):
        rate, _report = run_cluster(
            0, SKEW_SHARDS, SKEW_WORKERS,
            jobs=skewed_jobs(giant_tasks), unscoped=True,
            flops_per_sec=SKEW_FLOPS_PER_SEC)
        off = max(off, rate)
        rate, report = run_cluster(
            0, SKEW_SHARDS, SKEW_WORKERS,
            jobs=skewed_jobs(giant_tasks), unscoped=True,
            flops_per_sec=SKEW_FLOPS_PER_SEC,
            steal_watermark=SKEW_WATERMARK)
        if rate > on:
            on = rate
            stolen = report["stats"].get("steal",
                                         {}).get("tasks_stolen", 0)
    return {"stealing_off": off, "stealing_on": on,
            "speedup": on / off if off else 0.0,
            "tasks_stolen": stolen}


def format_tables(num_tasks, shard_rows, plain, durable):
    lines = [
        f"cluster throughput ({num_tasks} light tasks, localhost "
        f"TCP, router + shard processes in-process, zero simulated "
        f"work)",
        f"{'shards':>8} {'assign/s':>10} {'p99 us':>8}",
    ]
    for shards, rate, p99 in shard_rows:
        lines.append(f"{shards:>8} {rate:>10.0f} {p99:>8.0f}")
    lines.append("")
    lines.append("durability overhead (1 shard, WAL flush per record "
                 "+ periodic snapshots)")
    lines.append(f"{'mode':>10} {'assign/s':>10} {'vs plain':>9}")
    lines.append(f"{'in-memory':>10} {plain:>10.0f} {'1.00x':>9}")
    lines.append(f"{'durable':>10} {durable:>10.0f} "
                 f"{durable / plain:>8.2f}x")
    return "\n".join(lines)


def format_skew(giant_tasks, skew):
    lines = [
        f"skew sweep ({giant_tasks}-task giant job on shard 0 of "
        f"{SKEW_SHARDS}, {SKEW_WORKERS} shard-pinned workers, "
        f"{1000.0 / SKEW_FLOPS_PER_SEC:.0f} ms simulated work/task)",
        f"{'stealing':>10} {'tasks/s':>9}",
        f"{'off':>10} {skew['stealing_off']:>9.0f}",
        f"{'on':>10} {skew['stealing_on']:>9.0f}   "
        f"({skew['speedup']:.2f}x, {skew['tasks_stolen']} task(s) "
        f"stolen)",
    ]
    return "\n".join(lines)


def sanity_failures(shard_rows, plain, durable, skew=None):
    failures = []
    for shards, rate, _p99 in shard_rows:
        if rate < MIN_RATE:
            failures.append(f"{shards} shard(s): {rate:.0f} assign/s "
                            f"is below the {MIN_RATE:.0f}/s floor")
    if durable * MAX_DURABILITY_SLOWDOWN < plain:
        failures.append(
            f"durable shard at {durable:.0f}/s is more than "
            f"{MAX_DURABILITY_SLOWDOWN:.0f}x slower than in-memory "
            f"({plain:.0f}/s)")
    if skew is not None:
        if skew["speedup"] < MIN_STEAL_SPEEDUP:
            failures.append(
                f"work stealing bought only {skew['speedup']:.2f}x on "
                f"the skewed workload (floor "
                f"{MIN_STEAL_SPEEDUP:.1f}x): off "
                f"{skew['stealing_off']:.0f}/s, on "
                f"{skew['stealing_on']:.0f}/s")
        if not skew["tasks_stolen"]:
            failures.append("stealing-on run stole zero tasks")
    return failures


def write_baseline(mode, num_tasks, giant_tasks, shard_rows, plain,
                   durable, skew):
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "schema": 1,
        "mode": mode,
        "config": {
            "num_tasks": num_tasks,
            "giant_tasks": giant_tasks,
            "skew_shards": SKEW_SHARDS,
            "skew_workers": SKEW_WORKERS,
            "steal_watermark": SKEW_WATERMARK,
        },
        "shard_rates": {str(shards): round(rate, 1)
                        for shards, rate, _p99 in shard_rows},
        "durability": {"plain": round(plain, 1),
                       "durable": round(durable, 1)},
        "skew": {"stealing_off": round(skew["stealing_off"], 1),
                 "stealing_on": round(skew["stealing_on"], 1),
                 "speedup": round(skew["speedup"], 2),
                 "tasks_stolen": skew["tasks_stolen"]},
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def check_against_baseline(shard_rows, skew):
    """Collapse detection vs the checked-in baseline (generous
    tolerance: shared CI runners wobble, a regression craters)."""
    if not BASELINE_PATH.exists():
        return [f"no baseline at {BASELINE_PATH}; "
                f"run --write-baseline"]
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline.get("schema") != 1:
        return [f"baseline schema {baseline.get('schema')!r} is not "
                f"supported; rerun --write-baseline"]
    failures = []
    for shards, rate, _p99 in shard_rows:
        reference = baseline["shard_rates"].get(str(shards))
        if reference and rate < reference * MAX_BASELINE_DROP:
            failures.append(
                f"{shards} shard(s): {rate:.0f}/s is under "
                f"{MAX_BASELINE_DROP:.0%} of the baseline "
                f"{reference:.0f}/s")
    reference = baseline.get("skew", {}).get("stealing_on")
    if reference and skew["stealing_on"] < reference * \
            MAX_BASELINE_DROP:
        failures.append(
            f"skew stealing-on rate {skew['stealing_on']:.0f}/s is "
            f"under {MAX_BASELINE_DROP:.0%} of the baseline "
            f"{reference:.0f}/s")
    return failures


def test_cluster_throughput(benchmark, throughput_tasks, artifact):
    num_tasks = max(120, throughput_tasks // 8)

    def sweep():
        return (sweep_shards(num_tasks),
                durability_overhead(num_tasks))

    shard_rows, (plain, durable) = benchmark.pedantic(
        sweep, rounds=1, iterations=1)
    artifact("cluster_throughput",
             format_tables(num_tasks, shard_rows, plain, durable))
    assert sanity_failures(shard_rows, plain, durable) == []


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="cluster throughput bench (standalone)")
    parser.add_argument("--quick", action="store_true",
                        help="small workload (CI smoke)")
    parser.add_argument("--tasks", type=int, default=None,
                        help="total tasks per run (overrides --quick)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when sanity floors (incl. the "
                             "work-stealing speedup) are violated or "
                             "the baseline regressed")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"refresh {BASELINE_PATH.name} from "
                             f"this run")
    args = parser.parse_args(argv)
    num_tasks = args.tasks or (120 if args.quick else 400)
    giant_tasks = 96 if args.quick else 192
    shard_rows = sweep_shards(num_tasks)
    plain, durable = durability_overhead(num_tasks)
    skew = sweep_skew(giant_tasks)
    print(format_tables(num_tasks, shard_rows, plain, durable))
    print()
    print(format_skew(giant_tasks, skew))
    if args.write_baseline:
        write_baseline("quick" if args.quick else "full", num_tasks,
                       giant_tasks, shard_rows, plain, durable, skew)
        print(f"baseline written to {BASELINE_PATH}")
    if args.check:
        failures = sanity_failures(shard_rows, plain, durable, skew)
        failures += check_against_baseline(shard_rows, skew)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if not failures:
            print("bench-regression check passed")
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
