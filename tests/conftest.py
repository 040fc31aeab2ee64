"""Shared fixtures: small environments, topologies, jobs, grids, and
the write-ahead log of a simulated run."""

import itertools
import random

import pytest

from repro.core.worker_centric import WorkerCentricScheduler
from repro.grid.cluster import Grid
from repro.grid.files import FileCatalog
from repro.grid.job import Job, Task
from repro.net.tiers import TiersParams, generate as generate_tiers
from repro.net.topology import Topology
from repro.obs.events import EventLog
from repro.sim.engine import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def two_node_topology():
    """a --(10 B/s, 1s)-- b"""
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", bandwidth=10.0, latency=1.0)
    return topo


def make_job(task_files, num_files=None, file_size=1024.0, flops=0.0):
    """Build a Job from a list of file-id collections."""
    max_fid = max((fid for files in task_files for fid in files),
                  default=-1)
    catalog = FileCatalog(num_files or (max_fid + 1),
                          default_size=file_size)
    tasks = [Task(task_id=i, files=frozenset(files), flops=flops)
             for i, files in enumerate(task_files)]
    return Job(tasks, catalog)


@pytest.fixture
def tiny_job():
    """4 tasks over 6 files with heavy overlap."""
    return make_job([{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}])


def make_grid(env, job, num_sites=2, workers_per_site=1,
              capacity_files=100, speed_mflops=1000.0, seed=1,
              trace=None):
    """A small grid over a generated Tiers topology."""
    grid_topology = generate_tiers(TiersParams(num_sites=num_sites),
                                   seed=seed)
    speeds = [[speed_mflops] * workers_per_site for _ in range(num_sites)]
    return Grid(env, grid_topology, job, capacity_files, speeds,
                trace=trace)


@pytest.fixture
def rng():
    return random.Random(12345)


def log_engine(scheduler, events):
    """Shadow a scheduler's engine so the run writes a daemon's WAL.

    What the engine is told becomes the records the live service would
    write for the same life, into ``events``:

    * a task's first ``add_task`` is a ``submit`` to job 0, a later
      one (a failure put the task back) a ``requeue``;
    * each storage insert, evict or touch callback is one ``delta``
      with only that id list filled, which keeps the simulator's order;
    * each decision is an ``assign`` to the worker's name, under
      increasing lease ids.

    Must run before the scheduler binds: the initial tasks and the
    storage subscriptions are made at bind time.
    """
    engine = scheduler.engine
    watch_storage, add_task = engine.watch_storage, engine.add_task
    choose = scheduler._choose
    submitted = set()
    lease_ids = itertools.count(1)

    def delta(site_id, added=(), removed=(), referenced=()):
        events.emit("delta", site=site_id, added=len(added),
                    removed=len(removed), referenced=len(referenced),
                    added_ids=list(added), removed_ids=list(removed),
                    referenced_ids=list(referenced))

    def watch(site_id, storage):
        watch_storage(site_id, storage)
        storage.on_insert(lambda fid: delta(site_id, added=[fid]))
        storage.on_evict(lambda fid: delta(site_id, removed=[fid]))
        storage.on_touch(lambda fids: delta(site_id, referenced=fids))

    def add(task):
        add_task(task)
        if task.task_id in submitted:
            events.emit("requeue", task_id=task.task_id,
                        reason="worker-failed")
            return
        submitted.add(task.task_id)
        events.emit("submit", job_id=0, tasks=1, task_ids=[task.task_id],
                    specs=[{"files": sorted(task.files),
                            "flops": task.flops}])

    def decide(worker):
        task = choose(worker)
        events.emit("assign", task_id=task.task_id,
                    site=worker.site.site_id, worker=worker.name,
                    job_id=0, lease_id=next(lease_ids))
        return task

    engine.watch_storage = watch
    engine.add_task = add
    scheduler._choose = decide


def simulated_wal(job, metric="rest", n=1, seed=0, *, num_sites=2,
                  workers_per_site=1, capacity_files=100,
                  initial_task_ids=None, arm=None):
    """Simulate ``job`` under the worker-centric policy; return the WAL
    records the run wrote and the scheduler's engine.

    ``arm(grid)`` runs once the scheduler is attached, to add what
    must come after it (a ``JobArrivalProcess``, a
    ``WorkerFailureInjector``).
    """
    env = Environment()
    grid = make_grid(env, job, num_sites=num_sites,
                     workers_per_site=workers_per_site,
                     capacity_files=capacity_files)
    scheduler = WorkerCentricScheduler(
        job, metric=metric, n=n, rng=random.Random(seed),
        initial_task_ids=initial_task_ids)
    events = EventLog(clock=lambda: 0.0)
    log_engine(scheduler, events)
    grid.attach_scheduler(scheduler)
    if arm is not None:
        arm(grid)
    grid.run()
    records = events.tail()
    assert len(records) == events.emitted
    return records, scheduler.engine
