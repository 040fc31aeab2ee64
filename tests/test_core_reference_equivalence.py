"""The indexed scheduler must match the verbatim Figure-2 rescan.

Strongest correctness evidence in the suite: on random workloads and
every metric, the production WorkerCentricScheduler (incremental index,
candidate heaps) and the NaiveWorkerCentricScheduler (full O(T*I)
rescan per request) must produce *identical assignment sequences* and
identical makespans, including the randomized ChooseTask(2) variants
(both consume their RNG identically: one draw per multi-candidate
decision).

The deployed daemon is held to the same sequences: a simulated run's
write-ahead log (``simulated_wal`` in conftest) re-decides through
``SchedulerService.redecide`` with no mismatch and the same final RNG
state, so the service's bookkeeping around the engine (pulls, leases,
lazily attached sites, its own task file sets) changes no choice.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trace import TaskAssigned, TraceBus
from repro.core.reference import NaiveWorkerCentricScheduler
from repro.core.worker_centric import WorkerCentricScheduler
from repro.grid.arrivals import (ArrivalSchedule, JobArrivalProcess,
                                 batched_arrivals)
from repro.grid.failures import WorkerFailureInjector
from repro.serve.service import SchedulerService
from repro.sim import Environment

from conftest import make_grid, make_job, simulated_wal


def run_once(scheduler_cls, job, metric, n, seed, num_sites=2,
             workers_per_site=1, capacity=30):
    env = Environment()
    trace = TraceBus()
    grid = make_grid(env, job, trace=trace, num_sites=num_sites,
                     workers_per_site=workers_per_site,
                     capacity_files=capacity)
    scheduler = scheduler_cls(job, metric=metric, n=n,
                              rng=random.Random(seed))
    grid.attach_scheduler(scheduler)
    result = grid.run()
    assignments = [(r.task_id, r.worker)
                   for r in trace.of_type(TaskAssigned)]
    return assignments, result.makespan, result.file_transfers


@st.composite
def workload_and_params(draw):
    num_files = draw(st.integers(4, 25))
    num_tasks = draw(st.integers(2, 12))
    task_files = [
        draw(st.sets(st.integers(0, num_files - 1), min_size=1,
                     max_size=min(6, num_files)))
        for _ in range(num_tasks)
    ]
    metric = draw(st.sampled_from(
        ["overlap", "rest", "combined", "combined-literal"]))
    n = draw(st.sampled_from([1, 2]))
    seed = draw(st.integers(0, 2**16))
    capacity = draw(st.integers(8, 40))
    return task_files, metric, n, seed, capacity


@given(workload_and_params())
@settings(max_examples=50, deadline=None)
def test_indexed_equals_naive(data):
    task_files, metric, n, seed, capacity = data
    job = make_job(task_files, flops=1e9)
    fast = run_once(WorkerCentricScheduler, job, metric, n, seed,
                    capacity=capacity)
    slow = run_once(NaiveWorkerCentricScheduler, job, metric, n, seed,
                    capacity=capacity)
    assert fast == slow


@pytest.mark.parametrize("metric", ["overlap", "rest", "combined",
                                    "combined-literal"])
@pytest.mark.parametrize("n", [1, 2])
def test_indexed_equals_naive_on_coadd(metric, n):
    """Same equivalence on a realistic (small Coadd) workload."""
    from repro.exp import ExperimentConfig
    from repro.exp.runner import build_job
    job = build_job(ExperimentConfig(num_tasks=50, capacity_files=500))
    fast = run_once(WorkerCentricScheduler, job, metric, n, seed=7,
                    num_sites=3, capacity=500)
    slow = run_once(NaiveWorkerCentricScheduler, job, metric, n, seed=7,
                    num_sites=3, capacity=500)
    assert fast == slow


@pytest.mark.parametrize("metric", ["overlap", "rest", "combined",
                                    "combined-literal"])
@pytest.mark.parametrize("n", [1, 2])
def test_indexed_equals_naive_under_failures(metric, n):
    """Failed workers give their tasks back, and a task requeued before
    its old candidate-heap entry was popped must still count once."""
    for seed in range(5):
        rng = random.Random(seed)
        job = make_job([rng.sample(range(30), rng.randint(1, 6))
                        for _ in range(40)], flops=4e10)
        runs = []
        for scheduler_cls in (WorkerCentricScheduler,
                              NaiveWorkerCentricScheduler):
            env = Environment()
            trace = TraceBus()
            grid = make_grid(env, job, trace=trace, workers_per_site=2,
                             capacity_files=20)
            grid.attach_scheduler(scheduler_cls(
                job, metric=metric, n=n, rng=random.Random(seed)))
            WorkerFailureInjector(grid, mtbf=60.0, repair_time=5.0,
                                  rng=random.Random(seed))
            makespan = grid.run().makespan
            runs.append(([(r.task_id, r.worker)
                          for r in trace.of_type(TaskAssigned)], makespan))
        assert runs[0] == runs[1]


def assert_service_redecides(records, engine, metric, n, seed):
    """A fresh ``SchedulerService`` fed the simulated run's WAL makes
    every decision the simulator made, and draws its RNG as far."""
    service = SchedulerService(metric=metric, n=n, seed=seed,
                               clock=lambda: 0.0)
    assert service.redecide(records) == []
    assert service.engine.rng.getstate() == engine.rng.getstate()


@given(workload_and_params())
@settings(max_examples=40, deadline=None)
def test_policy_engine_replay_equals_simulator(data):
    """The daemon's sans-IO core, fed only the WAL a live server would
    write for the simulated run (submits, file deltas, the pulls),
    re-makes the simulator's decision sequence exactly (metrics x n x
    seeds)."""
    task_files, metric, n, seed, capacity = data
    job = make_job(task_files, flops=1e9)
    records, engine = simulated_wal(job, metric=metric, n=n, seed=seed,
                                    num_sites=2, capacity_files=capacity)
    assert_service_redecides(records, engine, metric, n, seed)


@pytest.mark.parametrize("metric", ["overlap", "rest", "combined",
                                    "combined-literal"])
@pytest.mark.parametrize("n", [1, 2])
def test_policy_engine_replay_on_coadd(metric, n):
    """Same equivalence on a realistic (small Coadd) workload."""
    from repro.exp import ExperimentConfig
    from repro.exp.runner import build_job
    job = build_job(ExperimentConfig(num_tasks=40, capacity_files=500))
    records, engine = simulated_wal(job, metric=metric, n=n, seed=11,
                                    num_sites=3, capacity_files=500)
    assert sum(record["event"] == "assign"
               for record in records) == len(job)
    assert_service_redecides(records, engine, metric, n, seed=11)


@pytest.mark.parametrize("metric", ["overlap", "rest", "combined",
                                    "combined-literal"])
@pytest.mark.parametrize("n", [1, 2])
def test_service_redecides_simulated_arrivals_and_failures(metric, n):
    """Tasks released late and tasks a failed worker gives back: the
    first reach the log as later ``submit`` records, the second as
    ``requeue`` records, and both re-decide too."""
    rng = random.Random(3)
    job = make_job([rng.sample(range(30), rng.randint(1, 6))
                    for _ in range(40)], flops=4e10)
    schedule = batched_arrivals(job, 3, 50.0)

    def arm(grid):
        JobArrivalProcess(grid, schedule)
        WorkerFailureInjector(grid, mtbf=60.0, repair_time=5.0,
                              rng=random.Random(n))

    records, engine = simulated_wal(
        job, metric=metric, n=n, seed=3, workers_per_site=2,
        capacity_files=20, arm=arm,
        initial_task_ids=schedule.initial_task_ids(job))
    assert any(record["event"] == "requeue" for record in records)
    assert_service_redecides(records, engine, metric, n, seed=3)


def test_naive_validation(tiny_job):
    with pytest.raises(ValueError):
        NaiveWorkerCentricScheduler(tiny_job, metric="nope")
    with pytest.raises(ValueError):
        NaiveWorkerCentricScheduler(tiny_job, n=0)


def test_naive_supports_dynamic_release(env, tiny_job):
    grid = make_grid(env, tiny_job)
    scheduler = NaiveWorkerCentricScheduler(
        tiny_job, initial_task_ids={0, 1})
    grid.attach_scheduler(scheduler)
    JobArrivalProcess(grid, ArrivalSchedule(((100.0, (2, 3)),)))
    grid.run()
    assert scheduler.tasks_remaining == 0
