"""White-box tests of scheduler internals: storage affinity's initial
distribution, XSufferage's estimators, worker-centric candidate heaps."""


import pytest

from repro.core.storage_affinity import StorageAffinityScheduler
from repro.core.worker_centric import WorkerCentricScheduler
from repro.core.xsufferage import XSufferageScheduler

from conftest import make_grid, make_job


# -- storage affinity internals ---------------------------------------------

def test_initial_distribution_deterministic(env):
    job = make_job([{i, i + 1, i + 2} for i in range(20)])

    def distribute():
        from repro.sim import Environment
        env_i = Environment()
        grid = make_grid(env_i, job, num_sites=3)
        scheduler = StorageAffinityScheduler(job)
        grid.attach_scheduler(scheduler)
        return [sorted(t.task_id for t in queue)
                for queue in scheduler._queues.values()]

    assert distribute() == distribute()


def test_initial_distribution_covers_all_tasks(env):
    job = make_job([{i, i + 1} for i in range(15)])
    grid = make_grid(env, job, num_sites=3, workers_per_site=2)
    scheduler = StorageAffinityScheduler(job)
    grid.attach_scheduler(scheduler)
    queued = sorted(task.task_id for queue in scheduler._queues.values()
                    for task in queue)
    assert queued == list(range(15))


def test_virtual_view_groups_neighbours(env):
    """Consecutive overlapping tasks should mostly share a site."""
    job = make_job([{i, i + 1, i + 2, i + 3} for i in range(24)])
    grid = make_grid(env, job, num_sites=3, capacity_files=200)
    scheduler = StorageAffinityScheduler(job, balance_factor=2.0)
    grid.attach_scheduler(scheduler)
    site_of = {}
    for worker_name, queue in scheduler._queues.items():
        site_index = int(worker_name[1:].split(".")[0])
        for task in queue:
            site_of[task.task_id] = site_index
    same_site_neighbours = sum(
        1 for i in range(23) if site_of[i] == site_of[i + 1])
    assert same_site_neighbours >= 12, \
        "affinity should keep most neighbours together"


def test_balance_cap_one_means_even_split(env):
    job = make_job([{i} for i in range(12)])
    grid = make_grid(env, job, num_sites=3)
    scheduler = StorageAffinityScheduler(job, balance_factor=1.0)
    grid.attach_scheduler(scheduler)
    assert max(scheduler.initial_site_load) <= 4


# -- xsufferage estimators ------------------------------------------------

def test_site_mct_counts_missing_bytes(env):
    job = make_job([{0, 1, 2, 3}], file_size=1000.0, flops=0.0)
    grid = make_grid(env, job, num_sites=2)
    scheduler = XSufferageScheduler(job)
    grid.attach_scheduler(scheduler)
    task = job[0]
    cold = scheduler._site_mct(task, 0)
    # warm the site: two of four files resident
    grid.sites[0].storage.insert(0)
    grid.sites[0].storage.insert(1)
    warm = scheduler._site_mct(task, 0)
    assert warm == pytest.approx(cold / 2, rel=1e-6)


def test_site_mct_includes_backlog(env):
    job = make_job([{0}, {1}], flops=0.0)
    grid = make_grid(env, job, num_sites=2)
    scheduler = XSufferageScheduler(job)
    grid.attach_scheduler(scheduler)
    task = job[0]
    base = scheduler._site_mct(task, 0)
    scheduler._site_backlog[0] += 100.0
    assert scheduler._site_mct(task, 0) == pytest.approx(base + 100.0)


def test_backlog_never_negative(env):
    job = make_job([{0}])
    grid = make_grid(env, job, num_sites=1)
    scheduler = XSufferageScheduler(job)
    grid.attach_scheduler(scheduler)
    grid.run()
    assert all(backlog >= 0.0 for backlog in scheduler._site_backlog)


# -- worker-centric candidate heaps ------------------------------------------

def test_zero_heap_prunes_assigned_tasks(env):
    job = make_job([{i} for i in range(6)])
    grid = make_grid(env, job, num_sites=1)
    scheduler = WorkerCentricScheduler(job, metric="rest")
    grid.attach_scheduler(scheduler)
    grid.run()
    # all tasks assigned; the heap must be fully prunable
    assert scheduler._zero_overlap_candidates(0) == []


def test_zero_candidates_ordering_min_files(env):
    job = make_job([{0, 1, 2}, {3}, {4, 5}])
    grid = make_grid(env, job, num_sites=1)
    scheduler = WorkerCentricScheduler(job, metric="rest", n=3)
    grid.attach_scheduler(scheduler)
    candidates = scheduler._zero_overlap_candidates(0)
    sizes = [job[tid].num_files for tid in candidates]
    assert sizes == sorted(sizes)
    assert candidates[0] == 1  # the single-file task


def test_zero_candidates_fifo_for_overlap_metric(env):
    job = make_job([{0, 1, 2}, {3}, {4, 5}])
    grid = make_grid(env, job, num_sites=1)
    scheduler = WorkerCentricScheduler(job, metric="overlap", n=2)
    grid.attach_scheduler(scheduler)
    assert scheduler._zero_overlap_candidates(0) == [0, 1]


@pytest.mark.parametrize("metric", ["overlap", "rest"])
def test_a_requeued_task_is_one_zero_candidate(env, metric):
    """A task put back before its old heap entry was popped has two
    equal entries; ChooseTask(n) still sees n distinct tasks."""
    job = make_job([{0}, {1}, {2}])
    grid = make_grid(env, job, num_sites=1)
    scheduler = WorkerCentricScheduler(job, metric=metric, n=2)
    grid.attach_scheduler(scheduler)
    engine = scheduler.engine
    engine.remove_task(job[0])  # assigned; its entry stays in the heap
    engine.add_task(job[0])     # requeued: a second, equal entry
    assert scheduler._zero_overlap_candidates(0) == [0, 1]
    assert scheduler._zero_overlap_candidates(0) == [0, 1]
