"""Edge cases across smaller surfaces: report formatting, worker
accounting, figures scaling helpers, config catalog helpers."""


from repro.exp import ExperimentConfig
from repro.exp.figures import BENCH, PAPER, SMALL, _workers_capacity
from repro.exp.report import format_sweep_table

from conftest import make_grid, make_job


# -- figures helpers ---------------------------------------------------------

def test_scales_are_ordered():
    assert SMALL.num_tasks < BENCH.num_tasks < PAPER.num_tasks
    assert len(PAPER.topology_seeds) == 5  # the paper's protocol


def test_paper_scale_matches_table1():
    config = PAPER.base_config()
    assert config.num_tasks == 6000
    assert config.capacity_files == 6000
    assert PAPER.capacities == (3000, 6000, 15000, 30000)
    assert PAPER.file_sizes_mb == (5.0, 25.0, 50.0)


def test_workers_capacity_floor():
    # must fit (workers+1) concurrent pinned batches of ~101-130 files
    capacity = _workers_capacity(SMALL, 10)
    assert capacity >= 11 * 130


def test_base_config_overrides():
    config = BENCH.base_config(scheduler="rest", workers_per_site=3)
    assert config.scheduler == "rest"
    assert config.workers_per_site == 3
    assert config.num_tasks == BENCH.num_tasks


# -- report edge cases ----------------------------------------------------

def test_format_sweep_table_custom_format():
    from repro.exp.sweep import run_sweep
    sweep = run_sweep(
        ExperimentConfig(num_tasks=15, num_sites=2, capacity_files=400),
        "capacity_files", (400,), ("rest",), topology_seeds=(0,))
    text = format_sweep_table(sweep, metric="file_transfers",
                              value_format="{:>12.0f}")
    assert "." not in text.splitlines()[-1].split()[-1]


# -- worker accounting --------------------------------------------------------

def test_worker_busy_time_counts_fetch_and_compute(env):
    from repro.core.workqueue import WorkqueueScheduler
    job = make_job([{0, 1}], flops=1e9 * 50)
    grid = make_grid(env, job, num_sites=1, speed_mflops=1000.0)
    grid.attach_scheduler(WorkqueueScheduler(job))
    grid.run()
    worker = grid.workers[0]
    assert worker.tasks_completed == 1
    assert worker.busy_time > 50.0  # compute alone is 50s


def test_worker_repr_and_site_repr(env, tiny_job):
    grid = make_grid(env, tiny_job, num_sites=1)
    assert "Site 0" in repr(grid.sites[0])


# -- config helpers ------------------------------------------------------------

def test_coadd_params_pass_through():
    config = ExperimentConfig(num_tasks=77, file_size_mb=5.0,
                              flops_per_file=123.0)
    params = config.coadd_params()
    assert params.num_tasks == 77
    assert params.file_size == 5.0 * 1024 * 1024
    assert params.flops_per_file == 123.0


def test_tiers_params_default_sites():
    config = ExperimentConfig(num_sites=17)
    assert config.tiers_params().num_sites == 17


def test_custom_tiers_accepted_when_big_enough():
    from repro.net import TiersParams
    config = ExperimentConfig(num_sites=4,
                              tiers=TiersParams(num_sites=9))
    assert config.tiers_params().num_sites == 9


# -- control message accounting -----------------------------------------------

def test_control_messages_ride_the_network(env):
    """Each task costs >= 3 control messages (request, delivery,
    completion); those bytes show up in the flow network's totals but
    not in the file server's."""
    from repro.core.workqueue import WorkqueueScheduler
    from repro.grid.worker import CONTROL_MESSAGE_BYTES
    job = make_job([{0}, {1}])
    grid = make_grid(env, job, num_sites=1)
    grid.attach_scheduler(WorkqueueScheduler(job))
    result = grid.run()
    file_bytes = result.bytes_transferred
    network_bytes = grid.network.bytes_transferred
    overhead = network_bytes - file_bytes
    assert overhead >= 2 * 3 * CONTROL_MESSAGE_BYTES
