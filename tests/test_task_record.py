"""The daemon's one record per task.

A task the service admits is a slotted record holding its id, its
files as a sorted tuple of distinct ids — each id one shared ``int``
per service — and its cost.  The same table is the engine's ``job``.
Every admission path refuses what ``grid.job.Task`` refused: no input
files, or negative flops.
"""

import gc
import json
import tracemalloc

import pytest

from repro.serve.service import SchedulerService, ServiceError


def submitted(service, specs):
    """Submit ``specs`` as a JOB_SUBMIT delivers them (decoded JSON)
    and return their records."""
    task_ids = service.submit_job(json.loads(json.dumps(specs)))["task_ids"]
    return [service.engine.job[task_id] for task_id in task_ids]


def test_duplicate_ids_count_once_and_files_is_a_sorted_tuple():
    service = SchedulerService()
    (record,) = submitted(service, [{"files": [9, 3, 9, 1, 3],
                                     "flops": 2}])
    assert record.files == (1, 3, 9)
    assert type(record.files) is tuple
    assert record.num_files == 3
    assert record.flops == 2.0 and type(record.flops) is float
    granted = []
    service.request_task("w0", 0, granted.append)
    assert granted[0].task is record


def test_tasks_sharing_a_file_share_its_int():
    service = SchedulerService()
    big = 10 ** 6  # above the interpreter's small-int cache
    first, second = submitted(service, [{"files": [big, big + 1]},
                                        {"files": [big + 1, big + 2]}])
    (third,) = submitted(service, [{"files": [big + 2, big]}])
    assert first.files[1] is second.files[0]
    assert second.files[1] is third.files[1]
    assert first.files[0] is third.files[0]


BAD_SPECS = [({"files": []}, "no input files"),
             ({"files": [1], "flops": -1.0}, "negative flops")]


@pytest.mark.parametrize("spec, reason", BAD_SPECS)
def test_admit_refuses_a_bad_task(spec, reason):
    """``_admit`` is the fold's admission (submit replay here): a log
    is outside input, so the refusal is a ServiceError naming it."""
    service = SchedulerService()
    record = {"event": "submit", "job_id": 0, "tasks": 1,
              "task_ids": [0], "specs": [spec]}
    with pytest.raises(ServiceError, match=f"submit task 0 has {reason}"):
        service.replay_record(record)
    assert service.jobs_overview() == [] and not service.queue_depth


@pytest.mark.parametrize("spec, reason", BAD_SPECS)
def test_import_state_refuses_a_bad_task(spec, reason):
    donor = SchedulerService()
    donor.submit_job([{"files": [1, 2], "flops": 1.0}])
    state = json.loads(json.dumps(donor.export_state()))
    state["tasks"][0][1:] = [spec["files"], spec.get("flops", 0.0)]
    with pytest.raises(ServiceError, match=f"task 0 has {reason}"):
        SchedulerService().import_state(state)


@pytest.mark.parametrize("spec, reason", BAD_SPECS)
def test_a_steal_import_refuses_a_bad_task_whole(spec, reason):
    service = SchedulerService(id_start=0, id_stride=2, steal_watermark=1)
    specs = [{"task_id": 1, "job_id": 1, "files": [4], "flops": 0.0},
             dict(spec, task_id=3, job_id=1)]
    with pytest.raises(ServiceError, match=f"task 3 has {reason}"):
        service.steal_import_tentative(1, 7, specs)
    # Nothing is held, so no commit can admit half of it.
    assert service.pending_steal_imports() == []
    assert service.steal_commit_import(1, 7) == 0
    assert not service.queue_depth


def coadd_wire_chunks(count, chunk):
    from repro.exp.config import ExperimentConfig
    from repro.exp.runner import build_job
    job = build_job(ExperimentConfig(num_tasks=count, seed=0))
    specs = [{"files": sorted(task.files), "flops": task.flops}
             for task in job]
    return [json.dumps(specs[start:start + chunk])
            for start in range(0, count, chunk)]


def test_coadd_task_state_stays_compact():
    """6 000 Coadd tasks (~78 files each), submitted in 200-task
    chunks decoded from JSON as a JOB_SUBMIT is.  What the service
    holds for them, the engine's own index aside: ~36 MiB when each
    task was a ``Task`` with a ``frozenset`` of its own decoded ints,
    ~9 MiB as records of sorted tuples of shared ids."""
    chunks = coadd_wire_chunks(6000, 200)
    gc.collect()
    tracemalloc.start()
    try:
        service = SchedulerService(metric="combined")
        for chunk in chunks:
            service.submit_job(json.loads(chunk))
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert service.queue_depth == 6000
    held = snapshot.filter_traces([
        tracemalloc.Filter(False, "*/repro/core/*"),
        tracemalloc.Filter(False, tracemalloc.__file__)])
    mib = sum(stat.size for stat in held.statistics("filename")) / 2 ** 20
    assert mib < 12.0, f"{mib:.1f} MiB"
