"""The Coadd generator builds each task's file set one task at a time;
every ``Task.files`` must still iterate exactly as the set grown in
place did.

A data server fetches a task's missing files in that iteration order,
and the pinned makespans, transfers and evictions depend on it.  The
oracle below is the generator body as it was when every task's set
stayed alive until the auxiliary pass; it is kept verbatim so that CI's
Python matrix checks the order on every interpreter it runs.
"""

import math
import random
from dataclasses import replace

import pytest

from repro.grid.files import FileCatalog
from repro.grid.job import Job, Task
from repro.workload.coadd import (COADD_6000, COADD_FULL, generate,
                                  generate_with_keys)


def oracle_build(params, seed, file_size, jitter_seed):
    """The generator as it grew every task's set in place."""
    rng = random.Random(seed)
    runs = []
    for run_index in range(params.num_runs):
        length = params.field_lengths[run_index % len(params.field_lengths)]
        phase = rng.uniform(0.0, length)
        runs.append((length, phase))
    if jitter_seed is not None:
        rng = random.Random(jitter_seed)

    num_aux = round(params.aux_files_per_task * params.num_tasks)
    aux_by_task = {}
    for aux_index in range(num_aux):
        start = rng.randrange(params.num_tasks)
        span = rng.randint(params.aux_span_lo, params.aux_span_hi)
        for task_index in range(start, min(start + span, params.num_tasks)):
            aux_by_task.setdefault(task_index, []).append(aux_index)

    stripe_end = (params.num_tasks - 1) * params.stride
    file_ids = {}
    task_file_sets = []
    for i in range(params.num_tasks):
        centre = i * params.stride
        width = rng.triangular(params.width_lo, params.width_hi,
                               params.width_mode)
        lo = max(0.0, centre - width / 2.0)
        hi = min(stripe_end, centre + width / 2.0)
        files = set()
        for run_index, (length, phase) in enumerate(runs):
            k_lo = math.floor((lo - phase) / length)
            k_hi = math.floor((hi - phase) / length)
            for k in range(k_lo, k_hi + 1):
                key = (run_index, k)
                fid = file_ids.get(key)
                if fid is None:
                    fid = len(file_ids)
                    file_ids[key] = fid
                files.add(fid)
        task_file_sets.append(files)

    num_field_files = len(file_ids)
    tasks = []
    for i, files in enumerate(task_file_sets):
        for aux_index in aux_by_task.get(i, ()):
            files.add(num_field_files + aux_index)
        tasks.append(Task(task_id=i, files=frozenset(files),
                          flops=params.flops_per_file * len(files)))

    catalog = FileCatalog(num_field_files + num_aux,
                          default_size=file_size or params.file_size)
    job = Job(tasks, catalog, name=f"coadd-{params.num_tasks}")

    keys = [None] * (num_field_files + num_aux)
    for (run_index, k), fid in file_ids.items():
        keys[fid] = ("field", run_index, k)
    for aux_index in range(num_aux):
        keys[num_field_files + aux_index] = ("aux", aux_index)
    return job, keys


def assert_same_job(job, expected):
    assert len(job) == len(expected)
    for task, want in zip(job, expected):
        assert task.task_id == want.task_id
        assert list(task.files) == list(want.files), task.task_id
        assert task.flops == want.flops
    assert len(job.catalog) == len(expected.catalog)
    assert job.name == expected.name


#: A ``COADD_FULL``-shaped job (36 runs, wider windows, two auxiliary
#: files per task: tasks of up to ~180 files) at a size tier-1 affords.
FULL_SHAPED = replace(COADD_FULL, num_tasks=4000)


@pytest.mark.parametrize("jitter_seed", [None, 17])
@pytest.mark.parametrize("seed", range(5))
def test_coadd_6000_iterates_as_grown_in_place(seed, jitter_seed):
    want, want_keys = oracle_build(COADD_6000, seed, None, jitter_seed)
    job, keys = generate_with_keys(COADD_6000, seed=seed,
                                   jitter_seed=jitter_seed)
    assert_same_job(job, want)
    assert keys == want_keys
    assert_same_job(generate(COADD_6000, seed=seed,
                             jitter_seed=jitter_seed), want)


def test_full_shaped_job_iterates_as_grown_in_place():
    want, want_keys = oracle_build(FULL_SHAPED, 3, 25e6, None)
    job, keys = generate_with_keys(FULL_SHAPED, seed=3, file_size=25e6)
    assert max(task.num_files for task in job) > 129
    assert_same_job(job, want)
    assert keys == want_keys
    assert job.catalog.size(0) == want.catalog.size(0)
