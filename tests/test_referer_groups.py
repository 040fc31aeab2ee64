"""The overlap index's file -> pending-referers groups: a list while a
file has few referers, a set past ``PROMOTE_AT``.

Which container holds a group must change nothing a scheduler does:
the same admissions, pulls, reports and requeues give the same
decisions, RNG state, exported state and sharing sets as an index
whose every group is a set (``PROMOTE_AT = 0``).  The memory bound at
the end pins what the lists are for.
"""

import tracemalloc
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import overlap_index, policy_engine
from repro.core.overlap_index import PROMOTE_AT, OverlapIndex
from repro.exp.config import ExperimentConfig
from repro.exp.runner import build_job
from repro.grid.files import FileCatalog
from repro.grid.job import Job, Task
from repro.serve.service import SchedulerService

from test_serve_service import FakeClock

#: Two hot files, held by two tasks in three, so each hot group passes
#: the promotion size on admission; the cold pool's groups stay short,
#: and the third task anchors its refsum-order key on one of them.
HOT = 2
COLD = range(HOT, HOT + 40)
SITES = 3


@st.composite
def scenarios(draw):
    count = draw(st.integers(3 * (PROMOTE_AT + 1), 4 * PROMOTE_AT + 12))
    specs = []
    for task in range(count):
        hot = {task % 3} if task % 3 < HOT else set()
        cold = draw(st.lists(st.sampled_from(COLD), min_size=1, max_size=4))
        specs.append({"files": sorted(hot | set(cold)), "flops": 1.0})
    order = draw(st.permutations(range(count)))
    split = draw(st.integers(1, count - 1))
    # Pull down past the promotion size, leave the lapsed leases to be
    # requeued (growing the groups again), then pull the rest.
    first_pulls = draw(st.integers(count - PROMOTE_AT + 2, count))
    deltas = draw(st.lists(st.tuples(
        st.integers(0, SITES - 1),
        st.lists(st.sampled_from(range(HOT + len(COLD))), max_size=6),
        st.lists(st.sampled_from(range(HOT + len(COLD))), max_size=6),
        st.lists(st.sampled_from(range(HOT + len(COLD))), max_size=8)),
        min_size=1, max_size=12))
    return specs, order, split, first_pulls, deltas


def drive(specs, order, split, first_pulls, deltas):
    """One scripted run; returns everything a run may be compared on."""
    clock = FakeClock()
    service = SchedulerService(metric="combined", n=2, seed=5,
                               lease_ttl=10.0, clock=clock)
    admitted = [specs[i] for i in order]
    service.submit_job(admitted[:split])
    service.submit_job(admitted[split:])
    seen = {"decisions": [], "states": [], "sharing": [], "hot": [],
            "kernels": set()}
    index = service.engine._index

    def observe():
        seen["states"].append(service.export_state())
        seen["sharing"].append([
            sorted(service.engine.tasks_sharing(files))
            for files in ([0], [1], list(COLD), [0, HOT])])
        seen["hot"].append([
            (type(group).__name__, len(group)) for group in map(
                index._file_to_tasks.get, range(HOT)) if group])

    def pull(step):
        site = step % SITES
        site_id, added, removed, referenced = deltas[step % len(deltas)]
        service.file_delta(site_id, added, removed, referenced)
        box = []
        service.request_task(f"w{site}", site, box.append)
        seen["kernels"].add(service.engine.last_kernel)
        if box and hasattr(box[0], "task"):
            seen["decisions"].append(box[0].task.task_id)
            return box[0]
        return None

    observe()
    leases = [pull(step) for step in range(first_pulls)]
    observe()
    # Half of the granted tasks finish; the others' leases lapse and
    # their tasks return to the queue.
    for assignment in leases[::2]:
        if assignment is not None:
            service.task_done("w0", assignment.task.task_id,
                              assignment.lease_id)
    clock.advance(60.0)
    service.expire_leases()
    observe()
    step = first_pulls
    while service.queue_depth:
        assignment = pull(step)
        if assignment is not None:
            service.task_done("w0", assignment.task.task_id,
                              assignment.lease_id)
        step += 1
    observe()
    seen["rng"] = service.engine.rng.getstate()
    return seen


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_groups_change_nothing_a_scheduler_does(scenario):
    """With the refsum order paying from a handful of candidates on, so
    that the anchors' ``referers - members`` meets list groups too."""
    with mock.patch.object(policy_engine, "ORDER_WALK_COST", 1):
        lists = drive(*scenario)
        with mock.patch.object(overlap_index, "PROMOTE_AT", 0):
            sets = drive(*scenario)
    assert lists["kernels"] == sets["kernels"]
    admitted, pulled = lists["hot"][:2]
    # Every hot group was promoted on admission, then shrank past the
    # promotion size as a set (or went with its last referer).
    assert [kind for kind, _size in admitted] == ["set"] * HOT
    assert all(kind == "set" and size <= PROMOTE_AT
               for kind, size in pulled)
    assert lists["decisions"] == sets["decisions"]
    assert lists["rng"] == sets["rng"]
    assert lists["states"] == sets["states"]
    assert lists["sharing"] == sets["sharing"]


def test_groups_are_lists_until_they_pass_the_promotion_size():
    tasks = [Task(tid, frozenset({0, 1 + tid % 2})) for tid in range(40)]
    index = OverlapIndex(Job(tasks, FileCatalog(3)), tasks=())
    groups = index._file_to_tasks
    for task in tasks[:PROMOTE_AT]:
        index.add_task(task)
    assert type(groups[0]) is list and len(groups[0]) == PROMOTE_AT
    index.add_task(tasks[PROMOTE_AT])
    assert groups[0] == set(range(PROMOTE_AT + 1))
    for task in tasks[:PROMOTE_AT]:
        index.remove_task(task)
    # A promoted group stays a set as it shrinks, and goes with its
    # last referer; a file referred to afresh starts a list again.
    assert groups[0] == {PROMOTE_AT}
    index.remove_task(tasks[PROMOTE_AT])
    assert 0 not in groups
    index.add_task(tasks[0])
    assert groups[0] == [0]


def test_one_file_shared_by_twenty_thousand_tasks_is_a_set():
    count = 20000
    tasks = [Task(tid, frozenset({0, 1 + tid})) for tid in range(count)]
    job = Job(tasks, FileCatalog(count + 1))
    index = OverlapIndex(job)
    assert type(index._file_to_tasks[0]) is set
    assert type(index._file_to_tasks[1]) is list
    assert index.tasks_sharing([0]) == set(range(count))
    for task in tasks[:-1]:
        index.remove_task(task)
    assert index._file_to_tasks[0] == {count - 1}
    index.remove_task(tasks[-1])
    assert index._file_to_tasks == {}


def test_paper_coadd_job_and_its_index_fit_their_memory_bound():
    """``build_job`` plus an ``OverlapIndex`` over the paper's 6 000
    Coadd tasks: ~37 MiB traced on CPython 3.11, against ~71 MiB with
    every task's set grown in place and every group a set."""
    tracemalloc.start()
    try:
        job = build_job(ExperimentConfig(num_tasks=6000, seed=0))
        index = OverlapIndex(job)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index.pending_tasks) == 6000
    assert peak <= 55 * 2**20, peak / 2**20
