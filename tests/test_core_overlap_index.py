"""OverlapIndex: incremental bookkeeping equals naive recomputation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import rest_weight_exact
from repro.core.overlap_index import OverlapIndex
from repro.core.policy_engine import SiteFileState
from repro.grid.storage import SiteStorage

from conftest import make_job


def exact_total_rest(index, site_id):
    """The oracle: the rational sum over a storage rescan, rounded
    once.  ``total_rest`` must equal it to the last bit."""
    storage = index._sites[site_id].storage
    return float(sum(
        rest_weight_exact(index.job[tid].num_files
                          - storage.overlap(index.job[tid].files))
        for tid in index.pending_tasks))


@pytest.fixture
def indexed(tiny_job):
    index = OverlapIndex(tiny_job)
    storage = SiteStorage(10)
    index.watch_site(0, storage)
    return index, storage


def test_initially_no_overlaps(indexed):
    index, _storage = indexed
    assert index.nonzero_overlaps(0) == {}
    assert index.total_refsum(0) == 0.0


def test_insert_updates_overlaps(indexed, tiny_job):
    index, storage = indexed
    storage.insert(2)  # file 2 is in tasks 0, 1, 2
    assert index.nonzero_overlaps(0) == {0: 1, 1: 1, 2: 1}


def test_evict_reverses_insert(indexed):
    index, storage = indexed
    storage.insert(2)
    storage.insert(99)  # unknown to any task: no effect on index
    # force eviction of 2 by filling a small storage? use direct evict:
    storage.insert(3)
    before = dict(index.nonzero_overlaps(0))
    assert before == {0: 1, 1: 2, 2: 2, 3: 1}


def test_total_rest_matches_naive(indexed, tiny_job):
    index, storage = indexed
    for fid in (0, 2, 4):
        storage.insert(fid)
    assert index.total_rest(0) == exact_total_rest(index, 0)
    assert index.total_rest(0) == pytest.approx(index.naive_total_rest(0))


def test_overlap_matches_naive_after_operations(indexed, tiny_job):
    index, storage = indexed
    for fid in (1, 2, 3):
        storage.insert(fid)
    for task in tiny_job:
        assert index.nonzero_overlaps(0).get(task.task_id, 0) \
            == index.naive_overlap(0, task)


def test_refsum_tracks_touches(indexed, tiny_job):
    index, storage = indexed
    storage.insert(2)
    storage.touch(2)
    storage.touch(2)
    # tasks 0,1,2 contain file 2; its r_i is now 2
    refsums = index.refsums(0)
    for tid in (0, 1, 2):
        assert refsums[tid] == pytest.approx(2.0)
    assert index.total_refsum(0) == pytest.approx(6.0)
    for task in tiny_job:
        assert refsums.get(task.task_id, 0.0) \
            == pytest.approx(index.naive_refsum(0, task))
    # Asked for now, so kept by the events that follow.
    storage.touch(2)
    assert refsums[0] == pytest.approx(3.0)
    assert index.total_refsum(0) == pytest.approx(9.0)


def test_refsum_on_reinsert_carries_history(indexed, tiny_job):
    index, storage = indexed
    storage.insert(2)
    storage.touch(2)       # r=1
    # evict by inserting beyond capacity
    small = SiteStorage(1)
    index2 = OverlapIndex(make_job([{0, 1}]))
    index2.watch_site(0, small)
    small.insert(0)
    small.touch(0)
    small.insert(1)        # evicts 0 (r_0 = 1 survives)
    assert index2.nonzero_overlaps(0) == {0: 1}
    small.insert(0)        # evicts 1, reinserts 0 with r=1
    assert index2.refsums(0)[0] == pytest.approx(1.0)
    assert index2.naive_refsum(0, index2.job[0]) == pytest.approx(1.0)


def test_remove_task_clears_entries(indexed, tiny_job):
    index, storage = indexed
    storage.insert(2)
    index.remove_task(tiny_job[1])
    assert 1 not in index.nonzero_overlaps(0)
    assert 1 not in index.pending_tasks
    with pytest.raises(KeyError):
        index.remove_task(tiny_job[1])


def test_add_task_after_storage_warm(indexed, tiny_job):
    index, storage = indexed
    storage.insert(3)
    storage.touch(3)
    assert index.refsums(0)[1] == pytest.approx(1.0)
    index.remove_task(tiny_job[1])
    assert 1 not in index.refsums(0)
    index.add_task(tiny_job[1])
    assert index.nonzero_overlaps(0)[1] == 1
    assert index.refsums(0)[1] == pytest.approx(1.0)


def test_add_duplicate_task_rejected(indexed, tiny_job):
    index, _storage = indexed
    with pytest.raises(ValueError):
        index.add_task(tiny_job[0])


def test_watch_site_twice_rejected(indexed):
    index, _storage = indexed
    with pytest.raises(ValueError):
        index.watch_site(0, SiteStorage(5))


def test_watch_prewarmed_storage(tiny_job):
    storage = SiteStorage(10)
    storage.insert(2)
    storage.touch(2)
    index = OverlapIndex(tiny_job)
    index.watch_site(0, storage)
    assert index.nonzero_overlaps(0) == {0: 1, 1: 1, 2: 1}
    assert index.total_refsum(0) == pytest.approx(3.0)


def test_view_is_consistent(indexed, tiny_job):
    index, storage = indexed
    storage.insert(3)
    view = index.view(0, tiny_job[1])
    assert view.overlap == 1
    assert view.num_files == 3
    assert view.total_rest == exact_total_rest(index, 0)


# -- property-based equivalence -------------------------------------------

@st.composite
def job_and_ops(draw):
    num_files = draw(st.integers(min_value=3, max_value=12))
    num_tasks = draw(st.integers(min_value=1, max_value=6))
    task_files = [
        draw(st.sets(st.integers(0, num_files - 1), min_size=1,
                     max_size=num_files))
        for _ in range(num_tasks)
    ]
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(0, num_files - 1)),
            st.tuples(st.just("touch"), st.integers(0, num_files - 1)),
            st.tuples(st.just("remove_task"), st.integers(0, num_tasks - 1)),
        ),
        max_size=30))
    capacity = draw(st.integers(min_value=1, max_value=num_files))
    return task_files, ops, capacity


@given(job_and_ops())
@settings(max_examples=120, deadline=None)
def test_index_always_matches_naive(data):
    task_files, ops, capacity = data
    job = make_job(task_files)
    index = OverlapIndex(job)
    storage = SiteStorage(capacity)
    index.watch_site(0, storage)
    removed = set()
    for op, arg in ops:
        if op == "insert":
            storage.insert(arg)
        elif op == "touch":
            storage.touch(arg)
        elif op == "remove_task" and arg < len(job.tasks) \
                and arg not in removed:
            index.remove_task(job[arg])
            removed.add(arg)
    state = index._sites[0]
    for task in job:
        if task.task_id in removed:
            assert task.task_id not in state.overlap
            continue
        naive_ov = index.naive_overlap(0, task)
        assert state.overlap.get(task.task_id, 0) == naive_ov
        assert index.refsums(0).get(task.task_id, 0.0) == pytest.approx(
            index.naive_refsum(0, task))
    assert index.total_rest(0) == exact_total_rest(index, 0)
    assert index.total_refsum(0) == pytest.approx(
        sum(index.naive_refsum(0, job[tid])
            for tid in index.pending_tasks))


@st.composite
def growing_job_and_ops(draw):
    """Tasks whose sizes grow with their id, entering mid-stream.

    The index starts empty, so every first ``add`` of a task larger
    than all before it rescales the integer numerators — with
    whatever corrections the sites have accumulated by then.
    """
    num_tasks = draw(st.integers(2, 7))
    sizes = sorted(draw(st.lists(st.integers(1, 12), min_size=num_tasks,
                                 max_size=num_tasks)))
    num_files = sizes[-1] + draw(st.integers(0, 4))
    task_files = [
        draw(st.sets(st.integers(0, num_files - 1), min_size=size,
                     max_size=size))
        for size in sizes]
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "insert", "evict",
                             "touch"]),
            st.integers(0, 1),                        # site
            st.integers(0, max(num_files, num_tasks) - 1)),
        min_size=1, max_size=50))
    capacity = draw(st.integers(1, num_files))
    return task_files, ops, capacity


@given(growing_job_and_ops())
@settings(max_examples=200, deadline=None)
def test_total_rest_is_the_exact_rational_sum(data):
    """``total_rest`` equals ``float`` of the rational sum with ``==``
    after every add / requeue / remove, insert / evict / touch — site 0
    an LRU :class:`SiteStorage` (evictions by capacity), site 1 a
    delta-driven mirror (explicit removes) — including across the
    denominator growing under live corrections."""
    task_files, ops, capacity = data
    job = make_job(task_files)
    index = OverlapIndex(job, tasks=())
    storages = [SiteStorage(capacity), SiteFileState()]
    for site, storage in enumerate(storages):
        index.watch_site(site, storage)
    denominators = {index._denominator}
    for op, site, arg in ops:
        if op in ("add", "remove"):
            tid = arg % len(task_files)
            if (op == "add") == (tid in index.pending_tasks):
                continue
            (index.add_task if op == "add" else index.remove_task)(
                job[tid])
        elif site == 0:
            if op == "touch":
                storages[0].touch(arg)
            else:  # the LRU evicts by itself
                storages[0].insert(arg)
        elif op == "insert":
            storages[1].add(arg)
        elif op == "evict":
            storages[1].remove(arg)
        else:
            storages[1].reference(arg)
        denominators.add(index._denominator)
        for site in (0, 1):
            assert index.total_rest(site) == exact_total_rest(index, site)
    assert all(isinstance(state.rest_correction, int)
               for state in index._sites.values())
    assert sorted(denominators)[-1] % sorted(denominators)[0] == 0


def test_larger_task_rescales_live_corrections():
    """The rescale path by hand: a correction accumulated over D = 6
    must survive D growing to lcm(1..7) = 420 when a 7-file task
    arrives, and again when everything leaves."""
    job = make_job([{0, 1, 2}, set(range(7))])
    index = OverlapIndex(job, tasks=())
    storage = SiteStorage(10)
    index.watch_site(0, storage)
    index.add_task(job[0])
    storage.insert(0)
    storage.insert(1)
    assert index._denominator == 6
    assert index.total_rest(0) == 1.0           # one file missing
    index.add_task(job[1])                      # 5 of 7 missing
    assert index._denominator == 420
    assert index.total_rest(0) == exact_total_rest(index, 0) == 1.2
    index.remove_task(job[0])
    assert index.total_rest(0) == 0.2
    index.remove_task(job[1])
    assert index.total_rest(0) == 0.0
    assert index._rest_base == 0 == index._sites[0].rest_correction


def test_requeue_into_warm_site_stores_float_refsum(indexed, tiny_job):
    """Regression: ``add_task`` used to store the *int* sum of the
    reference counts when a requeued task found its files resident,
    where every other writer of ``refsum`` stores a float."""
    index, storage = indexed
    for fid in (2, 3):
        storage.insert(fid)
        storage.touch(fid)
    index.remove_task(tiny_job[1])
    index.add_task(tiny_job[1])
    assert index.refsums(0)[1] == 2.0
    assert all(type(ref) is float for ref in index.refsums(0).values())
