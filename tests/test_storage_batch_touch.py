"""A served batch's references, recorded in one call, must leave what the
same references recorded one by one leave.

``DataServer`` records a served batch's ~78 references with one
``SiteStorage.touch``, whose listeners receive the whole batch, and
the overlap index folds it through the counting code of a worker
report's ``touched`` half.  Three engines over their own storages are
driven through one hypothesis stream of inserts (evicting when full),
reference batches (repeats and non-resident ids included) and
decisions:

* ``batched`` records each batch with one ``touch(*files)``;
* ``single`` records the same files with one ``touch`` each;
* ``oracle`` records them one by one into the per-file handler the
  index had before batches, kept below verbatim as the specification.

After every step all three must agree on the storage (LRU order and
``r_i``), on ``ref_t`` and ``totalRef`` to the bit, on the refsum
order (anchors, their counts and members, the ids marked dirty), and
on every decision, ranked floats and RNG state included.  A
``fast_path=False`` twin of ``batched`` draws along too.

A simulated run's write-ahead log records each served batch as one
``delta`` whose ``referenced_ids`` hold each of its files once.
"""

import random
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import policy_engine
from repro.core.policy_engine import PolicyEngine
from repro.grid.job import Task
from repro.grid.storage import SiteStorage
from repro.serve.service import SchedulerService

from conftest import make_job, simulated_wal
from test_policy_fast_path import (METRIC_NAMES, assert_bucket_invariants,
                                   same_draw, settled_refsums, trace,
                                   walked)

SITES = (0, 1)


def per_file_on_touch(index):
    """The index's touch handler before batches, one file at a time."""

    def on_touch(state, fids):
        for fid in fids:
            refsum = state.refsum
            if refsum is None or fid not in state.storage:
                continue
            tasks = index._file_to_tasks.get(fid)
            if not tasks:
                continue
            state.total_refsum += len(tasks)
            if state.by_refsum is not None:
                tasks = state.by_refsum.touched(fid, tasks,
                                                index._anchor_of)
            for tid in tasks:
                refsum[tid] += 1

    return on_touch


def build(task_files, metric, n, seed, capacity, fast_path=True,
          oracle=False):
    tasks = {task_id: Task(task_id, frozenset(files))
             for task_id, files in enumerate(task_files)}
    engine = PolicyEngine(tasks, metric=metric, n=n,
                          rng=random.Random(seed), fast_path=fast_path)
    if oracle:
        # Bound by the index's watch_site, so patched before it runs.
        engine._index._on_touch = per_file_on_touch(engine._index)
    storages = [SiteStorage(capacity) for _ in SITES]
    for site, storage in zip(SITES, storages):
        engine.watch_storage(site, storage)
    for task in tasks.values():
        engine.add_task(task)
    trace(engine)
    return engine, storages, tasks


@st.composite
def batch_stream(draw):
    num_files = draw(st.integers(3, 16))
    task_files = [
        draw(st.sets(st.integers(0, num_files - 1), min_size=1,
                     max_size=min(6, num_files)))
        for _ in range(draw(st.integers(1, 12)))]
    fid = st.integers(0, num_files - 1)
    # What a data server does: insert a task's files, then reference
    # them all.  The most common step, so files referenced while they
    # anchor ids are common too.
    serve = st.tuples(st.just("serve"), st.integers(0, 1),
                      st.sampled_from(task_files).map(sorted))
    steps = draw(st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(0, 1), fid),
            serve, serve, serve,
            st.tuples(st.just("batch"), st.integers(0, 1),
                      st.lists(fid, max_size=8)),
            st.tuples(st.sampled_from(["choose", "retire", "requeue",
                                       "ask", "ask-refsums"]),
                      st.integers(0, 1), st.none())),
        min_size=1, max_size=50))
    return (task_files, steps, draw(st.sampled_from(METRIC_NAMES)),
            draw(st.sampled_from([1, 2])), draw(st.integers(0, 2**16)),
            draw(st.integers(2, num_files)))


def order_state(index, site):
    """The refsum order as events leave it, read without flushing."""
    order = index._sites[site].by_refsum
    if order is None:
        return None
    return (set(order.dirty),
            {fid: (anchor.count, anchor.settled, set(anchor.members))
             for fid, anchor in order.anchors.items()})


def assert_same_state(engines, storages, tasks):
    first = engines[0]._index
    for site in SITES:
        for other in storages[1:]:
            assert (other[site].resident_files
                    == storages[0][site].resident_files)
            assert (other[site]._past_references
                    == storages[0][site]._past_references)
        state = first._sites[site]
        for engine in engines[1:]:
            index = engine._index
            twin = index._sites[site]
            assert index.nonzero_overlaps(site) == first.nonzero_overlaps(
                site)
            assert index.total_rest(site) == first.total_rest(site)
            assert (twin.refsum is None) == (state.refsum is None)
            if state.refsum is not None:
                assert settled_refsums(twin) == settled_refsums(state)
                assert twin.total_refsum == state.total_refsum
            assert order_state(index, site) == order_state(first, site)
    # Against the naive rescan, which flushes every order alike.
    for engine in engines:
        assert_bucket_invariants(engine, tasks, SITES)
    for site in SITES:
        order = first._sites[site].by_refsum
        for engine in engines[1:]:
            twin = engine._index._sites[site].by_refsum
            if order is not None:
                assert twin.as_dict() == order.as_dict()
                assert walked(twin) == walked(order)


def run_stream(task_files, steps, metric, n, seed, capacity):
    batched, batched_storages, tasks = build(task_files, metric, n, seed,
                                             capacity)
    single, single_storages, _ = build(task_files, metric, n, seed,
                                       capacity)
    oracle, oracle_storages, _ = build(task_files, metric, n, seed,
                                       capacity, oracle=True)
    reference, reference_storages, _ = build(task_files, metric, n, seed,
                                             capacity, fast_path=False)
    engines = (batched, single, oracle)
    storages = (batched_storages, single_storages, oracle_storages)
    for op, site, arg in steps:
        if op == "insert":
            for each in storages + (reference_storages,):
                each[site].insert(arg)
        elif op in ("serve", "batch"):
            batch = tuple(arg)
            if op == "serve":
                for each in storages + (reference_storages,):
                    for fid in batch:
                        each[site].insert(fid)
            batched_storages[site].touch(*batch)
            reference_storages[site].touch(*batch)
            for each in (single_storages, oracle_storages):
                for fid in batch:
                    each[site].touch(fid)
        elif op == "ask":
            # What a combined decision would ask for, at any metric.
            for engine in engines + (reference,):
                engine._index.refsum_order(site)
        elif op == "ask-refsums":
            # ... when it scans: the refsums without an order.
            for engine in engines + (reference,):
                engine._index.drop_refsum_order(site)
                engine._index.refsums(site)
        elif op == "requeue":
            retired = sorted(set(tasks) - set(batched.pending))
            for engine in engines + (reference,):
                if retired:
                    engine.add_task(tasks[retired[0]])
        elif batched.has_pending:
            chosen, twin = same_draw(batched, single, site,
                                     also=(oracle, reference))
            if op == "retire":
                for engine in engines + (reference,):
                    engine.remove_task(tasks[chosen.task_id])
        assert_same_state(engines, storages, tasks)
        for engine in (single, oracle, reference):
            assert engine._rng.getstate() == batched._rng.getstate()
    return batched


#: File 0 is every task's anchor: once the order exists and a batch
#: has referenced it, each later batch through it hands the order all
#: three referers in one count.
THROUGH_AN_ANCHOR = ([{0, 1}, {0, 2}, {0, 3}], [
    ("ask", 0, None),
    ("serve", 0, [0, 1]),
    ("serve", 0, [0, 2]),
    ("batch", 0, [0, 3, 0]),
    ("choose", 0, None),
    ("serve", 0, [0, 3]),
], "combined", 1, 0, 4)


@given(batch_stream(), st.sampled_from([None, 0]))
@example(THROUGH_AN_ANCHOR, 0)
@settings(max_examples=120, deadline=None)
def test_a_batch_touch_equals_the_same_touches_one_by_one(scenario,
                                                         walk_cost):
    """``walk_cost`` 0 walks the refsum order wherever it can, so
    references meet anchors; None leaves the engine's crossover."""
    if walk_cost is None:
        run_stream(*scenario)
        return
    with mock.patch.object(policy_engine, "ORDER_WALK_COST", walk_cost):
        run_stream(*scenario)


def test_references_through_an_anchor_reach_the_order_as_one_count():
    with mock.patch.object(policy_engine, "ORDER_WALK_COST", 0):
        batched = run_stream(*THROUGH_AN_ANCHOR)
    anchor = batched._index._sites[0].by_refsum.anchors[0]
    assert anchor.count == 4 and anchor.members == {0, 1, 2}


def test_a_simulated_wal_references_each_served_file_once():
    """A recorded run logs each served batch's references in one
    delta, every file once, and the log re-decides to the recorded
    decisions through the service."""
    rng = random.Random(5)
    task_files = [rng.sample(range(30), rng.randint(2, 8))
                  for _ in range(40)]
    job = make_job(task_files)
    records, engine = simulated_wal(job, metric="combined", n=2, seed=5,
                                    num_sites=2, workers_per_site=2,
                                    capacity_files=20)
    touches = Counter(fid for record in records
                      if record["event"] == "delta"
                      for fid in record["referenced_ids"])
    # Each task is served once, with no cancellation.
    assert touches == Counter(fid for files in task_files for fid in files)
    service = SchedulerService(metric="combined", n=2, seed=5,
                               clock=lambda: 0.0)
    assert service.redecide(records) == []
    assert service.engine.rng.getstate() == engine.rng.getstate()
