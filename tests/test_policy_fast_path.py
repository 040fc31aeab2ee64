"""The sublinear decision kernel must be bit-identical to the
reference scan.

``PolicyEngine(fast_path=True)`` answers ``choose`` through candidate
buckets (``overlap``/``rest``, unscoped), the refsum-order walk
(``combined``/``combined-literal`` over a large candidate map) or the
allocation-free scoring loop (everything else); ``fast_path=False``
keeps the original TaskView-per-candidate loop.  This suite pins the
tentpole invariant: for any delta stream, any metric, any n, scoped or
not, both paths rank the *same candidates with the same floats*, pick
the *same task* and leave the RNG in the *same state* — so a fast-path
deployment replays a reference-path history exactly.

The hypothesis workloads are far below the size at which the engine
would choose the refsum order by itself, so every differential here
also runs with ``ORDER_WALK_COST`` patched to 0 ("always walk").

Also here: the candidate-structure invariants.  The refsums, the
overlap-count buckets, the missing-count buckets and the refsum order
exist at a site only once a decision (or a test) asked for them;
wherever one exists it must, after every mutation, agree with a naive
recomputation from storage (``naive_overlap``/``naive_refsum``) and
with a from-scratch build, ranked retrieval must equal brute-force
sorting, and it must not matter *when* it was first asked for.

And the write side: a whole worker report through
``PolicyEngine.apply_delta`` must leave exactly what the same report
leaves when applied file by file.
"""

import heapq
import random
from collections import OrderedDict
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import policy_engine
from repro.core.candidates import CandidateBuckets, RefsumOrder
from repro.core.metrics import rest_weight_exact
from repro.core.policy_engine import PolicyEngine, SiteFileState
from repro.grid.job import Task

METRIC_NAMES = ["overlap", "rest", "combined", "combined-literal"]
ORDERED_NAMES = ["combined", "combined-literal"]


def always_walk():
    """Force the ordered kernel wherever it is applicable."""
    return mock.patch.object(policy_engine, "ORDER_WALK_COST", 0)


def build_engine(task_files, metric, n, seed, fast_path,
                 sites=(0, 1)):
    tasks = {task_id: Task(task_id, frozenset(files))
             for task_id, files in enumerate(task_files)}
    engine = PolicyEngine(tasks, metric=metric, n=n,
                          rng=random.Random(seed), fast_path=fast_path)
    for site in sites:
        engine.attach_site(site)
    for task in tasks.values():
        engine.add_task(task)
    trace(engine)
    return engine, tasks


def trace(engine):
    engine.spans = []
    engine.on_decision = engine.spans.append
    #: (kernel, nonzero-overlap candidates at the site) per decision.
    engine.kernels = []


def same_draw(fast, reference, site, eligible=None, also=()):
    """One decision on both engines (and on each of ``also``): same
    winner, same ranked floats."""
    chosen = fast.choose(site, eligible=eligible)
    twin = reference.choose(site, eligible=eligible)
    assert chosen.task_id == twin.task_id
    candidates = fast.spans.pop()["candidates"]
    assert candidates == reference.spans.pop()["candidates"]
    for other in also:
        assert other.choose(site, eligible=eligible).task_id == twin.task_id
        assert other.spans.pop()["candidates"] == candidates
    fast.kernels.append(
        (fast.last_kernel, len(fast._index.nonzero_overlaps(site))))
    return chosen, twin


def walked_wherever_possible(engine):
    """Under ``always_walk`` only an empty candidate map is scanned."""
    return all(kernel == "ordered" if candidates else kernel == "scored"
               for kernel, candidates in engine.kernels)


@st.composite
def delta_scenario(draw, metrics=METRIC_NAMES):
    """A workload plus a random op stream over it.

    Ops: file add / remove / reference at a site, a (possibly scoped)
    draw, and a draw-then-retire.  The stream is applied identically
    to a fast and a reference engine.
    """
    num_files = draw(st.integers(3, 24))
    num_tasks = draw(st.integers(1, 12))
    task_files = [
        draw(st.sets(st.integers(0, num_files - 1), min_size=1,
                     max_size=min(6, num_files)))
        for _ in range(num_tasks)
    ]
    metric = draw(st.sampled_from(metrics))
    n = draw(st.sampled_from([1, 2, 4]))
    seed = draw(st.integers(0, 2**16))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "reference", "choose",
                             "choose-scoped", "retire"]),
            st.integers(0, 1),                 # site
            st.integers(0, num_files - 1),     # file id (file ops)
            st.integers(0, 2**16),             # scope-subset seed
        ),
        min_size=1, max_size=40))
    return task_files, metric, n, seed, ops


def random_scope(engine, scope_seed):
    """A non-empty subset of the pending ids, a function of the seed."""
    pending = sorted(engine.pending)
    scope_rng = random.Random(scope_seed)
    return set(scope_rng.sample(pending,
                                scope_rng.randint(1, len(pending))))


def apply_ops(fast, reference, ops):
    """Drive both engines through the op stream, asserting each draw."""
    for op, site, fid, scope_seed in ops:
        if op == "add":
            assert (fast.file_added(site, fid)
                    == reference.file_added(site, fid))
        elif op == "remove":
            assert (fast.file_removed(site, fid)
                    == reference.file_removed(site, fid))
        elif op == "reference":
            assert (fast.file_referenced(site, fid)
                    == reference.file_referenced(site, fid))
        elif not fast.has_pending:
            continue
        elif op == "choose":
            same_draw(fast, reference, site)
        elif op == "choose-scoped":
            same_draw(fast, reference, site,
                      random_scope(fast, scope_seed))
        else:  # retire
            chosen, twin = same_draw(fast, reference, site)
            fast.remove_task(chosen)
            reference.remove_task(twin)


def check_decision_and_rng_identity(scenario):
    task_files, metric, n, seed, ops = scenario
    fast, _ = build_engine(task_files, metric, n, seed, fast_path=True)
    reference, _ = build_engine(task_files, metric, n, seed,
                                fast_path=False)
    apply_ops(fast, reference, ops)
    assert fast.decisions == reference.decisions
    assert fast._rng.getstate() == reference._rng.getstate()
    # Drain what's left through both paths: the whole tail must agree.
    while fast.has_pending:
        chosen, twin = same_draw(fast, reference, 0)
        fast.remove_task(chosen)
        reference.remove_task(twin)
    assert not reference.has_pending
    assert fast._rng.getstate() == reference._rng.getstate()
    return fast


@given(delta_scenario())
@settings(max_examples=120, deadline=None)
def test_fast_path_is_decision_and_rng_identical(scenario):
    check_decision_and_rng_identity(scenario)


@given(delta_scenario(metrics=ORDERED_NAMES))
@settings(max_examples=120, deadline=None)
def test_ordered_kernel_is_decision_and_rng_identical(scenario):
    """The same streams with the crossover forced to "always walk":
    every ``combined``/``combined-literal`` draw — unscoped and
    set-scoped, n in {1, 2, 4} — goes through the refsum order."""
    with always_walk():
        fast = check_decision_and_rng_identity(scenario)
    assert walked_wherever_possible(fast)


def check_batched_draws(scenario):
    task_files, metric, n, seed, ops = scenario
    fast, _ = build_engine(task_files, metric, n, seed, fast_path=True)
    reference, _ = build_engine(task_files, metric, n, seed,
                                fast_path=False)
    for op, site, fid, scope_seed in ops:
        if op == "add":
            fast.file_added(site, fid)
            reference.file_added(site, fid)
        elif op == "reference":
            fast.file_referenced(site, fid)
            reference.file_referenced(site, fid)
    k = max(1, len(task_files) // 2)
    eligible = None
    if ops[0][3] % 2 and fast.has_pending:
        eligible = random_scope(fast, ops[0][3])
    before = len(fast._index.nonzero_overlaps(0))
    drawn = fast.choose_many(0, k, eligible=eligible)
    expected = reference.choose_many(0, k, eligible=eligible)
    fast.kernels.append((fast.spans[0]["kernel"], before))
    assert ([task.task_id for task in drawn]
            == [task.task_id for task in expected])
    assert ([span["candidates"] for span in fast.spans]
            == [span["candidates"] for span in reference.spans])
    assert fast._rng.getstate() == reference._rng.getstate()
    return fast


@given(delta_scenario())
@settings(max_examples=60, deadline=None)
def test_fast_path_batched_draws_are_identical(scenario):
    """``choose_many`` (which feeds TASK_BATCH) agrees across paths,
    scoped and unscoped."""
    check_batched_draws(scenario)


@given(delta_scenario(metrics=ORDERED_NAMES))
@settings(max_examples=60, deadline=None)
def test_ordered_kernel_batched_draws_are_identical(scenario):
    with always_walk():
        fast = check_batched_draws(scenario)
    assert walked_wherever_possible(fast)


# -- candidate-bucket invariants ---------------------------------------------

def ask_for_all(engine, site):
    """What decisions of all three kinds would have asked for."""
    index = engine._index
    index.refsums(site)
    index.candidates_by_overlap(site)
    index.candidates_by_missing(site)
    index.refsum_order(site)


def assert_buckets_equal_fresh_build(buckets, expected):
    """Incrementally maintained == built from scratch right now."""
    buckets.check()
    assert buckets.as_dict() == expected
    assert dict(buckets.key_by_id) == expected
    fresh = CandidateBuckets(expected)
    fresh.check()
    for reverse in (False, True):
        for count in (1, 2, 4):
            assert (buckets.top(count, reverse=reverse)
                    == fresh.top(count, reverse=reverse))


def settled_refsums(state):
    """What ``refsums()`` returns for a site, read without settling:
    the index's map plus what the order's anchors owe their members
    (checking must not pay the debts the code under test carries)."""
    refsums = dict(state.refsum)
    if state.by_refsum is not None:
        for anchor in state.by_refsum.anchors.values():
            for tid in anchor.members:
                refsums[tid] += anchor.count - anchor.settled
    return refsums


def assert_bucket_invariants(engine, tasks, sites=(0, 1)):
    """Every candidate structure a site carries must mirror a naive
    storage rescan exactly; a structure nobody asked for is None and
    is not checked (nor built by checking)."""
    index = engine._index
    for site in sites:
        state = index._sites[site]
        expected_overlap = {}
        for tid in engine.pending:
            ov = index.naive_overlap(site, tasks[tid])
            if ov:
                expected_overlap[tid] = ov
        assert index.nonzero_overlaps(site) == expected_overlap
        expected_missing = {tid: tasks[tid].num_files - ov
                            for tid, ov in expected_overlap.items()}
        # The incremental totalRest is the rational sum, to the bit.
        assert index.total_rest(site) == float(sum(
            (rest_weight_exact(tasks[tid].num_files
                               - expected_overlap.get(tid, 0))
             for tid in engine.pending), Fraction(0)))
        if index.has_refsums(site):
            expected_refsums = {
                tid: index.naive_refsum(site, tasks[tid])
                for tid in expected_overlap}
            assert settled_refsums(state) == expected_refsums
            assert all(type(refsum) is float
                       for refsum in settled_refsums(state).values())
            assert (index.total_refsum(site)
                    == sum(expected_refsums.values()))
            assert type(index.total_refsum(site)) is float
        if state.by_overlap is not None:
            assert_buckets_equal_fresh_build(state.by_overlap,
                                             expected_overlap)
            # Ranked retrieval == brute force over the same candidates.
            brute = sorted((-ov, tid)
                           for tid, ov in expected_overlap.items())
            for count in (1, 2, 4):
                assert (state.by_overlap.top(count, reverse=True)
                        == [(-key, tid) for key, tid in brute[:count]])
        if state.by_missing is not None:
            assert_buckets_equal_fresh_build(state.by_missing,
                                             expected_missing)
        if state.by_refsum is None:
            continue
        # An anchor lives exactly as long as its file stays resident.
        assert all(fid in state.storage for fid in state.by_refsum.anchors)
        # The refsum order (lazily re-keyed from the ids marked since
        # it was last asked for) equals a brute-force sort over the
        # rescan, group by group.
        order = index.refsum_order(site)
        assert order is state.by_refsum and state.by_missing is not None
        assert not order.dirty
        expected_keys = {
            tid: (missing, index.naive_refsum(site, tasks[tid]))
            for tid, missing in expected_missing.items()}
        # Each key plus its anchor's count is the rescan's ref_t.
        order.check({tid: refsum
                     for tid, (_missing, refsum) in expected_keys.items()})
        assert order.as_dict() == expected_keys
        assert all(type(refsum) is float
                   for _missing, refsum in order.as_dict().values())
        for missing in order.groups():
            brute = sorted((-refsum, tid) for tid, (group, refsum)
                           in expected_keys.items() if group == missing)
            assert ([(-refsum, tid) for refsum, tid
                     in order.walk(missing)] == brute)
        # ...which also emptied, hence dropped, any all-stale group.
        assert set(order.groups()) == {
            group for group, _refsum in expected_keys.values()}


def walked(order):
    """Every non-empty group of a flushed order, walked to its end
    (a group holding only stale entries walks empty and is dropped)."""
    walks = {missing: list(order.walk(missing))
             for missing in order.groups()}
    return {missing: walk for missing, walk in walks.items() if walk}


def mutate(engine, tasks, op, site, fid):
    """Apply one scenario op as a mutation; False if it was none."""
    if op == "add":
        engine.file_added(site, fid)
    elif op == "remove":
        engine.file_removed(site, fid)
    elif op == "reference":
        engine.file_referenced(site, fid)
    elif op == "retire" and engine.has_pending:
        engine.remove_task(engine.choose(site))
    elif op == "choose-scoped":
        # Doubles as "requeue": put the lowest retired task back.
        retired = sorted(set(tasks) - set(engine.pending))
        if not retired:
            return False
        engine.add_task(tasks[retired[0]])
    else:
        return False
    return True


@given(delta_scenario())
@settings(max_examples=80, deadline=None)
def test_bucket_invariants_hold_after_every_mutation(scenario):
    """Site 0 carries all three structures from before the first
    event (the order is asked for again at every check: a ``combined``
    decision over so small a map drops it); site 1 only what the
    engine's own decisions ask for."""
    task_files, metric, n, seed, ops = scenario
    engine, tasks = build_engine(task_files, metric, n, seed,
                                 fast_path=True)

    def check():
        ask_for_all(engine, 0)
        assert_bucket_invariants(engine, tasks)

    check()
    for op, site, fid, _scope in ops:
        if mutate(engine, tasks, op, site, fid):
            check()
    # Requeue everything retired: buckets fold re-added tasks back in.
    for tid, task in tasks.items():
        if not engine.is_pending(tid):
            engine.add_task(task)
            check()


@given(delta_scenario(), st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_structures_do_not_depend_on_when_they_were_asked_for(
        scenario, ask_at):
    """An always-built twin vs structures first asked for at a random
    point of the same event stream: from that point on equal refsums
    and ``totalRef`` (``==``, so to the bit), equal ``as_dict()``,
    ``check()`` passing, equal ``top(n)`` and walks."""
    task_files, metric, n, seed, ops = scenario
    eager, tasks = build_engine(task_files, metric, n, seed,
                                fast_path=True)
    late, _ = build_engine(task_files, metric, n, seed, fast_path=True)
    for site in (0, 1):
        ask_for_all(eager, site)
    for step, (op, site, fid, _scope) in enumerate(ops):
        if step == ask_at:
            for asked in (0, 1):
                # ``overlap``/``rest`` never ask; a ``combined``
                # decision (a "retire" op) may have, at its own site.
                assert (metric in ORDERED_NAMES
                        or not late._index.has_refsums(asked))
                ask_for_all(late, asked)
        mutate(eager, tasks, op, site, fid)
        mutate(late, tasks, op, site, fid)
        if step < ask_at:
            continue
        assert_bucket_invariants(late, tasks)
        for asked in (0, 1):
            twin = eager._index._sites[asked]
            state = late._index._sites[asked]
            assert (late._index.refsums(asked)
                    == eager._index.refsums(asked))
            assert (late._index.total_refsum(asked)
                    == eager._index.total_refsum(asked))
            assert state.by_overlap.as_dict() == twin.by_overlap.as_dict()
            assert state.by_missing.as_dict() == twin.by_missing.as_dict()
            for count in (1, 2, 4):
                assert (state.by_overlap.top(count, reverse=True)
                        == twin.by_overlap.top(count, reverse=True))
                assert (state.by_missing.top(count)
                        == twin.by_missing.top(count))
            order = late._index.refsum_order(asked)
            twin_order = eager._index.refsum_order(asked)
            assert order.as_dict() == twin_order.as_dict()
            assert walked(order) == walked(twin_order)
    assert late._rng.getstate() == eager._rng.getstate()


# -- a whole report == the same report file by file -------------------------

def apply_file_by_file(engine, site, added, removed, referenced):
    """What ``SchedulerService._apply_delta`` did before
    ``apply_delta``: removals, insertions, references, one call each."""
    duplicate_removes = sum(not engine.file_removed(site, fid)
                            for fid in removed)
    duplicate_adds = sum(not engine.file_added(site, fid)
                         for fid in added)
    for fid in referenced:
        engine.file_referenced(site, fid)
    return duplicate_adds, duplicate_removes


@st.composite
def report_stream(draw):
    """Tasks plus a stream of worker reports and decisions.  File ids
    come from a small pool, so one report repeats an id inside
    ``referenced``, names an id in both ``added`` and ``removed``, and
    adds what is resident / removes what is not, all the time."""
    num_files = draw(st.integers(3, 12))
    fids = st.lists(st.integers(0, num_files - 1), max_size=5)
    task_files = draw(st.lists(
        st.sets(st.integers(0, num_files - 1), min_size=1,
                max_size=min(5, num_files)),
        min_size=1, max_size=10))
    steps = draw(st.lists(
        st.one_of(
            st.tuples(st.just("report"), st.integers(0, 1),
                      fids, fids, fids),
            st.tuples(st.sampled_from(["choose", "choose-scoped",
                                       "retire", "requeue"]),
                      st.integers(0, 1), st.integers(0, 2**16))),
        min_size=1, max_size=30))
    return task_files, steps


def check_whole_report_equals_file_by_file(metric, n, seed, task_files,
                                           steps, read_at,
                                           walk_cost=None):
    """``whole`` takes each report through ``apply_delta``, ``single``
    file by file, ``reference`` through ``fast_path=False``.  Every
    step: same duplicate counts, same winner, ranked floats and RNG
    (all three), same ``nonzero_overlaps`` and ``total_rest``; from
    step ``read_at`` on also the same refsums and ``totalRef``
    (reading them builds them, which an ``overlap``/``rest`` engine
    never does by itself — so before ``read_at`` those run the
    untracked path).  ``walk_cost`` patches ``ORDER_WALK_COST``: 0
    walks the refsum order wherever it can, 1 builds and drops it
    through the crossover's hysteresis as the maps grow and shrink."""
    if walk_cost is not None:
        with mock.patch.object(policy_engine, "ORDER_WALK_COST",
                               walk_cost):
            return check_whole_report_equals_file_by_file(
                metric, n, seed, task_files, steps, read_at)
    whole, tasks = build_engine(task_files, metric, n, seed,
                                fast_path=True)
    single, _ = build_engine(task_files, metric, n, seed, fast_path=True)
    reference, _ = build_engine(task_files, metric, n, seed,
                                fast_path=False)
    for step, (op, site, *rest) in enumerate(steps):
        if op == "report":
            added, removed, referenced = rest
            assert (whole.apply_delta(site, added, removed, referenced)
                    == apply_file_by_file(single, site, added, removed,
                                          referenced))
            reference.apply_delta(site, added, removed, referenced)
            for engine in (whole, single):
                assert (engine.site_state(site).export()
                        == single.site_state(site).export())
        elif op == "requeue":
            retired = sorted(set(tasks) - set(whole.pending))
            for engine in (whole, single, reference):
                if retired:
                    engine.add_task(tasks[retired[0]])
        elif whole.has_pending:
            eligible = (random_scope(whole, rest[0])
                        if op == "choose-scoped" else None)
            chosen, twin = same_draw(whole, single, site, eligible,
                                     also=(reference,))
            if op == "retire":
                whole.remove_task(chosen)
                single.remove_task(twin)
                reference.remove_task(tasks[chosen.task_id])
        assert whole._rng.getstate() == single._rng.getstate()
        assert whole._rng.getstate() == reference._rng.getstate()
        assert_bucket_invariants(single, tasks)
        for site in (0, 1):
            assert (whole._index.has_refsums(site)
                    == single._index.has_refsums(site))
            assert (whole._index.nonzero_overlaps(site)
                    == single._index.nonzero_overlaps(site))
            assert (whole._index.total_rest(site)
                    == single._index.total_rest(site))
            if step >= read_at:
                assert (whole._index.refsums(site)
                        == single._index.refsums(site))
                assert (whole._index.total_refsum(site)
                        == single._index.total_refsum(site))
        # Against the naive rescan too, whatever each site carries.
        assert_bucket_invariants(whole, tasks)
    return whole


#: An anchor file evicted after all its referers retired, then a task
#: anchored on it requeued, losing and regaining its overlap through
#: file 1 (a ``combined`` engine with n=1 retires ids 0 and 1).  The
#: file-by-file path once kept that anchor past its file, still owing
#: its count: the requeued id joined it, and losing file 1 popped a
#: refsum short of ``ref_t`` (the next settle raised KeyError).
ANCHOR_EVICTED_WITHOUT_REFERERS = ([{0, 1}, {0}, {2}], [
    ("report", 0, [0, 1, 2], [], []),
    ("choose", 0, 0),                      # the order is built
    ("report", 0, [], [], [0]),            # file 0 becomes an anchor
    ("choose", 0, 0),                      # ids 0 and 1 join it
    ("report", 0, [], [], [0]),            # its count passes settled
    ("retire", 0, 0),
    ("retire", 0, 0),                      # file 0 has no referers left
    ("report", 0, [], [0], []),            # ... and leaves
    ("requeue", 0, 0),                     # id 0, anchored on file 0
    ("choose", 0, 0),
    ("report", 0, [], [1], []),            # id 0 loses its overlap
    ("report", 0, [1], [], [1]),           # ... and regains it
    ("choose", 0, 0),
    ("report", 0, [], [1], []),
    ("choose", 0, 0),
])


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("metric", METRIC_NAMES)
@given(report_stream(), st.integers(0, 2**16), st.integers(0, 30),
       st.sampled_from([None, 0, 1]))
@example(ANCHOR_EVICTED_WITHOUT_REFERERS, 5, 0, 0)
@example(ANCHOR_EVICTED_WITHOUT_REFERERS, 5, 30, 0)
@settings(max_examples=25, deadline=None)
def test_whole_report_equals_file_by_file(metric, n, scenario, seed,
                                          read_at, walk_cost):
    task_files, steps = scenario
    check_whole_report_equals_file_by_file(metric, n, seed, task_files,
                                           steps, read_at, walk_cost)


@pytest.mark.parametrize("read_at", [0, 99])
@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_whole_report_with_repeats_swaps_and_redundant_ids(metric,
                                                           read_at):
    """The awkward reports, spelled out: an id twice in ``referenced``
    (counted twice), an id in both ``added`` and ``removed`` (resident:
    leaves and re-enters; absent: a redundant remove, then an add), ids
    repeated inside ``added``/``removed``, a task losing its last
    resident file while another gains its first, a reference to a file
    that the same report removes — with and without refsum orders."""
    task_files = [{0, 1}, {1, 2}, {2, 3}, {0, 3}, {4}, {0, 1, 2, 3, 4}]
    steps = [
        ("report", 0, [0, 1, 1], [], [0, 0, 1, 4]),
        ("choose", 0, 0),
        ("report", 0, [1, 2], [1, 3], [1, 1, 2]),      # 1 swaps, 3 absent
        ("choose-scoped", 0, 7),
        ("report", 0, [3], [0, 0, 1], [0, 3, 3]),      # 0 removed + touched
        ("retire", 0, 0),
        ("report", 1, [4, 4, 0], [4], [4, 2]),         # 4 absent then added
        ("report", 0, [4], [2, 3], [4]),               # {2,3} to zero, {4} up
        ("retire", 1, 0),
        ("requeue", 0, 0),
        ("report", 0, [], [4], [4, 4]),
        ("choose", 0, 0),
    ]
    for walk_cost in (None, 0):
        whole = check_whole_report_equals_file_by_file(
            metric, 2, 13, task_files, steps, read_at, walk_cost)
        assert whole.site_state(0).export() == {
            "resident": [], "references": [[0, 3], [1, 3], [2, 1],
                                           [3, 2], [4, 4]]}
        assert whole._index.nonzero_overlaps(0) == {}
        assert whole._index.total_refsum(0) == 0.0


@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_only_a_metric_that_reads_refsums_builds_them(metric):
    """After scoped and unscoped decisions over warm sites an
    ``overlap`` or a ``rest`` engine has refsums nowhere; a
    ``combined`` one at each site from that site's first decision —
    and reports alone build nothing."""
    task_files = [{tid % 5, 5 + tid % 3, 10 + tid} for tid in range(30)]
    engine, tasks = build_engine(task_files, metric, 2, 3, fast_path=True)
    index = engine._index
    reads = metric in ORDERED_NAMES
    for site in (0, 1):
        engine.apply_delta(site, [0, 1, 5, 6], [], [0, 0, 1, 5, 6])
    assert not index.has_refsums(0) and not index.has_refsums(1)
    engine.choose(0)
    assert index.has_refsums(0) == reads and not index.has_refsums(1)
    scope = set(range(0, 30, 2))
    for step in range(12):
        site = step % 2
        chosen = engine.choose(site, scope if step % 3 else None)
        engine.remove_task(chosen)
        scope.discard(chosen.task_id)
        engine.apply_delta(site, sorted(chosen.files), [step % 5],
                           sorted(chosen.files))
        assert index.has_refsums(site) == reads
    engine.add_task(tasks[chosen.task_id])
    assert index.has_refsums(0) == index.has_refsums(1) == reads
    assert_bucket_invariants(engine, tasks)


# -- pay for what you ask ----------------------------------------------------

def coadd_tasks(count, files_per_task=78, stride=10):
    """The paper's Coadd shape: neighbours share most of their inputs,
    each file is held by ~files_per_task/stride tasks."""
    return [set(range(tid * stride, tid * stride + files_per_task))
            for tid in range(count)]


@pytest.mark.parametrize("metric, built", [
    ("combined", {"refsum"}),
    ("rest", {"by_missing"}),
    ("overlap", {"by_overlap"}),
])
def test_coadd_run_builds_only_what_its_metric_reads(metric, built):
    """A Coadd-shaped run (two sites, LRU caches with evictions, every
    input referenced) leaves a ``combined`` engine with the refsums and
    no candidate structure at all — its maps hold tens of tasks and
    are scanned — and a ``rest`` engine with the missing-count buckets
    alone; still bit-identical to the reference scan."""
    task_files = coadd_tasks(400)
    fast, tasks = build_engine(task_files, metric, 1, 3, fast_path=True)
    reference, _ = build_engine(task_files, metric, 1, 3,
                                fast_path=False)
    caches = {0: OrderedDict(), 1: OrderedDict()}
    for step in range(120):
        site = step % 2
        chosen, twin = same_draw(fast, reference, site)
        for engine in (fast, reference):
            engine.remove_task(tasks[chosen.task_id])
        run_task((fast, reference), caches[site], site, chosen,
                 capacity=200)
    assert all(len(cache) == 200 for cache in caches.values())
    assert fast._rng.getstate() == reference._rng.getstate()
    for site in (0, 1):
        state = fast._index._sites[site]
        assert 0 < len(state.overlap) <= 32
        assert {name for name in ("refsum", "by_overlap", "by_missing",
                                  "by_refsum")
                if getattr(state, name) is not None} == built
    assert_bucket_invariants(fast, tasks)


@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_requeue_into_warm_site_keeps_refsums_float(metric):
    """Regression: a task requeued into a site that already holds its
    files got an *int* ``refsum`` (every other writer stores a float).
    The decision stream never depended on it — pinned here — but the
    refsum order's entries did."""
    task_files = [{0, 1, 10 + tid} for tid in range(6)]
    fast, tasks = build_engine(task_files, metric, 1, 9, fast_path=True,
                               sites=(0,))
    reference, _ = build_engine(task_files, metric, 1, 9,
                                fast_path=False, sites=(0,))
    for engine in (fast, reference):
        for fid in (0, 1, 12):
            engine.file_added(0, fid)
            engine.file_referenced(0, fid)
    stream = []
    for _ in range(3):
        chosen, twin = same_draw(fast, reference, 0)
        stream.append(chosen.task_id)
        fast.remove_task(chosen)
        reference.remove_task(twin)
    for tid in stream:                         # requeue, site warm
        fast.add_task(tasks[tid])
        reference.add_task(tasks[tid])
    ask_for_all(fast, 0)
    refsums = fast._index.refsums(0)
    assert set(refsums) == set(tasks)
    assert all(type(ref) is float for ref in refsums.values())
    assert_bucket_invariants(fast, tasks, sites=(0,))
    while fast.has_pending:
        chosen, twin = same_draw(fast, reference, 0)
        stream.append(chosen.task_id)
        fast.remove_task(chosen)
        reference.remove_task(twin)
    assert stream[3:6] == stream[:3]   # n = 1: same state, same picks
    assert fast._rng.getstate() == reference._rng.getstate()


# -- the refsum order at scale, at its edges, and on demand ------------------

def hotset_tasks(count, seed):
    """The benchmark's hotset shape: one of 20 hot files plus 4 from
    a cold pool, so a resident hot file overlaps ~count/20 tasks."""
    rng = random.Random(seed)
    return [{rng.randrange(20)}
            | {20 + fid for fid in rng.sample(range(4000), 4)}
            for _ in range(count)]


def run_task(engines, cache, site, task, capacity):
    """A worker's cache after running ``task``: LRU with evictions,
    every input referenced — mirrored into each engine as deltas."""
    for fid in sorted(task.files):
        if fid in cache:
            cache.move_to_end(fid)
        else:
            cache[fid] = None
            for engine in engines:
                engine.file_added(site, fid)
            if len(cache) > capacity:
                evicted, _ = cache.popitem(last=False)
                for engine in engines:
                    engine.file_removed(site, evicted)
        for engine in engines:
            engine.file_referenced(site, fid)


def never_walk():
    """Force the scan: a site's order drops below the crossover."""
    return mock.patch.object(policy_engine, "ORDER_WALK_COST",
                             float("inf"))


def assert_orders_match(engine, reference):
    """Each site's refsum order, flushed, against the refsums of the
    same stream through ``fast_path=False``, which keeps no order and
    so no anchors: every live entry's key plus its anchor's count is
    the task's ``ref_t`` (checked without settling ``engine``'s
    refsums, which a scan's read would)."""
    for site in engine.site_ids:
        if engine._index.has_refsum_order(site):
            order = engine._index.refsum_order(site)
            refsums = reference._index.refsums(site)
            assert len(order) == len(refsums)
            order.check(refsums)


@pytest.mark.parametrize("metric", ORDERED_NAMES)
def test_hotset_stream_matches_reference_with_far_fewer_scored(metric):
    """3k-task hotset, 2 sites, LRU churn: the engine picks the ordered
    kernel by itself, and the id stream, every ranked float and the
    RNG match the reference while scoring >= 10x fewer candidates
    than the scan.  On the way: anchor files evicted and re-admitted
    (the LRU holds 60 files), tasks holding two hot files, requeues
    into warm sites, and both sites' orders dropped by the crossover's
    hysteresis and rebuilt — each order checked against the reference
    engine's refsums after every step, and against storage at the
    end."""
    task_files = hotset_tasks(3000, seed=7)
    for tid in range(0, len(task_files), 9):   # a second hot file
        task_files[tid].add((min(task_files[tid]) + 7) % 20)
    fast, tasks = build_engine(task_files, metric, 2, 11, fast_path=True)
    reference, _ = build_engine(task_files, metric, 2, 11,
                                fast_path=False)
    with never_walk():
        scan, _ = build_engine(task_files, metric, 2, 11,
                               fast_path=True)
    engines = (fast, reference, scan)
    caches = {0: OrderedDict(), 1: OrderedDict()}
    job = {tid for tid in tasks if tid % 3}  # a two-thirds tenant
    kernels = set()
    retired = []
    released = []
    readmitted = set()
    release = RefsumOrder.release

    def spy_release(order, fid, refsums):
        if fid in order.anchors:
            released.append(fid)
        release(order, fid, refsums)

    for step in range(240):
        site = step % 2
        scoped = step % 4 >= 2
        eligible = job if scoped else None
        if step in (120, 121):                 # drop both sites' orders
            with never_walk():
                chosen, twin = same_draw(fast, reference, site, eligible)
            assert not fast._index.has_refsum_order(site)
        else:
            with mock.patch.object(RefsumOrder, "release", spy_release):
                chosen, twin = same_draw(fast, reference, site, eligible)
        with never_walk():
            assert scan.choose(site, eligible).task_id == chosen.task_id
        kernels.add(fast.last_kernel)
        for engine in engines:
            engine.remove_task(tasks[chosen.task_id])
        job.discard(chosen.task_id)
        with mock.patch.object(RefsumOrder, "release", spy_release):
            run_task(engines, caches[site], site, chosen, capacity=60)
        retired.append(chosen.task_id)
        if released and step % 40 == 39:       # a worker fetches one back
            run_task(engines, caches[site], site,
                     Task(-1, frozenset({released[-1]})), capacity=60)
        if step % 16 == 15:                    # requeue into a warm site
            tid = retired.pop(0)
            for engine in engines:
                engine.add_task(tasks[tid])
            if tid % 3:
                job.add(tid)
        assert_orders_match(fast, reference)
        for state in fast._index._sites.values():
            if state.by_refsum is not None:
                readmitted.update(state.by_refsum.anchors.keys()
                                  & set(released))
    assert fast._rng.getstate() == reference._rng.getstate()
    assert all(fast._index.has_refsum_order(site) for site in (0, 1))
    assert_bucket_invariants(fast, tasks)     # and against storage
    # Anchors went with their files and came back with them.
    assert readmitted, released
    # Cold start (empty caches, tiny maps) scans, then the order takes
    # over; and the caches did fill, so files were evicted.
    assert kernels == {"scored", "ordered"}
    assert scan.last_kernel == "scored"
    assert sum(len(cache) for cache in caches.values()) == 120
    assert fast.tasks_scored * 10 <= scan.tasks_scored
    assert scan.tasks_scored == reference.tasks_scored


@pytest.mark.parametrize("metric", ORDERED_NAMES)
def test_a_reference_to_an_anchor_rekeys_none_of_its_referers(metric):
    """The fan-out, pinned: on the hotset shape, one reference to a
    resident hot file held by m pending tasks, all anchored on it,
    moves one count; the next flush re-keys none of the m, and the
    next decision still equals the reference scan's."""
    task_files = hotset_tasks(3000, seed=7)
    fast, tasks = build_engine(task_files, metric, 2, 11, fast_path=True)
    reference, _ = build_engine(task_files, metric, 2, 11,
                                fast_path=False)
    caches = {0: OrderedDict(), 1: OrderedDict()}
    for step in range(40):
        site = step % 2
        chosen, twin = same_draw(fast, reference, site)
        for engine in (fast, reference):
            engine.remove_task(tasks[chosen.task_id])
        run_task((fast, reference), caches[site], site, chosen,
                 capacity=600)
    assert fast.last_kernel == "ordered"
    order = fast._index._sites[0].by_refsum
    hot = max(range(20), key=lambda fid: len(
        order.anchors[fid].members) if fid in order.anchors else 0)
    referers = fast._index._file_to_tasks[hot]
    assert order.anchors[hot].members == referers
    assert len(referers) >= 100
    rekeyed = []
    flush = RefsumOrder.flush

    def spy_flush(order, *args):
        rekeyed.extend(order.dirty)
        flush(order, *args)

    for engine in (fast, reference):
        engine.file_referenced(0, hot)
    with mock.patch.object(RefsumOrder, "flush", spy_flush):
        same_draw(fast, reference, 0)
    assert fast.last_kernel == "ordered"
    assert not referers & set(rekeyed)
    assert_orders_match(fast, reference)
    assert fast._rng.getstate() == reference._rng.getstate()


@pytest.mark.parametrize("metric", ORDERED_NAMES)
@pytest.mark.parametrize("n, holders_of_file_2, expected", [
    # refsums 3 > 2, equal weight: the lower id wins although the
    # order lists it second.
    (1, [2], [2]),
    # A plateau behind the tie: ids 2 and 3 (refsum 2) both outrank
    # id 5 (refsum 3) at equal weight.
    (2, [2, 3], [2, 3]),
])
def test_float_tie_across_distinct_refsums(metric, n, holders_of_file_2,
                                           expected):
    """``totalRef`` ~ 2**60 rounds refsums 2 and 3 to one weight, so
    the id tie-break reaches across distinct keys of one group: the
    walk must keep extending past its n-th candidate."""
    references = [(1, 2 ** 60), (2, 2), (3, 3)]
    # Every task: one shared file + one private, never-resident file,
    # so all the overlapping ones miss exactly one.
    shared = {tid: 9 for tid in range(6)}          # 9: not resident
    shared.update({tid: 2 for tid in holders_of_file_2})
    shared[5] = 3
    shared[6] = 1                                  # the huge refsum
    engines = []
    for fast_path in (True, False):
        tasks = {tid: Task(tid, frozenset({fid, 100 + tid}))
                 for tid, fid in shared.items()}
        engine = PolicyEngine(tasks, metric=metric, n=n,
                              rng=random.Random(3), fast_path=fast_path)
        engine.attach_site(0, state=SiteFileState.restore(
            resident=[1, 2, 3], references=references))
        for task in tasks.values():
            engine.add_task(task)
        trace(engine)
        engines.append(engine)
    fast, reference = engines
    refsums = fast._index.refsums(0)
    assert all(refsums[5] > refsums[tid] for tid in holders_of_file_2)
    eligible = set(holders_of_file_2) | {5}
    with always_walk():
        same_draw(fast, reference, 0)
        fast.choose(0, eligible)
        reference.choose(0, eligible)
    span = fast.spans[-1]
    assert span["kernel"] == "ordered"
    assert span["candidates"] == reference.spans[-1]["candidates"]
    assert [c["task_id"] for c in span["candidates"]] == expected
    assert span["scored"] == len(eligible) > n  # walked past the n-th
    assert fast._rng.getstate() == reference._rng.getstate()
    # The same tie with its candidates under different anchors whose
    # counts moved — id 5 on file 3, the holders on file 2, each made an
    # anchor by a first reference, joined by the next flush, referenced
    # again — and one candidate under none: id 7's anchor, file 9, is
    # not resident.
    late = Task(7, frozenset({9, 2}))
    for engine in engines:
        engine.job[7] = late
        engine.add_task(late)
        for fid in (3, 2):
            engine.file_referenced(0, fid)
    with always_walk():
        same_draw(fast, reference, 0)
    for engine in engines:
        for fid in (3, 3, 2):
            engine.file_referenced(0, fid)
    eligible |= {7}
    with always_walk():
        same_draw(fast, reference, 0)
        fast.choose(0, eligible)
        reference.choose(0, eligible)
    span = fast.spans[-1]
    assert span["kernel"] == "ordered"
    assert span["candidates"] == reference.spans[-1]["candidates"]
    assert [c["task_id"] for c in span["candidates"]] == expected
    assert span["scored"] == len(eligible)
    anchors = fast._index._sites[0].by_refsum.anchors
    assert anchors[3].members == {5}
    assert anchors[2].members == set(holders_of_file_2)
    assert (anchors[3].count, anchors[2].count) == (2, 1)
    refsums = reference._index.refsums(0)
    assert (refsums[5], refsums[7]) == (6, 4)
    fast._index.refsum_order(0).check(refsums)
    assert fast._rng.getstate() == reference._rng.getstate()


def test_refsum_order_is_built_dropped_and_rebuilt_on_demand():
    """The order exists only while the candidate map is large: built
    by the first decision that finds it so, kept (but not walked)
    below the crossover, dropped at half of it, rebuilt on regrowth —
    bit-identical to the reference throughout."""
    task_files = [{0, 100 + tid} for tid in range(40)]
    fast, tasks = build_engine(task_files, "combined", 1, 5,
                               fast_path=True, sites=(0,))
    reference, _ = build_engine(task_files, "combined", 1, 5,
                                fast_path=False, sites=(0,))
    state = fast._index._sites[0]

    def draw_and_retire():
        chosen, twin = same_draw(fast, reference, 0)
        fast.remove_task(chosen)
        reference.remove_task(twin)

    # One missing-count group, n = 1: the walk pays above 32 candidates.
    assert policy_engine.ORDER_WALK_COST == 32
    same_draw(fast, reference, 0)
    assert fast.last_kernel == "scored" and state.by_refsum is None
    for engine in (fast, reference):
        engine.file_added(0, 0)        # all 40 tasks now overlap
        engine.file_referenced(0, 0)
    assert state.by_refsum is None     # events alone build nothing
    draw_and_retire()
    assert fast.last_kernel == "ordered" and len(state.by_refsum) == 39
    while len(fast.pending) > 32:
        draw_and_retire()
    assert fast.last_kernel == "ordered"
    draw_and_retire()                  # 32 candidates: scan, keep order
    assert fast.last_kernel == "scored" and state.by_refsum is not None
    for engine in (fast, reference):
        engine.file_referenced(0, 0)
    assert state.by_refsum.dirty == set(fast.pending)   # marked only
    while len(fast.pending) > 15:
        draw_and_retire()
    assert state.by_refsum is not None
    draw_and_retire()                  # 15 candidates: under half
    assert fast.last_kernel == "scored" and state.by_refsum is None
    for tid, task in tasks.items():    # requeue everything: regrowth
        if not fast.is_pending(tid):
            fast.add_task(task)
            reference.add_task(task)
    assert state.by_refsum is None
    draw_and_retire()
    assert fast.last_kernel == "ordered" and len(state.by_refsum) == 39
    while fast.has_pending:
        draw_and_retire()
    assert fast._rng.getstate() == reference._rng.getstate()


@pytest.mark.parametrize("metric", ["rest", "combined"])
def test_no_zero_heap_walk_when_every_pending_task_overlaps(metric,
                                                            monkeypatch):
    """Regression: with one shared resident file nobody has zero
    overlap, and the zero-candidate lookup used to pop and re-push the
    whole heap (O(T log T) per decision) to find that out."""
    task_files = [{0, 1 + tid} for tid in range(500)]
    fast, _ = build_engine(task_files, metric, 2, 0, fast_path=True,
                           sites=(0,))
    reference, _ = build_engine(task_files, metric, 2, 0,
                                fast_path=False, sites=(0,))
    for engine in (fast, reference):
        engine.file_added(0, 0)
    pops = []
    real_pop = heapq.heappop

    def counting_pop(heap):
        if heap is fast._zero_heap:
            pops.append(1)
        return real_pop(heap)

    monkeypatch.setattr(heapq, "heappop", counting_pop)
    for _ in range(320):
        chosen, twin = same_draw(fast, reference, 0)
        fast.remove_task(chosen)
        reference.remove_task(twin)
    assert not pops
    # The skipped walk was also what dropped retired tasks' entries;
    # retiring sweeps them instead, so they cannot pile up for the
    # server's lifetime.
    assert len(fast._zero_heap) <= 2 * len(fast.pending) + 64 < 500
    # A task without the shared file brings the heap walk back, and it
    # stops as soon as n candidates are found.
    loner = Task(1000, frozenset({7000}))
    for engine in (fast, reference):
        engine.job[1000] = loner
        engine.add_task(loner)
    same_draw(fast, reference, 0)
    assert fast.zero_overlap_candidates(0) == [1000]
    assert fast._rng.getstate() == reference._rng.getstate()


def test_candidate_buckets_lazy_heap_survives_churn():
    """Move/remove/re-add cycles leave stale and duplicate heap
    entries behind; retrieval must never surface them."""
    buckets = CandidateBuckets()
    for tid in range(6):
        buckets.add(tid, 1)
    buckets.move(3, 2)          # stale "3" left under key 1
    buckets.remove(0)           # stale "0" left under key 1
    buckets.add(0, 1)           # duplicate heap entry for a live id
    assert buckets.top(10) == [(1, 0), (1, 1), (1, 2), (1, 4), (1, 5),
                               (2, 3)]
    # A second retrieval (stale entries now dropped) agrees.
    assert buckets.top(3) == [(1, 0), (1, 1), (1, 2)]
    assert buckets.key_by_id[3] == 2 and 3 in buckets
    buckets.remove(3)           # key-2 bucket empties and is dropped
    assert buckets.keys() == [1]
    assert len(buckets) == 5
    buckets.check()


def test_fast_path_flag_is_public_and_defaults_on():
    engine, _ = build_engine([{1}, {2}], "rest", 1, 0, fast_path=True)
    assert engine.fast_path is True
    reference, _ = build_engine([{1}, {2}], "rest", 1, 0,
                                fast_path=False)
    assert reference.fast_path is False
