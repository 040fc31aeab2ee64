"""Incremental overlap/reference bookkeeping per (site, pending task).

The basic algorithm scores every pending task on every worker request —
O(T·I) as the paper notes.  A naive rescan is quadratic over the whole
run and dominates simulation time, so the scheduler instead maintains,
per site:

* ``overlap[t] = |F_t|`` for every pending task with nonzero overlap,
* the aggregate ``totalRest`` over *all* pending tasks,
* and, **once a decision has asked for them**, ``refsum[t] = ref_t =
  Σ_{i ∈ F_t} r_i`` for the same tasks with its aggregate
  ``totalRef`` — of the paper's three metrics only ``combined`` reads
  either,

updated from storage changes through an inverted file → pending-tasks
index (a file's referers are a list while they are few, a set past
:data:`PROMOTE_AT`).  A change arrives either as a storage
notification — the insert/evict of one file, or one served batch's
references, of a simulated :class:`~repro.grid.storage.SiteStorage`,
each costing O(tasks referencing those files), about 9 per file for
Coadd, instead of O(T·I) per request — or as one whole worker report
(:meth:`OverlapIndex.apply_delta`, the live service's path).  Both add
up what the change does per task first (a batch of references through
the same :meth:`OverlapIndex._count_touched` as a report) and then
visit each affected task once, in the same per-task arithmetic
(:meth:`OverlapIndex._fold`).

:meth:`OverlapIndex.view` then assembles the O(1)
:class:`~repro.core.metrics.TaskView` a metric needs, and the naive
recomputation (:meth:`naive_overlap`, :meth:`naive_refsum`) is kept for
cross-checking in tests and the index-vs-rescan ablation benchmark.

Besides the overlap counts a site may carry up to four more
structures, each **built only when a decision asks for it** and
maintained from then on.  The refsums above
(:meth:`OverlapIndex.refsums`, :meth:`total_refsum`), rebuilt from the
resident files' reference counts: a reference to a hot file moves
``ref_t`` of every pending referer, which a ``rest`` or ``overlap``
engine would pay on every report for numbers it never reads.  Two
:class:`~repro.core.candidates.CandidateBuckets` — overlap-count →
task ids (:meth:`OverlapIndex.candidates_by_overlap`, the ``overlap``
metric's walk) and missing-count → task ids
(:meth:`OverlapIndex.candidates_by_missing`, ``rest``'s walk and the
groups of ``combined``'s order) — kept in step with ``overlap[t]`` by
every event once they exist.  And the
:class:`~repro.core.candidates.RefsumOrder`
(:meth:`OverlapIndex.refsum_order`), for which events merely mark the
ids they touched, so that the re-keying is paid by the decision that
walks the order and not by every write.  The order keys each
candidate relative to an anchor file, chosen once per pending task
(the task's file with the most pending referers): a reference to a
resident file counts once for the referers anchored on it, which are
neither marked nor given their +1 in ``refsum`` — the order owes it to
them, and :meth:`OverlapIndex.refsums` settles the debt before it
answers, so every reader sees the same integers as before.
Until asked, each is ``None`` and an event pays one test for it: a
``combined`` engine over the paper's Coadd job (candidate maps of tens
of tasks, always scanned) carries only the refsums, a ``rest`` engine
only the missing-count buckets.  See ``docs/performance.md``.

``totalRest`` decomposes as::

    totalRest = Σ_{t pending} rest(|t| - ov_t)
              = Σ_{t pending} rest(|t|)                   # site-independent
              + Σ_{t: ov_t > 0} rest(|t| - ov_t) - rest(|t|)   # per site

The first sum (``rest_base``) changes only when the pending set
changes; the per-site correction changes only when an overlap count
changes.  Both are kept **exact, as integers**: every term is ``1/m``
for some ``1 <= m <= M`` (``M`` the largest ``|t|`` seen) or the
``1/2``-floor value 2, so over the common denominator ``D =
lcm(1..M)`` each term is the integer ``unit[m] = D // m`` (``unit[0] =
2·D``) and the sums are integer numerators updated by ``+= unit[a] -
unit[b]``.  :meth:`OverlapIndex.total_rest` is the one true division
``numerator / D``, which Python rounds correctly — the same float as
``float()`` of the rational sum, whatever order the events came in
(``core/reference.py`` keeps that rational sum as the oracle).  A task
larger than ``M`` rescales the numerators once.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import chain
from math import lcm
from typing import (TYPE_CHECKING, Collection, Dict, Iterable, KeysView,
                    List, Mapping, Optional, Sequence, Set)

from ..grid.job import Job, Task
from .candidates import CandidateBuckets, RefsumOrder
from .metrics import TaskView, rest_weight

if TYPE_CHECKING:  # pragma: no cover - the simulator's cache model
    from ..grid.storage import SiteStorage

#: A file's pending referers are held as a list while there are at most
#: this many, and as a set from the first one past it on.  A list of
#: Coadd's ~9 referers takes a quarter of a set's memory, and up to this
#: size its two linear operations — removing one id, and the anchors'
#: ``referers - members`` — cost under half a microsecond more than a
#: set's; hot files (hundreds of referers) stay sets.  A set is never
#: turned back into a list: it is dropped when its last referer leaves.
#: ``0`` makes every group a set, the reference tests compare against.
PROMOTE_AT = 16


class _SiteState:
    """Per-site incremental counters."""

    __slots__ = ("storage", "overlap", "refsum", "total_refsum",
                 "rest_correction", "by_overlap", "by_missing",
                 "by_refsum")

    def __init__(self, storage: SiteStorage):
        self.storage = storage
        self.overlap: Dict[int, int] = {}
        #: ``ref_t`` of the same tasks and its sum, read by ``combined``
        #: alone: None until first asked for (see
        #: :meth:`OverlapIndex.refsums`), then kept by every event —
        #: up to what ``by_refsum`` owes the ids anchored in it.
        self.refsum: Optional[Dict[int, float]] = None
        self.total_refsum: Optional[float] = None
        #: Numerator over the index's denominator of the sum, over
        #: overlapped tasks, of rest(missing) - rest(|t|).
        self.rest_correction = 0
        #: Candidate structures over the *nonzero-overlap* tasks
        #: (exactly the key set of ``overlap``): buckets by overlap
        #: count (``overlap`` walks them descending), buckets by
        #: missing count (``rest`` walks them ascending) and the same
        #: candidates ordered for ``combined``.  Like the refsums, each
        #: is None until a decision at this site asks for it; while
        #: None, events pay one test for it and nothing else.  Zero-overlap tasks stay
        #: on the engine's shared zero-candidate heap.
        self.by_overlap: Optional[CandidateBuckets] = None
        self.by_missing: Optional[CandidateBuckets] = None
        #: Also None again after :meth:`OverlapIndex.drop_refsum_order`.
        self.by_refsum: Optional[RefsumOrder] = None

    def rebucket(self, tid: int, old: int, ov: int, missing: int) -> None:
        """``tid``'s overlap went ``old`` -> ``ov`` (either may be 0 =
        not a candidate): re-key it in the buckets that exist."""
        for buckets, key in ((self.by_overlap, ov),
                             (self.by_missing, missing)):
            if buckets is None:
                continue
            if not old:
                buckets.add(tid, key)
            elif ov:
                buckets.move(tid, key)
            else:
                buckets.remove(tid)


class _Anchors(dict):
    """Pending task id -> its anchor file for the refsum orders, chosen
    when an order first keys the task: the task's file with the most
    pending referers (lowest id on a tie), whose references then move
    the most ids at once."""

    __slots__ = ("_job", "_file_to_tasks")

    def __init__(self, job: Job,
                 file_to_tasks: Dict[int, Collection[int]]):
        super().__init__()
        self._job = job
        self._file_to_tasks = file_to_tasks

    def __missing__(self, tid: int) -> int:
        file_to_tasks = self._file_to_tasks
        anchor = self[tid] = max(
            self._job[tid].files,
            key=lambda fid: (len(file_to_tasks[fid]), -fid))
        return anchor


class OverlapIndex:
    """Maintains overlap cardinalities and reference sums incrementally."""

    def __init__(self, job: Job, tasks: Optional[Iterable[Task]] = None):
        """Track ``tasks`` (default: every task of ``job``) as pending."""
        self.job = job
        #: File id -> ids of its pending referers: a list up to
        #: :data:`PROMOTE_AT` of them, else a set; never empty.
        self._file_to_tasks: Dict[int, Collection[int]] = {}
        self._anchor_of = _Anchors(job, self._file_to_tasks)
        #: Pending task id -> |t|; its key set *is* the pending set.
        self._size: Dict[int, int] = {}
        self._sites: Dict[int, _SiteState] = {}
        #: ``D = lcm(1..M)`` for the largest |t| seen, and ``unit[m]``,
        #: rest(m) as a numerator over it, for ``0 <= m <= M``.
        self._denominator = 1
        self._unit: List[int] = [2]
        self._rest_base = 0
        for task in (job if tasks is None else tasks):
            self.add_task(task)

    # -- wiring ------------------------------------------------------------
    def watch_site(self, site_id: int, storage: SiteStorage) -> None:
        """Track ``storage`` as site ``site_id`` (subscribes listeners).

        Any files already resident are folded in immediately.
        """
        if site_id in self._sites:
            raise ValueError(f"site {site_id} already watched")
        state = _SiteState(storage)
        self._sites[site_id] = state
        storage.on_insert(partial(self._on_insert, state))
        storage.on_evict(partial(self._on_evict, state))
        storage.on_touch(partial(self._on_touch, state))
        for fid in storage.resident_files:
            self._on_insert(state, fid)

    # -- pending-set management --------------------------------------------
    @property
    def pending_tasks(self) -> KeysView[int]:
        """Ids of tasks currently tracked (a live read-only view)."""
        return self._size.keys()

    def _grow_denominator(self, size: int) -> None:
        """A task larger than any seen: ``D`` becomes ``lcm(1..size)``
        and every numerator is rescaled to it, once."""
        grown = lcm(self._denominator, *range(len(self._unit), size + 1))
        factor = grown // self._denominator
        self._rest_base *= factor
        for state in self._sites.values():
            state.rest_correction *= factor
        self._denominator = grown
        self._unit = [2 * grown] + [grown // m for m in range(1, size + 1)]

    def add_task(self, task: Task) -> None:
        """Track a pending task (initial load, or a requeue)."""
        tid = task.task_id
        if tid in self._size:
            raise ValueError(f"task {tid} already pending")
        files = task.files
        size = task.num_files
        if size >= len(self._unit):
            self._grow_denominator(size)
        unit = self._unit
        self._size[tid] = size
        self._rest_base += unit[size]
        file_to_tasks = self._file_to_tasks
        for fid in files:
            referers = file_to_tasks.get(fid)
            if referers is None:
                file_to_tasks[fid] = [tid] if PROMOTE_AT else {tid}
            elif referers.__class__ is list:
                referers.append(tid)
                if len(referers) > PROMOTE_AT:
                    file_to_tasks[fid] = set(referers)
            else:
                referers.add(tid)
        # Fold in any storage that already holds some of its files.
        for state in self._sites.values():
            storage = state.storage
            ov = storage.overlap(files)
            if ov:
                state.overlap[tid] = ov
                state.rebucket(tid, 0, ov, size - ov)
                state.rest_correction += unit[size - ov] - unit[size]
                if state.refsum is None:
                    continue
                if state.by_refsum is not None:
                    state.by_refsum.dirty.add(tid)
                ref = float(sum(storage.reference_count(fid)
                                for fid in files if fid in storage))
                state.refsum[tid] = ref
                state.total_refsum += ref

    def remove_task(self, task: Task) -> None:
        """Stop tracking a task (it was assigned or completed)."""
        tid = task.task_id
        size = self._size.pop(tid, None)
        if size is None:
            raise KeyError(f"task {tid} is not pending")
        unit = self._unit
        self._rest_base -= unit[size]
        file_to_tasks = self._file_to_tasks
        for fid in task.files:
            referers = file_to_tasks.get(fid)
            if referers is not None:
                try:
                    referers.remove(tid)  # a list's or a set's
                except (KeyError, ValueError):
                    continue
                if not referers:
                    del file_to_tasks[fid]
        for state in self._sites.values():
            if state.by_refsum is not None:
                state.by_refsum.forget(tid, state.refsum)
                self._anchor_of.pop(tid, None)
            ov = state.overlap.pop(tid, 0)
            if ov:
                state.rebucket(tid, ov, 0, size)
                state.rest_correction -= unit[size - ov] - unit[size]
                if state.refsum is not None:
                    state.total_refsum -= state.refsum.pop(tid, 0.0)

    # -- storage events ------------------------------------------------
    def _on_insert(self, state: _SiteState, fid: int) -> None:
        tasks = self._file_to_tasks.get(fid)
        if tasks:
            ref = (state.refsum is not None
                   and state.storage.reference_count(fid))
            self._fold(state, dict.fromkeys(tasks, 1),
                       dict.fromkeys(tasks, ref) if ref else {})

    def _on_evict(self, state: _SiteState, fid: int) -> None:
        # An anchor leaves with its file, referers or not: one kept past
        # its residency would key a later arrival against a stale count.
        if state.by_refsum is not None:
            state.by_refsum.release(fid, state.refsum)
        tasks = self._file_to_tasks.get(fid)
        if tasks:
            ref = (state.refsum is not None
                   and state.storage.reference_count(fid))
            self._fold(state, dict.fromkeys(tasks, -1),
                       dict.fromkeys(tasks, -ref) if ref else {})

    def _on_touch(self, state: _SiteState, fids: Sequence[int]) -> None:
        """One batch of references: the ``touched`` half of a report."""
        if state.refsum is None:
            return
        d_ref: Dict[int, int] = Counter()
        anchored = self._count_touched(state, fids, d_ref)
        self._fold(state, {}, d_ref, anchored)

    def _count_touched(self, state: _SiteState, touched: Sequence[int],
                       d_ref: Dict[int, int]) -> int:
        """Count into the Counter ``d_ref`` one ``ref_t`` per pending
        referer of each resident file in ``touched`` — with an order,
        only of the referers it hands back — and return how many
        references its anchors took instead."""
        storage = state.storage
        file_to_tasks = self._file_to_tasks
        order = state.by_refsum
        if order is None:
            # One counting pass over the referers of every resident
            # file referenced, not a loop per file.
            d_ref.update(chain.from_iterable(
                file_to_tasks.get(fid, ()) for fid in touched
                if fid in storage))
            return 0
        anchored = 0
        for fid in touched:
            tasks = file_to_tasks.get(fid)
            if tasks and fid in storage:
                loose = order.touched(fid, tasks, self._anchor_of)
                anchored += len(tasks) - len(loose)
                d_ref.update(loose)
        return anchored

    def apply_delta(self, site_id: int, gained: Sequence[int],
                    lost: Sequence[int], touched: Sequence[int]) -> None:
        """Fold one whole report of a site's cache into the counters,
        touching each affected pending task once.

        ``lost`` left the site's storage, ``gained`` entered it and
        ``touched`` are about to be referenced, once per occurrence.
        Call with the storage's *residency* already changed and its
        reference counts not yet bumped for ``touched`` — the state
        the per-file listeners would have read them in, so the result
        equals evict, insert, touch file by file.
        """
        state = self._sites[site_id]
        tracked = state.refsum is not None
        if not (gained or lost or tracked and touched):
            return
        storage = state.storage
        file_to_tasks = self._file_to_tasks
        order = state.by_refsum
        if order is not None:
            for fid in lost:
                order.release(fid, state.refsum)
        # Net change per task: of its overlap, and (a site that keeps
        # refsums only) of its ref_t.
        d_ov: Dict[int, int] = {}
        d_ref: Dict[int, int] = Counter() if tracked else {}
        for files, sign in ((lost, -1), (gained, 1)):
            for fid in files:
                tasks = file_to_tasks.get(fid)
                if not tasks:
                    continue
                for tid in tasks:
                    d_ov[tid] = d_ov.get(tid, 0) + sign
                ref = tracked and sign * storage.reference_count(fid)
                if ref:
                    for tid in tasks:
                        d_ref[tid] = d_ref.get(tid, 0) + ref
        # The bulk of a report.
        anchored = (self._count_touched(state, touched, d_ref)
                    if tracked else 0)
        self._fold(state, d_ov, d_ref, anchored)

    def _fold(self, state: _SiteState, d_ov: Mapping[int, int],
              d_ref: Mapping[int, int], anchored: int = 0) -> None:
        """The per-task arithmetic of an insert, an evict and a whole
        report: each task of ``d_ov`` gained that many resident files
        (negative: lost), each of ``d_ref`` that much ``ref_t``, and
        ``anchored`` more references went to the order's anchors.
        ``d_ref`` is empty unless the site keeps refsums; its keys
        that no overlap change explains are marked already."""
        if state.by_refsum is not None:
            state.by_refsum.dirty.update(d_ov)
        refsum = state.refsum
        if d_ref or anchored:
            # Before the overlap changes: a task about to lose its
            # last resident file still has its entry, one about to
            # gain its first gets one here.
            for tid, change in d_ref.items():
                try:
                    refsum[tid] += change
                except KeyError:
                    refsum[tid] = float(change)
            state.total_refsum += sum(d_ref.values()) + anchored
        if not d_ov:
            return
        bucketed = (state.by_overlap is not None
                    or state.by_missing is not None)
        size_of = self._size
        unit = self._unit
        overlap = state.overlap
        correction = 0
        for tid, change in d_ov.items():
            if not change:
                continue
            old = overlap.get(tid, 0)
            ov = old + change
            missing = size_of[tid] - ov
            correction += unit[missing] - unit[missing + change]
            if bucketed:
                state.rebucket(tid, old, ov, missing)
            if ov:
                overlap[tid] = ov
                if not old and refsum is not None:
                    refsum.setdefault(tid, 0.0)
            else:
                del overlap[tid]
                if refsum is not None:
                    state.total_refsum -= refsum.pop(tid, 0.0)
        state.rest_correction += correction

    # -- queries -----------------------------------------------------------
    def tasks_sharing(self, files: Iterable[int]) -> Set[int]:
        """Pending tasks holding at least one of ``files`` (a new set;
        the index is only read)."""
        file_to_tasks = self._file_to_tasks
        sharing: Set[int] = set()
        for fid in files:
            tasks = file_to_tasks.get(fid)
            if tasks:
                sharing.update(tasks)
        return sharing

    def nonzero_overlaps(self, site_id: int) -> Dict[int, int]:
        """task id -> |F_t| for pending tasks with overlap > 0."""
        return self._sites[site_id].overlap

    def candidates_by_overlap(self, site_id: int) -> CandidateBuckets:
        """Nonzero-overlap candidates bucketed by overlap count |F_t|.

        ``top(n, reverse=True)`` is the site's top-n under the
        ``overlap`` metric among nonzero-overlap tasks, in O(n +
        buckets touched) instead of a full candidate scan.  Built from
        the candidate map on the first call for this site, maintained
        by every event afterwards.
        """
        state = self._sites[site_id]
        buckets = state.by_overlap
        if buckets is None:
            buckets = state.by_overlap = CandidateBuckets(state.overlap)
        return buckets

    def candidates_by_missing(self, site_id: int) -> CandidateBuckets:
        """Nonzero-overlap candidates bucketed by missing count
        ``|t| - |F_t|``; ``top(n)`` is the ``rest`` metric's top-n
        among nonzero-overlap tasks.  Built on the first call for this
        site, maintained by every event afterwards."""
        state = self._sites[site_id]
        buckets = state.by_missing
        if buckets is None:
            size_of = self._size
            buckets = state.by_missing = CandidateBuckets(
                {tid: size_of[tid] - ov
                 for tid, ov in state.overlap.items()})
        return buckets

    def refsum_order(self, site_id: int) -> RefsumOrder:
        """The site's candidates ordered for ``combined``, up to date.

        Built here on first use (and after a drop) from the current
        candidate map; otherwise the ids marked since the last call
        are re-keyed.  Either way the returned order reflects
        ``nonzero_overlaps``/``refsums`` exactly and is ready to walk.
        Its groups are the missing-count buckets' keys, so asking for
        the order asks for those buckets too.
        """
        state = self._sites[site_id]
        order = state.by_refsum
        if order is None:
            order = state.by_refsum = RefsumOrder()
            order.dirty.update(state.overlap)
        order.flush(self.candidates_by_missing(site_id).key_by_id,
                    self._refsums(state), self._anchor_of)
        return order

    def has_refsum_order(self, site_id: int) -> bool:
        """Whether the site currently carries a refsum order."""
        return self._sites[site_id].by_refsum is not None

    def drop_refsum_order(self, site_id: int) -> None:
        """Free the site's refsum order (settling what its anchors owe
        the refsums); events stop marking for it."""
        state = self._sites[site_id]
        if state.by_refsum is not None:
            state.by_refsum.settle(state.refsum)
            state.by_refsum = None

    def _refsums(self, state: _SiteState) -> Dict[int, float]:
        """The site's refsum map, built on the first call: every
        resident file's reference count folded into its pending
        referers, as :meth:`_on_insert` would have — integer-valued
        floats, so the same bits whenever it is built.  Unsettled:
        readers outside the index go through :meth:`refsums`."""
        refsum = state.refsum
        if refsum is None:
            refsum = state.refsum = dict.fromkeys(state.overlap, 0.0)
            storage = state.storage
            file_to_tasks = self._file_to_tasks
            total_refsum = 0.0
            for fid in storage.resident_files:
                ref = storage.reference_count(fid)
                tasks = file_to_tasks.get(fid)
                if ref and tasks:
                    for tid in tasks:
                        refsum[tid] += ref
                    total_refsum += ref * len(tasks)
            state.total_refsum = total_refsum
        return refsum

    def has_refsums(self, site_id: int) -> bool:
        """Whether a decision has asked for the site's refsums yet."""
        return self._sites[site_id].refsum is not None

    def refsums(self, site_id: int) -> Dict[int, float]:
        """task id -> ref_t for pending tasks with overlap > 0.

        Tasks absent from the map have ``ref_t = 0`` (callers use
        ``.get(task_id, 0.0)``); both views are read-only by convention.
        Built on the first call for this site (by this,
        :meth:`total_refsum`, :meth:`view` or :meth:`refsum_order`),
        maintained by every event afterwards — up to the references
        the site's order holds for its anchored ids, which a call here
        settles first.
        """
        state = self._sites[site_id]
        refsum = self._refsums(state)
        if state.by_refsum is not None:
            state.by_refsum.settle(refsum)
        return refsum

    def total_rest(self, site_id: int) -> float:
        """totalRest over the pending set for this site.

        Maintained exactly (integer numerators over one denominator)
        and rounded once here, by a correctly rounded division, so the
        value never depends on update order.
        """
        return ((self._rest_base + self._sites[site_id].rest_correction)
                / self._denominator)

    def total_refsum(self, site_id: int) -> float:
        """totalRef over the pending set for this site."""
        state = self._sites[site_id]
        self._refsums(state)
        return state.total_refsum

    def view(self, site_id: int, task: Task) -> TaskView:
        """O(1) :class:`TaskView` for one (site, pending task) pair."""
        state = self._sites[site_id]
        refsum = self.refsums(site_id)
        return TaskView(
            task_id=task.task_id,
            num_files=task.num_files,
            overlap=state.overlap.get(task.task_id, 0),
            refsum=refsum.get(task.task_id, 0.0),
            total_refsum=state.total_refsum,
            total_rest=self.total_rest(site_id),
        )

    # -- reference (naive) implementations, for verification ----------------
    def naive_overlap(self, site_id: int, task: Task) -> int:
        """|F_t| by direct storage scan (cross-check / ablation)."""
        return self._sites[site_id].storage.overlap(task.files)

    def naive_refsum(self, site_id: int, task: Task) -> float:
        """ref_t by direct storage scan (cross-check / ablation)."""
        storage = self._sites[site_id].storage
        return float(sum(storage.reference_count(fid)
                         for fid in task.files if fid in storage))

    def naive_total_rest(self, site_id: int) -> float:
        """totalRest by rescanning every pending task."""
        storage = self._sites[site_id].storage
        return sum(
            rest_weight(self.job[tid].num_files
                        - storage.overlap(self.job[tid].files))
            for tid in self._size)
