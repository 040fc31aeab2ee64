"""Incremental overlap/reference bookkeeping per (site, pending task).

The basic algorithm scores every pending task on every worker request —
O(T·I) as the paper notes.  A naive rescan is quadratic over the whole
run and dominates simulation time, so the scheduler instead maintains,
per site:

* ``overlap[t] = |F_t|`` for every pending task with nonzero overlap,
* ``refsum[t] = ref_t = Σ_{i ∈ F_t} r_i`` for the same tasks,
* the aggregates ``totalRef`` and ``totalRest`` over *all* pending
  tasks,

updated from storage insert/evict/touch notifications through an
inverted file → pending-tasks index.  Each storage change costs
O(tasks referencing that file) — about 9 for Coadd — instead of O(T·I)
per request.

:meth:`OverlapIndex.view` then assembles the O(1)
:class:`~repro.core.metrics.TaskView` a metric needs, and the naive
recomputation (:meth:`naive_overlap`, :meth:`naive_refsum`) is kept for
cross-checking in tests and the index-vs-rescan ablation benchmark.

On top of the per-task counters each site keeps two
:class:`~repro.core.candidates.CandidateBuckets` — overlap-count →
task ids and missing-count → task ids — maintained in step with
``overlap[t]``.  They give the policy engine's fast path ranked
candidate retrieval without scanning (``overlap``/``rest`` weights are
monotone in those integer keys); see ``docs/performance.md``.
``combined``'s ranking additionally needs ``refsum[t]`` order inside a
missing-count group; that :class:`~repro.core.candidates.RefsumOrder`
exists only at sites whose decisions asked for it
(:meth:`OverlapIndex.refsum_order`), and every event here merely marks
the ids it touched — one reference to a hot file moves ``refsum[t]`` of
all its pending referers, so eager re-keying would tax every write.

``totalRest`` decomposes as::

    totalRest = Σ_{t pending} rest(|t| - ov_t)
              = Σ_{t pending} rest(|t|)                   # site-independent
              + Σ_{t: ov_t > 0} rest(|t| - ov_t) - rest(|t|)   # per site

The first sum (``rest_base``) changes only when the pending set
changes; the per-site correction changes only when an overlap count
changes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from ..grid.job import Job, Task
from ..grid.storage import SiteStorage
from fractions import Fraction

from .candidates import CandidateBuckets, RefsumOrder
from .metrics import TaskView, rest_weight, rest_weight_exact


class _SiteState:
    """Per-site incremental counters."""

    __slots__ = ("storage", "overlap", "refsum", "total_refsum",
                 "rest_correction", "by_overlap", "by_missing",
                 "by_refsum")

    def __init__(self, storage: SiteStorage):
        self.storage = storage
        self.overlap: Dict[int, int] = {}
        self.refsum: Dict[int, float] = {}
        self.total_refsum = 0.0
        #: Exact rational: Sum over overlapped tasks of
        #: rest(missing) - rest(|t|).  See metrics.rest_weight_exact.
        self.rest_correction = Fraction(0)
        #: Candidate buckets over the *nonzero-overlap* tasks (exactly
        #: the key set of ``overlap``), keyed two ways for the two
        #: bucketable metrics: overlap count (``overlap`` metric walks
        #: them descending) and missing count (``rest`` walks them
        #: ascending).  Zero-overlap tasks stay on the engine's shared
        #: zero-candidate heap, as before.
        self.by_overlap = CandidateBuckets()
        self.by_missing = CandidateBuckets()
        #: The same candidates ordered for ``combined``; None until a
        #: decision at this site asks for it, and again after
        #: :meth:`OverlapIndex.drop_refsum_order`.  While None, events
        #: pay one ``is None`` test for it and nothing else.
        self.by_refsum: Optional[RefsumOrder] = None

    def bucket_add(self, tid: int, size: int, ov: int) -> None:
        self.by_overlap.add(tid, ov)
        self.by_missing.add(tid, size - ov)

    def bucket_move(self, tid: int, size: int, ov: int) -> None:
        self.by_overlap.move(tid, ov)
        self.by_missing.move(tid, size - ov)

    def bucket_remove(self, tid: int) -> None:
        self.by_overlap.remove(tid)
        self.by_missing.remove(tid)


class OverlapIndex:
    """Maintains overlap cardinalities and reference sums incrementally."""

    def __init__(self, job: Job, tasks: Optional[Iterable[Task]] = None):
        """Track ``tasks`` (default: every task of ``job``) as pending."""
        self.job = job
        self._file_to_tasks: Dict[int, Set[int]] = {}
        self._pending: Set[int] = set()
        self._sites: Dict[int, _SiteState] = {}
        self._rest_base = Fraction(0)
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
        storage.on_insert(lambda fid, s=state: self._on_insert(s, fid))
        storage.on_evict(lambda fid, s=state: self._on_evict(s, fid))
        storage.on_touch(lambda fid, s=state: self._on_touch(s, fid))
        for fid in storage.resident_files:
            self._on_insert(state, fid)

    # -- pending-set management --------------------------------------------
    @property
    def pending_tasks(self) -> Set[int]:
        """Ids of tasks currently tracked (read-only view by convention)."""
        return self._pending

    def add_task(self, task: Task) -> None:
        """Track a pending task (initial load, or a requeue)."""
        tid = task.task_id
        if tid in self._pending:
            raise ValueError(f"task {tid} already pending")
        self._pending.add(tid)
        self._rest_base += rest_weight_exact(task.num_files)
        for fid in task.files:
            self._file_to_tasks.setdefault(fid, set()).add(tid)
        # Fold in any storage that already holds some of its files.
        for state in self._sites.values():
            ov = state.storage.overlap(task.files)
            if ov:
                state.overlap[tid] = ov
                state.bucket_add(tid, task.num_files, ov)
                if state.by_refsum is not None:
                    state.by_refsum.dirty.add(tid)
                ref = sum(state.storage.reference_count(fid)
                          for fid in task.files if fid in state.storage)
                state.refsum[tid] = ref
                state.total_refsum += ref
                state.rest_correction += (
                    rest_weight_exact(task.num_files - ov)
                    - rest_weight_exact(task.num_files))

    def remove_task(self, task: Task) -> None:
        """Stop tracking a task (it was assigned or completed)."""
        tid = task.task_id
        if tid not in self._pending:
            raise KeyError(f"task {tid} is not pending")
        self._pending.remove(tid)
        self._rest_base -= rest_weight_exact(task.num_files)
        for fid in task.files:
            referers = self._file_to_tasks.get(fid)
            if referers is not None:
                referers.discard(tid)
                if not referers:
                    del self._file_to_tasks[fid]
        for state in self._sites.values():
            if state.by_refsum is not None:
                state.by_refsum.forget(tid)
            ov = state.overlap.pop(tid, 0)
            if ov:
                state.bucket_remove(tid)
                state.total_refsum -= state.refsum.pop(tid, 0.0)
                state.rest_correction -= (
                    rest_weight_exact(task.num_files - ov)
                    - rest_weight_exact(task.num_files))

    # -- storage listeners ---------------------------------------------
    def _on_insert(self, state: _SiteState, fid: int) -> None:
        tasks = self._file_to_tasks.get(fid)
        if not tasks:
            return
        if state.by_refsum is not None:
            state.by_refsum.dirty.update(tasks)
        ref = state.storage.reference_count(fid)
        for tid in tasks:
            size = self.job[tid].num_files
            old = state.overlap.get(tid, 0)
            state.overlap[tid] = old + 1
            if old:
                state.bucket_move(tid, size, old + 1)
            else:
                state.bucket_add(tid, size, 1)
            state.rest_correction += (rest_weight_exact(size - old - 1)
                                      - rest_weight_exact(size - old))
            if ref:
                state.refsum[tid] = state.refsum.get(tid, 0.0) + ref
                state.total_refsum += ref
            elif tid not in state.refsum:
                state.refsum[tid] = 0.0

    def _on_evict(self, state: _SiteState, fid: int) -> None:
        tasks = self._file_to_tasks.get(fid)
        if not tasks:
            return
        if state.by_refsum is not None:
            state.by_refsum.dirty.update(tasks)
        ref = state.storage.reference_count(fid)
        for tid in tasks:
            size = self.job[tid].num_files
            old = state.overlap[tid]
            state.rest_correction += (rest_weight_exact(size - old + 1)
                                      - rest_weight_exact(size - old))
            if old == 1:
                del state.overlap[tid]
                state.bucket_remove(tid)
                state.total_refsum -= state.refsum.pop(tid, 0.0)
            else:
                state.overlap[tid] = old - 1
                state.bucket_move(tid, size, old - 1)
                if ref:
                    state.refsum[tid] -= ref
                    state.total_refsum -= ref

    def _on_touch(self, state: _SiteState, fid: int) -> None:
        if fid not in state.storage:
            return
        tasks = self._file_to_tasks.get(fid)
        if not tasks:
            return
        if state.by_refsum is not None:
            state.by_refsum.dirty.update(tasks)
        for tid in tasks:
            # The file is resident, so every pending referer overlaps it.
            state.refsum[tid] = state.refsum.get(tid, 0.0) + 1
            state.total_refsum += 1

    # -- queries -----------------------------------------------------------
    def nonzero_overlaps(self, site_id: int) -> Dict[int, int]:
        """task id -> |F_t| for pending tasks with overlap > 0."""
        return self._sites[site_id].overlap

    def candidates_by_overlap(self, site_id: int) -> CandidateBuckets:
        """Nonzero-overlap candidates bucketed by overlap count |F_t|.

        ``top(n, reverse=True)`` is the site's top-n under the
        ``overlap`` metric among nonzero-overlap tasks, in O(n +
        buckets touched) instead of a full candidate scan.
        """
        return self._sites[site_id].by_overlap

    def candidates_by_missing(self, site_id: int) -> CandidateBuckets:
        """Nonzero-overlap candidates bucketed by missing count
        ``|t| - |F_t|``; ``top(n)`` is the ``rest`` metric's top-n
        among nonzero-overlap tasks."""
        return self._sites[site_id].by_missing

    def refsum_order(self, site_id: int) -> RefsumOrder:
        """The site's candidates ordered for ``combined``, up to date.

        Built here on first use (and after a drop) from the current
        candidate map; otherwise the ids marked since the last call
        are re-keyed.  Either way the returned order reflects
        ``nonzero_overlaps``/``refsums`` exactly and is ready to walk.
        """
        state = self._sites[site_id]
        order = state.by_refsum
        if order is None:
            order = state.by_refsum = RefsumOrder()
            order.dirty.update(state.overlap)
        order.flush(state.by_missing, state.refsum)
        return order

    def drop_refsum_order(self, site_id: int) -> None:
        """Free the site's refsum order; events stop marking for it."""
        self._sites[site_id].by_refsum = None

    def refsums(self, site_id: int) -> Dict[int, float]:
        """task id -> ref_t for pending tasks with overlap > 0.

        Tasks absent from the map have ``ref_t = 0`` (callers use
        ``.get(task_id, 0.0)``); both views are read-only by convention.
        """
        return self._sites[site_id].refsum

    def total_rest(self, site_id: int) -> float:
        """totalRest over the pending set for this site.

        Maintained exactly (rationals) and rounded once here, so the
        value never depends on update order.
        """
        return float(self._rest_base
                     + self._sites[site_id].rest_correction)

    def total_refsum(self, site_id: int) -> float:
        """totalRef over the pending set for this site."""
        return self._sites[site_id].total_refsum

    def view(self, site_id: int, task: Task) -> TaskView:
        """O(1) :class:`TaskView` for one (site, pending task) pair."""
        state = self._sites[site_id]
        return TaskView(
            task_id=task.task_id,
            num_files=task.num_files,
            overlap=state.overlap.get(task.task_id, 0),
            refsum=state.refsum.get(task.task_id, 0.0),
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
            for tid in self._pending)
