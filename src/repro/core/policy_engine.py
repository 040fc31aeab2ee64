"""Sim-free decision core of the worker-centric scheduler.

:class:`PolicyEngine` is the paper's Figure-2 loop — a pending task
set, the incremental :class:`~repro.core.overlap_index.OverlapIndex`,
``CalculateWeight`` over one of the :mod:`~repro.core.metrics`, and
``ChooseTask(n)`` — with **no dependency on the simulator**.  It can be
driven two ways:

* **inside the simulator** — :meth:`watch_storage` subscribes the index
  to a live :class:`~repro.grid.storage.SiteStorage`, exactly as the
  scheduler always did.  :class:`~repro.core.worker_centric
  .WorkerCentricScheduler` is now a thin sim adapter around this class.
* **outside the simulator** — :meth:`attach_site` creates a
  :class:`SiteFileState` mirror that is updated through explicit
  file-state deltas: a whole worker report at once
  (:meth:`apply_delta`), or one file at a time (:meth:`file_added` /
  :meth:`file_removed` / :meth:`file_referenced`).  This is how the
  live :mod:`repro.serve` scheduler daemon runs the same policy over
  TCP: workers report what entered/left their site cache and the
  engine keeps score.

All of them end in the same per-task arithmetic of the index, so a
delta stream replayed from a simulation reproduces the simulator's
decisions bit-for-bit (property-tested through
:meth:`repro.serve.service.SchedulerService.redecide`),
and a report applied whole equals the same report applied file by file
(``tests/test_policy_fast_path.py``).
"""

from __future__ import annotations

import heapq
import random
from bisect import insort
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from ..grid.job import Task
from .metrics import (BUCKETED_METRICS, FAST_SCORERS, METRICS,
                      ORDERED_METRICS, ZERO_OVERLAP_ORDER, TaskView,
                      rest_weight)
from .overlap_index import OverlapIndex

#: What visiting one entry of the refsum order costs (heap pop, score,
#: push back, plus its share of the flush) in scan iterations.  The
#: ordered kernel answers a ``combined`` decision only when the scan
#: would visit more than this many candidates per entry the walk is
#: expected to visit; see :meth:`PolicyEngine._order_pays`.
ORDER_WALK_COST = 32


def _offer(ranked: List[Tuple[float, int]], neg_weight: float,
           task_id: int, n: int) -> None:
    """Offer one candidate into a bounded ranked list.

    ``ranked`` is kept sorted ascending by ``(-weight, task_id)`` —
    best candidate first — and never grows beyond ``n`` entries.  The
    common case (candidate is no better than the current tail of a
    full list) is a single tuple comparison; an accepted candidate
    costs one ``bisect.insort`` into a list of at most ``n`` items,
    not a re-sort.
    """
    if len(ranked) >= n:
        tail = ranked[-1]
        if neg_weight > tail[0] or (neg_weight == tail[0]
                                    and task_id > tail[1]):
            return
        ranked.pop()
    insort(ranked, (neg_weight, task_id))


class SiteFileState:
    """A site's file state mirrored from explicit deltas.

    Duck-types the slice of :class:`~repro.grid.storage.SiteStorage`
    the :class:`OverlapIndex` consumes — membership, ``overlap``,
    ``reference_count``, ``resident_files`` and the
    insert/evict/touch listener hooks — but holds no eviction policy of
    its own: whoever feeds the deltas (a remote worker's cache, a
    replayed simulation) decides what is resident.
    """

    def __init__(self) -> None:
        self._resident: Dict[int, None] = {}
        self._references: Dict[int, int] = {}
        self._insert_listeners: List[Callable[[int], None]] = []
        self._evict_listeners: List[Callable[[int], None]] = []
        self._touch_listeners: List[Callable[[Sequence[int]], None]] = []

    # -- listener hooks (OverlapIndex.watch_site contract) ---------------
    def on_insert(self, listener: Callable[[int], None]) -> None:
        self._insert_listeners.append(listener)

    def on_evict(self, listener: Callable[[int], None]) -> None:
        self._evict_listeners.append(listener)

    def on_touch(self, listener: Callable[[Sequence[int]], None]) -> None:
        self._touch_listeners.append(listener)

    # -- queries (OverlapIndex read surface) -----------------------------
    def __contains__(self, fid: int) -> bool:
        return fid in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    @property
    def resident_files(self) -> Tuple[int, ...]:
        return tuple(self._resident)

    def reference_count(self, fid: int) -> int:
        """``r_i``: past references of ``fid``, surviving removal."""
        return self._references.get(fid, 0)

    def overlap(self, files: Iterable[int]) -> int:
        return sum(1 for fid in files if fid in self._resident)

    # -- deltas ----------------------------------------------------------
    def add(self, fid: int) -> bool:
        """A file became resident; False if it already was."""
        resident = self._resident
        if fid in resident:
            return False
        resident[fid] = None
        for listener in self._insert_listeners:
            listener(fid)
        return True

    def remove(self, fid: int) -> bool:
        """A file left the site; False if it was not resident."""
        resident = self._resident
        if fid not in resident:
            return False
        del resident[fid]
        for listener in self._evict_listeners:
            listener(fid)
        return True

    def reference(self, fid: int) -> int:
        """A task referenced ``fid`` (resident or not); returns r_i.

        Mirrors :meth:`SiteStorage.touch`: the counter is bumped and
        listeners fire, with a batch of one, regardless of residency —
        the index decides whether the reference contributes to a
        refsum.
        """
        references = self._references
        count = references[fid] = references.get(fid, 0) + 1
        batch = (fid,)
        for listener in self._touch_listeners:
            listener(batch)
        return count

    # -- whole reports (PolicyEngine.apply_delta) ------------------------
    def update_resident(self, added: Iterable[int],
                        removed: Iterable[int],
                        ) -> Tuple[List[int], List[int]]:
        """The residency half of a report — removals, then insertions
        — *without* calling the listeners: returns the files that did
        enter and those that did leave, for the caller to tell the
        index in one piece."""
        resident = self._resident
        lost = []
        for fid in removed:
            if fid in resident:
                del resident[fid]
                lost.append(fid)
        gained = []
        for fid in added:
            if fid not in resident:
                resident[fid] = None
                gained.append(fid)
        return gained, lost

    def count_references(self, referenced: Iterable[int]) -> None:
        """Bump ``r_i`` once per occurrence, listeners not called."""
        references = self._references
        for fid in referenced:
            references[fid] = references.get(fid, 0) + 1

    def summary(self) -> Tuple[List[int], List[int]]:
        """The resident files, sorted, and their reference counts
        aligned to them: a thief's ``STEAL_REQUEST`` site entry."""
        references = self._references
        files = sorted(self._resident)
        return files, [references.get(fid, 0) for fid in files]

    # -- snapshot surface (repro.cluster durability) ---------------------
    def export(self) -> Dict[str, list]:
        """JSON-native dump of residency + reference counters."""
        return {"resident": sorted(self._resident),
                "references": sorted(
                    [fid, count]
                    for fid, count in self._references.items())}

    @classmethod
    def restore(cls, resident: Iterable[int],
                references: Iterable[Tuple[int, int]]) -> "SiteFileState":
        """Rebuild a mirror from :meth:`export` output.

        The dicts are prefilled directly — no listeners exist yet, so
        nothing fires.  Attach the restored state *afterwards*
        (``PolicyEngine.attach_site(site_id, state=...)``): the
        index's ``watch_site`` folds the already-resident files
        through its insert hook, and the first decision that asks
        for the site's refsums builds them from the restored
        reference counts — exactly the sums the original held.
        """
        state = cls()
        for fid in resident:
            state._resident[fid] = None
        for fid, count in references:
            state._references[fid] = count
        return state


class PolicyEngine:
    """Pending set + overlap index + CalculateWeight + ChooseTask(n).

    Parameters
    ----------
    job:
        Task lookup: anything supporting ``job[task_id] -> Task``.  In
        the simulator this is a :class:`~repro.grid.job.Job`; the live
        service passes a growable task table.
    metric:
        One of ``overlap``, ``rest``, ``combined``, ``combined-literal``.
    n:
        ChooseTask(n) candidate-set size; ``1`` = deterministic.
    rng:
        Random stream for the randomized variants (``n >= 2``).
    """

    def __init__(self, job, metric: str = "rest", n: int = 1,
                 rng: Optional[random.Random] = None,
                 fast_path: bool = True):
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; "
                             f"choose from {sorted(METRICS)}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.job = job
        self.metric_name = metric
        self.n = n
        self._weight = METRICS[metric]
        self._scorer = FAST_SCORERS[metric]
        #: When True (the default), :meth:`choose` runs the sublinear
        #: kernels: bucketed top-n retrieval for the ``overlap``/``rest``
        #: metrics (unscoped pulls), the refsum-order walk for
        #: ``combined``/``combined-literal`` over a large candidate map,
        #: and the allocation-free scoring loop otherwise.
        #: ``fast_path=False`` keeps the original
        #: TaskView-per-task reference loop for differential testing
        #: and the ablation benchmark.  Both paths are
        #: decision-for-decision and RNG-identical.
        self.fast_path = fast_path
        self._rng = rng or random.Random(0)
        self._pending: Dict[int, Task] = {}
        self._index = OverlapIndex(job, tasks=())
        self._zero_heap: List[Tuple] = []
        self._sites: Dict[int, SiteFileState] = {}
        #: Instrumentation: scheduling decisions made and tasks scored
        #: (the paper's T·I term), for the complexity ablation.  The
        #: bucketed and ordered kernels count only the candidates they
        #: actually weigh (≤ 2n, ≤ (groups+1)·n) — the whole point — so
        #: comparing ``tasks_scored`` across ``fast_path`` settings
        #: *is* the work-saved measurement.
        self.decisions = 0
        self.tasks_scored = 0
        #: Which kernel answered the latest :meth:`choose`:
        #: ``bucketed``, ``ordered``, ``scored`` or ``reference``.
        self.last_kernel: Optional[str] = None
        #: Decision-trace hook: when set, :meth:`choose` calls it with
        #: one span dict per decision (site, metric, n, the ranked
        #: top-n candidates with weight/overlap/files_missing, the
        #: chosen task and the runner-up).  Pure observation — it
        #: fires after sampling, consumes no randomness, and adds
        #: zero decisions, so traced and untraced runs are
        #: bit-identical.  See :mod:`repro.obs.trace`.
        self.on_decision: Optional[Callable[[dict], None]] = None

    # -- site wiring -----------------------------------------------------
    def watch_storage(self, site_id: int, storage) -> None:
        """Track a simulator :class:`SiteStorage` (callback-driven)."""
        self._index.watch_site(site_id, storage)

    def attach_site(self, site_id: int,
                    state: Optional[SiteFileState] = None,
                    ) -> SiteFileState:
        """Track a delta-driven site; returns its mutable mirror.

        ``state`` lets crash recovery attach a pre-built
        :meth:`SiteFileState.restore` mirror; ``watch_site`` then
        folds its already-resident files into the index, so the
        restored site scores exactly like the original.
        """
        if state is None:
            state = SiteFileState()
        self._index.watch_site(site_id, state)
        self._sites[site_id] = state
        return state

    @property
    def rng(self) -> random.Random:
        """The ChooseTask(n) stream (snapshot/restore via
        ``getstate``/``setstate``; consumed only by sampling)."""
        return self._rng

    @property
    def site_ids(self) -> Tuple[int, ...]:
        """Delta-driven sites attached so far (not watched storages)."""
        return tuple(self._sites)

    def site_state(self, site_id: int) -> SiteFileState:
        return self._sites[site_id]

    # -- file-state deltas (delta-driven sites only) ---------------------
    # One file at a time: the names the bench tracer wraps.  They
    # reach the index through the mirror's listeners; the live service
    # reports whole deltas through :meth:`apply_delta`.
    def file_added(self, site_id: int, fid: int) -> bool:
        return self._sites[site_id].add(fid)

    def file_removed(self, site_id: int, fid: int) -> bool:
        return self._sites[site_id].remove(fid)

    def file_referenced(self, site_id: int, fid: int) -> int:
        return self._sites[site_id].reference(fid)

    def apply_delta(self, site_id: int, added: Sequence[int],
                    removed: Sequence[int], referenced: Sequence[int],
                    ) -> Tuple[int, int]:
        """One worker report in one pass: removals, then insertions,
        then references — what the per-file calls above do in that
        order, but every affected pending task is visited once for the
        whole report.  Returns the redundant ``(adds, removes)``: files
        reported added that were resident, removed that were not.
        """
        state = self._sites[site_id]
        gained, lost = state.update_resident(added, removed)
        # Between the two halves: the index reads residency as it now
        # is and reference counts as they were.
        self._index.apply_delta(site_id, gained, lost, referenced)
        state.count_references(referenced)
        return len(added) - len(gained), len(removed) - len(lost)

    # -- pending-set management ------------------------------------------
    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> Dict[int, Task]:
        """The pending map (read-only by convention)."""
        return self._pending

    def is_pending(self, task_id: int) -> bool:
        return task_id in self._pending

    def add_task(self, task: Task) -> None:
        """Make a task schedulable (initial load, arrival, or requeue)."""
        if task.task_id in self._pending:
            raise ValueError(f"task {task.task_id} is already pending")
        self._pending[task.task_id] = task
        self._index.add_task(task)
        self._push_zero_candidate(task)

    def remove_task(self, task: Task) -> None:
        """Retire a task from the pending set (it was assigned)."""
        del self._pending[task.task_id]
        self._index.remove_task(task)
        # The task's zero-heap entry dies lazily, dropped when a lookup
        # pops it — but lookups stop after n live entries, or find the
        # candidate map covering the queue and never start, so most
        # dead entries are never reached: sweep once they outnumber
        # the live two to one.
        if len(self._zero_heap) > 2 * len(self._pending) + 64:
            self._zero_heap = [entry for entry in self._zero_heap
                               if entry[-1] in self._pending]
            heapq.heapify(self._zero_heap)

    def overlap(self, site_id: int, task_id: int) -> int:
        """|F_t| of a pending task at a site (0 if no overlap)."""
        return self._index.nonzero_overlaps(site_id).get(task_id, 0)

    def tasks_sharing(self, files: Iterable[int]) -> Set[int]:
        """Pending tasks holding at least one of ``files``."""
        return self._index.tasks_sharing(files)

    def _push_zero_candidate(self, task: Task) -> None:
        order = ZERO_OVERLAP_ORDER[self.metric_name]
        if order == "min_files":
            entry = (task.num_files, task.task_id)
        elif order == "max_files":
            entry = (-task.num_files, task.task_id)
        else:  # fifo
            entry = (task.task_id,)
        heapq.heappush(self._zero_heap, entry)

    # -- the decision ----------------------------------------------------
    def choose(self, site_id: int, eligible=None) -> Task:
        """CalculateWeight over candidates + ChooseTask(n).

        ``eligible`` (a container of task ids, or None for all pending)
        restricts the candidate set — the live service uses it for
        job-scoped pulls.  With the default None the decision is
        bit-identical to the unscoped algorithm, which is what the
        replay-equivalence suite pins down.

        Four kernels build the same ranked top-n list (higher weight
        first, lower task id breaking ties; identical floats, so the
        winner and the RNG consumption are bit-identical across all of
        them — pinned by tests/test_policy_fast_path.py):

        * **bucketed** (fast path, unscoped ``overlap``/``rest``) —
          walk the overlap index's candidate buckets best-key-first,
          O(n + buckets touched) instead of scanning every candidate;
        * **ordered** (fast path, ``combined``/``combined-literal``
          over a candidate map large enough to pay for it) — take the
          first n eligible ids of each missing-count group of the
          site's refsum order and score only those;
        * **scored** (fast path otherwise) — the scan, but through the
          allocation-free raw-argument scorers instead of a TaskView
          per task;
        * **reference** (``fast_path=False``) — the original TaskView
          loop, kept for differential testing and the ablation
          benchmark.

        Does *not* retire the chosen task; callers decide whether the
        assignment sticks and then call :meth:`remove_task`.
        """
        self.decisions += 1
        scored_before = self.tasks_scored
        if not self.fast_path:
            kernel = "reference"
            ranked = self._rank_reference(site_id, eligible)
        elif eligible is None and self.metric_name in BUCKETED_METRICS:
            kernel = "bucketed"
            ranked = self._rank_bucketed(site_id)
        elif (self.metric_name in ORDERED_METRICS
              and self._order_pays(site_id, eligible)):
            kernel = "ordered"
            ranked = self._rank_ordered(site_id, eligible)
        else:
            kernel = "scored"
            ranked = self._rank_scored(site_id, eligible)
        self.last_kernel = kernel
        best = [(-neg_weight, task_id) for neg_weight, task_id in ranked]
        chosen_id = self._sample(best)
        if self.on_decision is not None:
            overlaps = self._index.nonzero_overlaps(site_id)
            self.on_decision(self._build_span(
                site_id, overlaps, best, chosen_id, kernel,
                self.tasks_scored - scored_before))
        return self._pending[chosen_id]

    def _rank_reference(self, site_id: int,
                        eligible) -> List[Tuple[float, int]]:
        """The original scan: one TaskView per candidate scored."""
        index = self._index
        total_rest = index.total_rest(site_id)
        total_ref = index.total_refsum(site_id)
        overlaps = index.nonzero_overlaps(site_id)
        refsums = index.refsums(site_id)
        n = self.n
        ranked: List[Tuple[float, int]] = []  # (-weight, id), len <= n

        for task_id, overlap in overlaps.items():
            if eligible is not None and task_id not in eligible:
                continue
            task = self._pending.get(task_id)
            if task is None:  # defensive; index tracks pending only
                continue
            view = TaskView(task_id=task_id, num_files=task.num_files,
                            overlap=overlap,
                            refsum=refsums.get(task_id, 0.0),
                            total_refsum=total_ref, total_rest=total_rest)
            _offer(ranked, -self._weight(view), task_id, n)
            self.tasks_scored += 1

        for task_id in self.zero_overlap_candidates(site_id, eligible):
            task = self._pending[task_id]
            view = TaskView(task_id=task_id, num_files=task.num_files,
                            overlap=0, refsum=0.0,
                            total_refsum=total_ref, total_rest=total_rest)
            _offer(ranked, -self._weight(view), task_id, n)
            self.tasks_scored += 1
        return ranked

    def _rank_bucketed(self, site_id: int) -> List[Tuple[float, int]]:
        """Sublinear top-n for the monotone-integer metrics.

        The nonzero-overlap top-n comes straight off the candidate
        buckets (weight is a monotone function of the bucket key, and
        equal keys give bit-equal weights, so bucket order == weight
        order with the id tie-break); it is then merged with the up-to
        ``n`` zero-overlap candidates from the shared heap.  Only the
        ≤ 2n merged candidates are ever scored.
        """
        index = self._index
        n = self.n
        if self.metric_name == "overlap":
            top = index.candidates_by_overlap(site_id).top(n, reverse=True)
            # Bucket walk yields descending keys, ascending ids: that
            # is exactly ascending (-weight, id) order already.
            ranked = [(-float(key), task_id) for key, task_id in top]
            for task_id in self.zero_overlap_candidates(site_id, None):
                _offer(ranked, -0.0, task_id, n)
        else:  # rest
            top = index.candidates_by_missing(site_id).top(n)
            ranked = [(-rest_weight(key), task_id) for key, task_id in top]
            for task_id in self.zero_overlap_candidates(site_id, None):
                weight = rest_weight(self._pending[task_id].num_files)
                _offer(ranked, -weight, task_id, n)
        self.tasks_scored += len(ranked)
        return ranked

    def _order_pays(self, site_id: int, eligible) -> bool:
        """Should this ``combined`` decision walk the refsum order?

        From sizes already in hand.  The walk visits about ``n``
        entries in each missing-count group — ``len(overlaps) /
        len(eligible)`` times that under a scope, which skips what it
        may not take — and the scan visits the smaller of the candidate
        map and the scope; the walk answers when the scan's visits
        exceed :data:`ORDER_WALK_COST` times its own.  A site whose
        map fell to half of what would justify an order drops it, so
        small maps (the paper's Coadd job: tens of candidates) carry
        neither the structure nor the marking; the drop only frees
        memory, the answer here is a pure function of the current
        sizes.
        """
        index = self._index
        candidates = len(index.nonzero_overlaps(site_id))
        walk = ORDER_WALK_COST * self.n
        if candidates <= walk and not index.has_refsum_order(site_id):
            # Too few even for a single group, and nothing to drop:
            # answered without asking for (so without building) the
            # missing-count buckets.
            return False
        walk *= index.candidates_by_missing(site_id).key_count()
        if candidates <= walk:
            if 2 * candidates < walk:
                index.drop_refsum_order(site_id)
            return False
        if eligible is None:
            return True
        return (isinstance(eligible, (set, frozenset))
                and len(eligible) ** 2 >= walk * candidates)

    def _rank_ordered(self, site_id: int,
                      eligible) -> List[Tuple[float, int]]:
        """Sublinear top-n for ``combined``/``combined-literal``.

        Inside one missing-count group both weights are ``ref_t /
        totalRef`` plus a per-group constant: non-decreasing in
        ``ref_t`` for any positive normalizers, so the group's top-n
        is at the front of its ``(ref_t desc, id asc)`` order and only
        ≤ groups·n candidates are scored — with the same scorer, hence
        the same floats, as the scan.

        Non-decreasing is not strictly increasing: when ``totalRef`` is
        huge, distinct ``ref_t`` round to one weight and the id
        tie-break then reaches across them.  ``ref_t`` is a sum of
        reference counts, so distinct values differ by at least 1; if
        the n-th candidate's weight is also the weight of ``ref_t ± 1``
        the walk keeps taking candidates until the weight drops.
        """
        index = self._index
        order = index.refsum_order(site_id)
        total_rest = index.total_rest(site_id)
        total_ref = index.total_refsum(site_id)
        overlaps = index.nonzero_overlaps(site_id)
        scorer = self._scorer
        n = self.n
        ranked: List[Tuple[float, int]] = []
        scored = 0

        for missing in order.groups():
            taken = 0
            tied_weight = None  # set once n are taken and ties can follow
            walk = order.walk(missing)
            for refsum, task_id in walk:
                if eligible is not None and task_id not in eligible:
                    continue
                overlap = overlaps[task_id]
                num_files = missing + overlap
                weight = scorer(num_files, overlap, refsum,
                                total_ref, total_rest)
                if tied_weight is not None and weight != tied_weight:
                    break
                _offer(ranked, -weight, task_id, n)
                scored += 1
                taken += 1
                if taken == n:
                    # totalRef == 0 means every ref_t is 0: one
                    # plateau, already in id order.
                    if total_ref <= 0 or not (
                            weight == scorer(num_files, overlap,
                                             refsum - 1, total_ref,
                                             total_rest)
                            or weight == scorer(num_files, overlap,
                                                refsum + 1, total_ref,
                                                total_rest)):
                        break
                    tied_weight = weight
            walk.close()

        scored += self._offer_zero_overlap(ranked, site_id, eligible,
                                           total_ref, total_rest)
        self.tasks_scored += scored
        return ranked

    def _offer_zero_overlap(self, ranked: List[Tuple[float, int]],
                            site_id: int, eligible, total_ref: float,
                            total_rest: float) -> int:
        """Merge the zero-overlap heap's best into ``ranked``; returns
        how many candidates were scored."""
        scorer = self._scorer
        pending = self._pending
        n = self.n
        scored = 0
        for task_id in self.zero_overlap_candidates(site_id, eligible):
            weight = scorer(pending[task_id].num_files, 0, 0.0,
                            total_ref, total_rest)
            _offer(ranked, -weight, task_id, n)
            scored += 1
        return scored

    def _rank_scored(self, site_id: int,
                     eligible) -> List[Tuple[float, int]]:
        """Allocation-free scan: raw-argument scorers, no TaskView.

        Used for ``overlap``/``rest`` under a scope and for
        ``combined``/``combined-literal`` when the candidate map or the
        scope is too small to pay for the refsum order.  A scoped
        pull iterates whichever of the eligible set and the candidate
        map is smaller — the candidate set is their intersection
        either way.
        """
        index = self._index
        total_rest = index.total_rest(site_id)
        overlaps = index.nonzero_overlaps(site_id)
        if self.metric_name in ORDERED_METRICS:
            total_ref = index.total_refsum(site_id)
            refsums = index.refsums(site_id)
        else:
            # ``overlap``/``rest`` score from the counts alone: zeros
            # stand in, and the site never builds its refsums.
            total_ref = 0.0
            refsums = {}
        scorer = self._scorer
        pending = self._pending
        n = self.n
        ranked: List[Tuple[float, int]] = []
        scored = 0

        if eligible is None:
            for task_id, overlap in overlaps.items():
                task = pending.get(task_id)
                if task is None:
                    continue
                weight = scorer(task.num_files, overlap,
                                refsums.get(task_id, 0.0),
                                total_ref, total_rest)
                _offer(ranked, -weight, task_id, n)
                scored += 1
        elif (isinstance(eligible, (set, frozenset))
              and len(eligible) < len(overlaps)):
            for task_id in eligible:
                overlap = overlaps.get(task_id)
                if not overlap:
                    continue
                task = pending.get(task_id)
                if task is None:
                    continue
                weight = scorer(task.num_files, overlap,
                                refsums.get(task_id, 0.0),
                                total_ref, total_rest)
                _offer(ranked, -weight, task_id, n)
                scored += 1
        else:
            for task_id, overlap in overlaps.items():
                if task_id not in eligible:
                    continue
                task = pending.get(task_id)
                if task is None:
                    continue
                weight = scorer(task.num_files, overlap,
                                refsums.get(task_id, 0.0),
                                total_ref, total_rest)
                _offer(ranked, -weight, task_id, n)
                scored += 1

        scored += self._offer_zero_overlap(ranked, site_id, eligible,
                                           total_ref, total_rest)
        self.tasks_scored += scored
        return ranked

    def choose_many(self, site_id: int, k: int,
                    eligible=None) -> List[Task]:
        """Draw up to ``k`` tasks by iterated ChooseTask(n) sampling
        *without replacement*.

        Each draw runs the full CalculateWeight + ChooseTask(n)
        decision and then **retires** the winner (unlike
        :meth:`choose`), so the next draw's weights are recomputed
        against the site's storage with the already-drawn tasks gone —
        batch members never double-count the same cached files.  Stops
        early when the (eligible) pending set runs dry, so the result
        holds between 0 and ``k`` tasks.

        ``k == 1`` is decision-for-decision identical to one
        :meth:`choose` call followed by :meth:`remove_task` — same
        winner, same RNG consumption — which is what keeps the batched
        protocol path bit-compatible with single-task assignment.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        drawn: List[Task] = []
        if eligible is None:
            while len(drawn) < k and self._pending:
                task = self.choose(site_id)
                self.remove_task(task)
                drawn.append(task)
            return drawn
        # Intersect the scope with the pending set once per batch and
        # keep it live by removing each winner; re-scanning the whole
        # eligible container before every draw made a k-task batch
        # O(k·|eligible|).  ``choose(eligible=remaining)`` is
        # bit-identical to passing the original container because the
        # candidate set is (eligible ∩ pending) either way.
        remaining = {task_id for task_id in eligible
                     if task_id in self._pending}
        while len(drawn) < k and remaining:
            task = self.choose(site_id, eligible=remaining)
            self.remove_task(task)
            remaining.discard(task.task_id)
            drawn.append(task)
        return drawn

    def _build_span(self, site_id: int, overlaps: Dict[int, int],
                    best: List[Tuple[float, int]],
                    chosen_id: int, kernel: str, scored: int) -> dict:
        """The trace span for one decision (``on_decision`` payload)."""
        candidates = []
        for weight, task_id in best:
            overlap = overlaps.get(task_id, 0)
            num_files = self._pending[task_id].num_files
            candidates.append({"task_id": task_id, "weight": weight,
                               "overlap": overlap,
                               "num_files": num_files,
                               "files_missing": num_files - overlap})
        runner_up = next((task_id for _weight, task_id in best
                          if task_id != chosen_id), None)
        return {"site": site_id, "metric": self.metric_name,
                "n": self.n, "chosen": chosen_id,
                "runner_up": runner_up, "candidates": candidates,
                "pending": len(self._pending),
                "kernel": kernel, "scored": scored}

    def zero_overlap_candidates(self, site_id: int,
                                eligible=None) -> List[int]:
        """Up to ``n`` best pending tasks with zero overlap at the site.

        Pops dead heap entries permanently; live entries that are merely
        inspected are pushed back for future requests.  ``eligible``
        restricts the search to a task-id subset (job-scoped pulls); an
        ineligible entry is skipped but kept, which can make a scoped
        scan walk the whole heap — acceptable, since scoped pulls are
        the exception and the unscoped path is untouched.
        """
        overlaps = self._index.nonzero_overlaps(site_id)
        if len(overlaps) >= len(self._pending):
            # The map tracks pending ids only, so it covers the whole
            # queue: nobody has zero overlap, and walking the heap
            # would pop and re-push every entry to learn that.
            return []
        chosen: List[int] = []
        skipped: List[Tuple] = []
        while self._zero_heap and len(chosen) < self.n:
            entry = heapq.heappop(self._zero_heap)
            task_id = entry[-1]
            if task_id not in self._pending:
                continue  # stale: task was assigned; drop permanently
            if skipped and skipped[-1] == entry:
                # A requeued task's second entry (the first was still
                # in the heap): equal entries pop in a row; drop it.
                continue
            skipped.append(entry)
            if eligible is not None and task_id not in eligible:
                continue
            if task_id not in overlaps:
                chosen.append(task_id)
        for entry in skipped:
            heapq.heappush(self._zero_heap, entry)
        return chosen

    def _sample(self, best: List[Tuple[float, int]]) -> int:
        """ChooseTask(n): weight-proportional pick among the best."""
        if not best:
            raise RuntimeError("no candidate tasks to choose from")
        if len(best) == 1 or self.n == 1:
            return best[0][1]
        total = sum(weight for weight, _tid in best)
        if total <= 0:
            # All candidate weights are zero (e.g. cold-start overlap
            # metric): uniform random among the candidate set.
            return self._rng.choice(best)[1]
        point = self._rng.random() * total
        acc = 0.0
        for weight, task_id in best:
            acc += weight
            if point <= acc:
                return task_id
        return best[-1][1]
