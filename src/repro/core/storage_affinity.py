"""Task-centric *storage affinity* baseline (Santos-Neto et al., 2004).

The paper's comparison point: a push scheduler with data reuse and task
replication.  Per Section 3.1:

1. **Initial distribution** — every task is assigned up front to a
   worker queue "according to the overlap cardinality".
2. **Replication** — once everything is assigned, whenever a worker
   becomes idle the scheduler picks a task already assigned elsewhere
   and replicates it to the idle worker; the first finished copy wins
   and the others are cancelled.

Because the original JSSPP'04 implementation is unavailable, two
under-specified points are resolved as follows (documented in
DESIGN.md):

* Initial distribution is greedy on affinity against a per-site
  *expected view*: the files of tasks already queued at a site (LRU-
  truncated at storage capacity), since the real storages are cold at
  time zero.  This reproduces the phenomenon the paper attributes to
  task-centric scheduling — popular files attract more tasks — while a
  fairness cap (``balance_factor`` × fair share per site) keeps the
  greedy from collapsing onto one site, mirroring the partial imbalance
  Ranganathan & Foster describe.
* The affinity of a replica candidate is its overlap with the idle
  worker's *real* storage at replication time (bytes == files here,
  assumption 8).

Both the queue wait between assignment and execution and the eviction
of queued tasks' files (the "premature scheduling decision") emerge
naturally from this design — they are exactly the behaviours the
worker-centric strategies are measured against.
"""

from __future__ import annotations

import heapq
import random
import typing
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..grid.job import Job, Task
from ..sim.events import Event
from .base import BaseScheduler
from .overlap_index import OverlapIndex

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..grid.worker import Worker


class StorageAffinityScheduler(BaseScheduler):
    """Push scheduling by max overlap + task replication on idleness.

    Parameters
    ----------
    job:
        The bag of tasks.
    balance_factor:
        A site may receive at most ``balance_factor`` times its fair
        share of the initial distribution (>= 1.0).
    rng:
        Accepted for registry symmetry; the policy is deterministic.
    """

    def __init__(self, job: Job, balance_factor: float = 2.0,
                 rng: Optional[random.Random] = None):
        super().__init__(job)
        if balance_factor < 1.0:
            raise ValueError(
                f"balance_factor must be >= 1.0, got {balance_factor}")
        self.balance_factor = balance_factor
        self._queues: Dict[str, Deque[Task]] = {}
        #: task id -> worker names currently holding a copy (queued or
        #: running).
        self._holders: Dict[int, Set[str]] = {}
        self._running: Dict[int, Set["Worker"]] = {}
        self._replica_index: Optional[OverlapIndex] = None
        self._incomplete: Dict[int, Task] = {}
        self._parked: List[Tuple["Worker", Event]] = []
        #: Initial queue length per site (imbalance statistic).
        self.initial_site_load: List[int] = []

    # -- lifecycle -------------------------------------------------------
    def _on_bound(self) -> None:
        for worker in self.grid.workers:
            self._queues[worker.name] = deque()
        self._incomplete = {task.task_id: task for task in self.job}
        self._replica_index = OverlapIndex(self.job)
        for site in self.grid.sites:
            self._replica_index.watch_site(site.site_id, site.storage)
        self._distribute_initial()

    # -- initial distribution ------------------------------------------
    def _distribute_initial(self) -> None:
        """Greedy max-affinity assignment of every task to a worker queue."""
        grid = self.grid
        num_sites = len(grid.sites)
        fair_share = max(1, -(-len(self.job) // num_sites))  # ceil
        site_cap = int(self.balance_factor * fair_share)

        # Expected view per site: an LRU of the files queued tasks will
        # pull, truncated at storage capacity.
        views: List[OrderedDict] = [OrderedDict() for _ in range(num_sites)]
        capacities = [site.storage.capacity_files for site in grid.sites]
        # affinity[s][t]: overlap of unassigned task t with views[s].
        affinities: List[Dict[int, int]] = [{} for _ in range(num_sites)]
        file_to_tasks = self.job.file_referers()
        unassigned: Dict[int, Task] = {t.task_id: t for t in self.job}
        site_load = [0] * num_sites
        # Lazy max-heap of (-affinity, task_id, site_id).
        heap: List[Tuple[int, int, int]] = []

        def add_file(site_id: int, fid: int) -> None:
            view = views[site_id]
            if fid in view:
                view.move_to_end(fid)
                return
            if len(view) >= capacities[site_id]:
                old, _ = view.popitem(last=False)
                for tid in file_to_tasks.get(old, ()):
                    if tid in unassigned:
                        affinities[site_id][tid] -= 1
            view[fid] = None
            aff = affinities[site_id]
            for tid in file_to_tasks.get(fid, ()):
                if tid in unassigned:
                    value = aff.get(tid, 0) + 1
                    aff[tid] = value
                    heapq.heappush(heap, (-value, tid, site_id))

        def pop_best() -> Tuple[Optional[int], Optional[int]]:
            while heap:
                neg, tid, site_id = heap[0]
                if (tid not in unassigned
                        or affinities[site_id].get(tid, 0) != -neg
                        or site_load[site_id] >= site_cap):
                    heapq.heappop(heap)
                    continue
                return tid, site_id
            return None, None

        order = sorted(unassigned)  # FIFO fallback order
        fifo_pos = 0
        while unassigned:
            tid, site_id = pop_best()
            if tid is None:
                # No positive affinity anywhere (cold start or caps):
                # FIFO task to the least-loaded eligible site.
                while order[fifo_pos] not in unassigned:
                    fifo_pos += 1
                tid = order[fifo_pos]
                site_id = min(range(num_sites),
                              key=lambda s: (site_load[s], s))
            task = unassigned.pop(tid)
            worker = min(grid.sites[site_id].workers,
                         key=lambda w: len(self._queues[w.name]))
            self._queues[worker.name].append(task)
            self._holders.setdefault(tid, set()).add(worker.name)
            site_load[site_id] += 1
            self._trace_assignment(worker, task)
            for fid in task.files:
                add_file(site_id, fid)
        self.initial_site_load = site_load

    # -- GridScheduler -----------------------------------------------------
    def next_task(self, worker: "Worker") -> Event:
        event = Event(self.grid.env)
        task = self._dispatch(worker)
        if task is not None:
            event.succeed(task)
        elif self.tasks_remaining == 0:
            event.succeed(None)
        else:
            self._parked.append((worker, event))
        return event

    def _dispatch(self, worker: "Worker") -> Optional[Task]:
        """Next queued task for ``worker``, or a replica, or None."""
        queue = self._queues[worker.name]
        while queue:
            task = queue.popleft()
            if self.is_completed(task.task_id):
                self._drop_holder(task.task_id, worker.name)
                continue
            self._start(worker, task)
            return task
        replica = self._pick_replica(worker)
        if replica is not None:
            self._holders.setdefault(replica.task_id, set()).add(worker.name)
            self._trace_assignment(worker, replica)
            self._start(worker, replica)
        return replica

    def notify_cancelled(self, worker: "Worker", task: Task) -> None:
        self._running.get(task.task_id, set()).discard(worker)
        self._drop_holder(task.task_id, worker.name)
        # A failure (rather than a first-copy-won cancellation) can
        # orphan a task: no queued or running copy remains anywhere.
        # Push it back onto the shortest queue so it completes.
        tid = task.task_id
        if (not self.is_completed(tid) and tid not in self._holders
                and not self._running.get(tid)):
            target = min(self.grid.workers,
                         key=lambda w: (len(self._queues[w.name]), w.name))
            self._queues[target.name].append(task)
            self._holders.setdefault(tid, set()).add(target.name)
            self._serve_parked()

    # -- hooks -------------------------------------------------------------
    def _on_first_completion(self, worker: "Worker", task: Task) -> None:
        tid = task.task_id
        self._incomplete.pop(tid, None)
        if tid in self._replica_index.pending_tasks:
            self._replica_index.remove_task(task)
        self._drop_holder(tid, worker.name)
        self._running.get(tid, set()).discard(worker)
        # First finished copy wins: cancel every other running replica.
        for other in list(self._running.get(tid, ())):
            other.cancel_task(tid)
        # Idle (parked) workers may now find a replica — or learn that
        # the job is done.
        self._serve_parked()

    def _on_duplicate_completion(self, worker: "Worker",
                                 task: Task) -> None:
        self._drop_holder(task.task_id, worker.name)
        self._running.get(task.task_id, set()).discard(worker)

    # -- internals -------------------------------------------------------
    def _start(self, worker: "Worker", task: Task) -> None:
        self._running.setdefault(task.task_id, set()).add(worker)

    def _drop_holder(self, task_id: int, worker_name: str) -> None:
        holders = self._holders.get(task_id)
        if holders is not None:
            holders.discard(worker_name)
            if not holders:
                del self._holders[task_id]

    def _pick_replica(self, worker: "Worker") -> Optional[Task]:
        """Highest-affinity incomplete task not already on this worker.

        Affinity is overlap with the worker's site storage *now*; with
        no positive affinity anywhere, falls back to the lowest-id
        eligible incomplete task.
        """
        if not self._incomplete:
            return None
        overlaps = self._replica_index.nonzero_overlaps(worker.site.site_id)
        best_id: Optional[int] = None
        best_key: Tuple[int, int] = (0, 0)
        for tid, overlap in overlaps.items():
            if tid not in self._incomplete:
                continue
            if worker.name in self._holders.get(tid, ()):
                continue
            key = (overlap, -tid)
            if best_id is None or key > best_key:
                best_id, best_key = tid, key
        if best_id is None:
            for tid in sorted(self._incomplete):
                if worker.name not in self._holders.get(tid, ()):
                    best_id = tid
                    break
        return self._incomplete.get(best_id) if best_id is not None else None

    def _serve_parked(self) -> None:
        parked, self._parked = self._parked, []
        for worker, event in parked:
            if event.triggered:
                continue
            if self.tasks_remaining == 0:
                event.succeed(None)
                continue
            task = self._dispatch(worker)
            if task is not None:
                event.succeed(task)
            else:
                self._parked.append((worker, event))
