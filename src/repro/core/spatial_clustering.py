"""Spatial Clustering (Meyer et al., GriPhyN 2005) — workflow baseline.

The related-work planner the paper discusses: tasks are clustered by
input-set overlap *before* execution, and each cluster is pinned to one
site, "improving data reuse and diminishing file transfers".  Its two
known drawbacks — no support for asynchronously arriving jobs, and
application specificity — do not matter for a single Bag-of-Tasks run,
making it a strong locality anchor to compare the online schedulers
against.

Clustering is greedy: seed a cluster with the lowest-id unclustered
task, repeatedly add the unclustered task sharing the largest fraction
of the cluster's file set (above ``min_share``), stop at
``cluster_size`` and start the next cluster.  Clusters go to sites
round-robin; workers pull their site's tasks FIFO and steal from the
largest remaining site queue when idle.
"""

from __future__ import annotations

import typing
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..grid.job import Job, Task
from ..sim.events import Event
from .base import BaseScheduler

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..grid.worker import Worker


def cluster_tasks(job: Job, cluster_size: int,
                  min_share: float = 0.0) -> List[List[Task]]:
    """Greedy overlap clustering of a job's tasks.

    Returns clusters in creation order; every task appears exactly once.
    """
    if cluster_size < 1:
        raise ValueError("cluster_size must be >= 1")
    file_to_tasks = job.file_referers()

    unclustered: Dict[int, Task] = {t.task_id: t for t in job}
    clusters: List[List[Task]] = []
    while unclustered:
        seed_id = min(unclustered)
        seed = unclustered.pop(seed_id)
        cluster = [seed]
        cluster_files = set(seed.files)
        # candidate share counts against the growing cluster file set
        shares: Dict[int, int] = {}
        for fid in seed.files:
            for tid in file_to_tasks[fid]:
                if tid in unclustered:
                    shares[tid] = shares.get(tid, 0) + 1
        while len(cluster) < cluster_size and shares:
            best_id = max(
                shares,
                key=lambda tid: (shares[tid]
                                 / unclustered[tid].num_files, -tid))
            share = shares[best_id] / unclustered[best_id].num_files
            if share < min_share:
                break
            task = unclustered.pop(best_id)
            del shares[best_id]
            cluster.append(task)
            for fid in task.files:
                if fid in cluster_files:
                    continue
                cluster_files.add(fid)
                for tid in file_to_tasks[fid]:
                    if tid in unclustered:
                        shares[tid] = shares.get(tid, 0) + 1
            # drop stale entries of tasks clustered meanwhile
            shares = {tid: count for tid, count in shares.items()
                      if tid in unclustered}
        clusters.append(cluster)
    return clusters


class SpatialClusteringScheduler(BaseScheduler):
    """Pre-clustered, site-pinned execution with idle stealing."""

    def __init__(self, job: Job, cluster_size: Optional[int] = None,
                 min_share: float = 0.05, rng=None):
        super().__init__(job)
        self.cluster_size = cluster_size
        self.min_share = min_share
        self._site_queues: List[Deque[Task]] = []
        self._parked: List[Tuple["Worker", Event]] = []

    def _on_bound(self) -> None:
        num_sites = len(self.grid.sites)
        size = self.cluster_size or max(1, -(-len(self.job)
                                             // (num_sites * 2)))
        clusters = cluster_tasks(self.job, size, self.min_share)
        self._site_queues = [deque() for _ in range(num_sites)]
        for index, cluster in enumerate(clusters):
            queue = self._site_queues[index % num_sites]
            queue.extend(cluster)

    def next_task(self, worker: "Worker") -> Event:
        event = Event(self.grid.env)
        task = self._take(worker.site.site_id)
        if task is not None:
            self._trace_assignment(worker, task)
            event.succeed(task)
        elif self.tasks_remaining == 0:
            event.succeed(None)
        else:
            self._parked.append((worker, event))
        return event

    def _take(self, site_id: int) -> Optional[Task]:
        queue = self._site_queues[site_id]
        if queue:
            return queue.popleft()
        donor = max(self._site_queues, key=len)
        if donor:
            return donor.popleft()
        return None

    def _on_first_completion(self, worker: "Worker", task: Task) -> None:
        if self.tasks_remaining == 0:
            parked, self._parked = self._parked, []
            for _worker, event in parked:
                if not event.triggered:
                    event.succeed(None)

    def notify_cancelled(self, worker: "Worker", task: Task) -> None:
        # Failure injection: return the task to the worker's own site.
        if not self.is_completed(task.task_id):
            self._site_queues[worker.site.site_id].append(task)
            parked, self._parked = self._parked, []
            for parked_worker, event in parked:
                if event.triggered:
                    continue
                retry = self._take(parked_worker.site.site_id)
                if retry is not None:
                    self._trace_assignment(parked_worker, retry)
                    event.succeed(retry)
                else:
                    self._parked.append((parked_worker, event))
