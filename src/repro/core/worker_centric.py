"""The paper's worker-centric scheduling algorithm (Figure 2).

Each worker asks the global scheduler for a task whenever it is idle.
The scheduler scores every pending task for the requesting worker with
``CalculateWeight`` (one of the metrics in :mod:`repro.core.metrics`)
and picks one with ``ChooseTask(n)``:

1. take the ``n`` highest-weighted tasks,
2. pick among them with probability proportional to their weights
   (``n = 1`` is the deterministic argmax; ``n = 2`` is the paper's
   randomized ``rest.2`` / ``combined.2`` variants).

The decision machinery itself — pending set, incremental
:class:`~repro.core.overlap_index.OverlapIndex`, candidate heaps,
weight ranking and sampling — lives in the sim-free
:class:`~repro.core.policy_engine.PolicyEngine`; this class is the
simulator adapter around it (event plumbing, parked idle workers,
storage subscriptions, assignment traces).  The same engine powers the
live :mod:`repro.serve` scheduler daemon, and the equivalence suite
proves both drive it to identical decisions.
"""

from __future__ import annotations

import random
import typing
from typing import List, Optional, Tuple

from ..grid.job import Job, Task
from ..sim.events import Event
from .base import BaseScheduler
from .policy_engine import PolicyEngine

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..grid.worker import Worker


class WorkerCentricScheduler(BaseScheduler):
    """Pull scheduler with pluggable data-locality metric.

    Parameters
    ----------
    job:
        The bag of tasks to schedule.
    metric:
        One of ``overlap``, ``rest``, ``combined``, ``combined-literal``.
    n:
        ChooseTask(n) candidate-set size; ``1`` = deterministic.
    rng:
        Random stream used by the randomized variants (``n >= 2``).
    """

    #: Worker-centric scheduling handles asynchronously arriving work
    #: natively — new tasks simply join the pending set.
    supports_dynamic_release = True

    def __init__(self, job: Job, metric: str = "rest", n: int = 1,
                 rng: Optional[random.Random] = None,
                 initial_task_ids: Optional[typing.Iterable[int]] = None):
        super().__init__(job)
        self._engine = PolicyEngine(job, metric=metric, n=n, rng=rng)
        self._initial_ids = (None if initial_task_ids is None
                             else set(initial_task_ids))
        self._parked: List[Tuple["Worker", Event]] = []

    # -- engine views ----------------------------------------------------
    @property
    def engine(self) -> PolicyEngine:
        """The sim-free decision core this scheduler drives."""
        return self._engine

    @property
    def metric_name(self) -> str:
        return self._engine.metric_name

    @property
    def n(self) -> int:
        return self._engine.n

    @property
    def decisions(self) -> int:
        return self._engine.decisions

    @property
    def tasks_scored(self) -> int:
        return self._engine.tasks_scored

    @property
    def _pending(self):
        return self._engine.pending

    # -- lifecycle -------------------------------------------------------
    def _on_bound(self) -> None:
        for site in self.grid.sites:
            self._engine.watch_storage(site.site_id, site.storage)
        for task in self.job:
            if self._initial_ids is None or task.task_id in self._initial_ids:
                self._engine.add_task(task)

    # -- GridScheduler -----------------------------------------------------
    def next_task(self, worker: "Worker") -> Event:
        event = Event(self.grid.env)
        if not self._engine.has_pending:
            if self.tasks_remaining == 0:
                event.succeed(None)
            else:
                # Everything is assigned but not yet complete; park until
                # the job finishes (or a failure requeues a task).
                self._parked.append((worker, event))
                self.job_done.add_callback(
                    lambda _e: self._drain_parked())
            return event
        task = self._choose(worker)
        self._retire(task)
        self._trace_assignment(worker, task)
        event.succeed(task)
        return event

    def notify_cancelled(self, worker: "Worker", task: Task) -> None:
        # Worker-centric scheduling never replicates, so a cancellation
        # can only come from failure injection: put the task back.
        if not self.is_completed(task.task_id):
            self.requeue(task)

    # -- internals -------------------------------------------------------
    def _choose(self, worker: "Worker") -> Task:
        return self._engine.choose(worker.site.site_id)

    def _retire(self, task: Task) -> None:
        self._engine.remove_task(task)

    def _zero_overlap_candidates(self, site_id: int) -> List[int]:
        return self._engine.zero_overlap_candidates(site_id)

    def requeue(self, task: Task) -> None:
        """Return an assigned-but-unfinished task to the pending set."""
        self.release_tasks([task])

    def release_tasks(self, tasks: typing.Iterable[Task]) -> None:
        """Make deferred tasks schedulable (asynchronous job arrival).

        Tasks must belong to the job this scheduler was built with and
        not be pending already.  Parked idle workers are dispatched
        immediately.
        """
        for task in tasks:
            self._engine.add_task(task)
        while self._parked and self._engine.has_pending:
            worker, event = self._parked.pop(0)
            if event.triggered:
                continue
            chosen = self._choose(worker)
            self._retire(chosen)
            self._trace_assignment(worker, chosen)
            event.succeed(chosen)

    def _drain_parked(self) -> None:
        parked, self._parked = self._parked, []
        for _worker, event in parked:
            if not event.triggered:
                event.succeed(None)
