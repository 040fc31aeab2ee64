#!/usr/bin/env python
"""Extending the library: write and evaluate your own scheduling policy.

A custom *policy* implements the GridScheduler interface from scratch —
here a site-sticky scheduler that hands each site a contiguous block of
the stripe (a spatial-clustering-style heuristic).  The worker-centric
metrics themselves (overlap / rest / combined) are the decision
kernel's, not a plug-in point.  The policy is benchmarked against the
paper's `rest.2` on the same workload.

    python examples/custom_scheduler.py
"""

import random
from collections import OrderedDict

from repro.core import WorkerCentricScheduler
from repro.core.base import BaseScheduler
from repro.exp import ExperimentConfig
from repro.exp.runner import build_grid, build_job
from repro.sim.events import Event


class SiteStickyScheduler(BaseScheduler):
    """Pre-partitions the task list into one contiguous block per site.

    Workers pull from their own site's block (FIFO within the block)
    and steal from the largest remaining block when theirs runs dry.
    """

    def _on_bound(self):
        tasks = list(self.job)
        num_sites = len(self.grid.sites)
        block = -(-len(tasks) // num_sites)
        self._blocks = [
            OrderedDict((t.task_id, t)
                        for t in tasks[i * block:(i + 1) * block])
            for i in range(num_sites)
        ]

    def next_task(self, worker):
        event = Event(self.grid.env)
        block = self._blocks[worker.site.site_id]
        if not block:
            # steal from the fullest remaining block
            donor = max(self._blocks, key=len)
            block = donor
        if block:
            _tid, task = block.popitem(last=False)
            self._trace_assignment(worker, task)
            event.succeed(task)
        else:
            event.succeed(None)  # nothing anywhere: shut the worker down
        return event


def evaluate(name, scheduler_factory, config, job):
    grid = build_grid(config, job)
    scheduler = scheduler_factory(job)
    grid.attach_scheduler(scheduler)
    outcome = grid.run()
    per_server = outcome.file_transfers / config.num_sites
    print(f"  {name:<22s} makespan {outcome.makespan / 60:9.1f} min   "
          f"transfers/server {per_server:8.1f}")
    return outcome


def main():
    config = ExperimentConfig(num_tasks=400, capacity_files=600)
    job = build_job(config)
    print(f"A custom scheduler vs the paper's rest.2 "
          f"({config.num_tasks} tasks, {config.num_sites} sites):\n")
    evaluate("rest.2 (paper)",
             lambda j: WorkerCentricScheduler(j, "rest", 2,
                                              random.Random(0)),
             config, job)
    evaluate("site-sticky (custom)",
             lambda j: SiteStickyScheduler(j), config, job)


if __name__ == "__main__":
    main()
