"""Record a simulated schedule; replay it into a sim-free engine.

The live service trusts :class:`~repro.core.policy_engine.PolicyEngine`
to make the same decisions the validated simulator makes.  This module
is the proof harness: :func:`record_run` executes a normal simulation
with a :class:`WorkerCentricScheduler` while logging the *exact*
information the live engine would receive over the wire — site
registrations, task arrivals, storage insert/evict/touch deltas — plus
every decision taken.  :func:`replay_decisions` then feeds the same
stream into a fresh delta-driven :class:`PolicyEngine` and returns the
decisions it makes.  Equality of the two decision sequences (asserted
property-style in the test suite, across metrics × n × seeds) is the
guarantee that deploying the engine behind TCP changes nothing about
the policy.

Events are uniform ``(kind, site_id, value)`` tuples:

======== ========= ===========================================
kind     site_id   value
======== ========= ===========================================
"site"   site id   ``-1`` (site registered, in watch order)
"add"    ``-1``    task id entering the pending set
"insert" site id   file id becoming resident
"evict"  site id   file id leaving residency
"touch"  site id   file id referenced (``r_i`` += 1)
"choose" site id   task id the scheduler picked
======== ========= ===========================================
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..core.policy_engine import PolicyEngine
from ..core.worker_centric import WorkerCentricScheduler
from ..grid.cluster import Grid
from ..grid.job import Job
from ..net.tiers import TiersParams, generate as generate_tiers
from ..sim.engine import Environment

Event = Tuple[str, int, int]


def instrument_engine(engine: PolicyEngine, events: List[Event]) -> None:
    """Shadow an engine's entry points so they log to ``events``.

    Must run before the scheduler binds (sites and initial tasks are
    registered at bind time and belong in the log).
    """
    orig_watch = engine.watch_storage
    orig_add = engine.add_task
    orig_choose = engine.choose

    def watch_storage(site_id, storage):
        orig_watch(site_id, storage)
        events.append(("site", site_id, -1))
        storage.on_insert(
            lambda fid, s=site_id: events.append(("insert", s, fid)))
        storage.on_evict(
            lambda fid, s=site_id: events.append(("evict", s, fid)))
        storage.on_touch(lambda fids, s=site_id: events.extend(
            ("touch", s, fid) for fid in fids))

    def add_task(task):
        orig_add(task)
        events.append(("add", -1, task.task_id))

    def choose(site_id):
        task = orig_choose(site_id)
        events.append(("choose", site_id, task.task_id))
        return task

    engine.watch_storage = watch_storage
    engine.add_task = add_task
    engine.choose = choose


def record_run(job: Job, metric: str = "rest", n: int = 1, seed: int = 0,
               *, num_sites: int = 2, workers_per_site: int = 1,
               capacity_files: int = 100, speed_mflops: float = 1000.0,
               topology_seed: int = 1,
               initial_task_ids=None) -> List[Event]:
    """Simulate ``job`` under the worker-centric policy, logging deltas."""
    env = Environment()
    topology = generate_tiers(TiersParams(num_sites=num_sites),
                              seed=topology_seed)
    speeds = [[speed_mflops] * workers_per_site
              for _ in range(num_sites)]
    grid = Grid(env, topology, job, capacity_files, speeds)
    scheduler = WorkerCentricScheduler(
        job, metric=metric, n=n, rng=random.Random(seed),
        initial_task_ids=initial_task_ids)
    events: List[Event] = []
    instrument_engine(scheduler.engine, events)
    grid.attach_scheduler(scheduler)
    grid.run()
    return events


def recorded_decisions(events: List[Event]) -> List[Tuple[int, int]]:
    """The ``(site_id, task_id)`` decision sequence of a recording."""
    return [(site_id, value) for kind, site_id, value in events
            if kind == "choose"]


def replay_decisions(job, events: List[Event], metric: str = "rest",
                     n: int = 1, seed: int = 0,
                     engine: Optional[PolicyEngine] = None,
                     ) -> List[Tuple[int, int]]:
    """Drive a delta-fed engine through a recording; return its picks.

    The engine sees only what a live server would: registrations,
    arrivals and file deltas.  At each "choose" event it makes its own
    decision (the recording's choice is *not* consulted), so comparing
    the result against :func:`recorded_decisions` is a real test.
    """
    if engine is None:
        engine = PolicyEngine(job, metric=metric, n=n,
                              rng=random.Random(seed))
    decisions: List[Tuple[int, int]] = []
    for kind, site_id, value in events:
        if kind == "site":
            engine.attach_site(site_id)
        elif kind == "add":
            engine.add_task(job[value])
        elif kind == "insert":
            engine.file_added(site_id, value)
        elif kind == "evict":
            engine.file_removed(site_id, value)
        elif kind == "touch":
            engine.file_referenced(site_id, value)
        elif kind == "choose":
            task = engine.choose(site_id)
            decisions.append((site_id, task.task_id))
            engine.remove_task(task)
        else:
            raise ValueError(f"unknown recorded event kind {kind!r}")
    return decisions
