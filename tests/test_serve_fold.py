"""One fold: generated schedules against ``SchedulerService``'s WAL.

A hypothesis state machine drives one service through every
public state change — submits (new / extend / weighted), single and
batched pulls (scoped, unscoped, tail-replica grants), valid and stale
completions, heartbeats, lease expiry, disconnects, file deltas, drain,
and both halves of the steal exchange — and checks after every step
that

* a fresh service fed every record emitted so far has the live
  service's ``functional_state`` (the transitions replay applies are the
  ones the live path applied);
* ``import_state(snapshot taken at an earlier step)`` + the records
  since does too (what ``open_shard`` recovery does) — also after a
  crash-and-recover step has swapped the live service for a recovered
  one, so a second recovery folds the first one's aftermath;
* every known task is in exactly one of pending / leased / exported /
  completed (nothing lost, nothing held twice);
* the whole log re-decides in one call: a fresh service re-makes
  every pull of it, scoped, batched and weighted ones included, and
  ends on the live RNG (``SchedulerService.redecide``).  Each
  crash-and-recover step begins the next incarnation's records with
  the ``recovered`` record ``open_shard`` writes, from which the
  re-decision resumes the RNG recovery left.

The hand-written crash matrix in ``test_cluster_state.py`` and
``test_cluster_steal.py`` stays as named regressions.
"""

import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.obs.events import EventLog
from repro.obs.trace import DecisionTracer
from repro.serve.service import (Assignment, SchedulerService,
                                 ServiceError)

from test_cluster_state import FakeClock, functional_state

WORKERS = ["w0", "w1", "w2", "w3"]
THIEF = "steal/1"
ORIGIN = 1  # the peer shard this service steals from

file_ids = st.lists(st.integers(0, 7), min_size=1, max_size=3)
task_specs = st.lists(
    st.fixed_dictionaries({"files": file_ids,
                           "flops": st.sampled_from([0.0, 1.0, 2.5])}),
    min_size=1, max_size=3)


def make_service(clock, events=None):
    # Shard 0 of 2 with every optional part armed, so local ids are
    # even, stolen (foreign) ids odd, and tail pulls may replicate.
    # Traced, as a shard is: its assign records name the pull.
    return SchedulerService(metric="combined", n=2, seed=5, clock=clock,
                            lease_ttl=5.0, events=events,
                            tracer=DecisionTracer(),
                            id_start=0, id_stride=2,
                            replicate_tail=True, max_replicas=2,
                            steal_watermark=1)


def through_json(value):
    """What the WAL file / snapshot file would hand back."""
    return json.loads(json.dumps(value))


class ServiceFold(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = FakeClock()
        self.events = EventLog(ring_size=1 << 20)
        self.live = make_service(self.clock, self.events)
        self.granted = []        # every Assignment ever delivered
        self.exports = []        # grants from export_steal_batch
        self.imports = []        # export ids tentatively imported
        self.crashes = 0
        # (export_state(), records before it, crashes before it)
        self.snapshot = None
        self.foreign_task_id = 1

    # -- bookkeeping -----------------------------------------------------
    def deliver(self, answer):
        if isinstance(answer, Assignment):
            self.granted.append(answer)
        elif not isinstance(answer, str):  # a str is a NO_TASK reason
            self.granted.extend(answer)

    def local_jobs(self):
        return [row["job_id"] for row in self.live.jobs_overview()
                if row["job_id"] % 2 == 0]

    # -- job intake ------------------------------------------------------
    @rule(specs=task_specs, extend=st.booleans(),
          weight=st.sampled_from([None, None, 1.0, 3.0]),
          pick=st.integers(0, 99))
    def submit(self, specs, extend, weight, pick):
        jobs = self.local_jobs()
        job_id = jobs[pick % len(jobs)] if extend and jobs else None
        try:
            self.live.submit_job(specs, job_id=job_id, weight=weight)
        except ServiceError:
            assert self.live.draining

    # -- pulls -----------------------------------------------------------
    @rule(worker=st.sampled_from(WORKERS), site=st.integers(0, 2),
          scoped=st.booleans(), max_tasks=st.integers(0, 3),
          pick=st.integers(0, 99))
    def pull(self, worker, site, scoped, max_tasks, pick):
        jobs = [row["job_id"] for row in self.live.jobs_overview()]
        job_id = jobs[pick % len(jobs)] if scoped and jobs else None
        if max_tasks == 0:
            self.live.request_task(worker, site, self.deliver,
                                   job_id=job_id)
        else:
            self.live.request_tasks(worker, site, max_tasks,
                                    self.deliver, job_id=job_id)

    @precondition(lambda self: self.granted)
    @rule(pick=st.integers(0, 999), stale=st.booleans())
    def task_done(self, pick, stale):
        grant = self.granted[pick % len(self.granted)]
        lease_id = grant.lease_id + (1000 if stale else 0)
        result = self.live.task_done("w0", grant.task.task_id, lease_id)
        assert not (stale and result.accepted)

    @rule(worker=st.sampled_from(WORKERS))
    def heartbeat(self, worker):
        self.live.heartbeat(worker)

    @rule(seconds=st.sampled_from([1.0, 3.0, 6.0]))
    def advance_and_sweep(self, seconds):
        self.clock.advance(seconds)
        self.live.expire_leases()

    @rule(worker=st.sampled_from(WORKERS + [THIEF]))
    def disconnect(self, worker):
        self.live.disconnect(worker)

    @rule(site=st.integers(0, 2), added=file_ids, removed=file_ids,
          referenced=file_ids)
    def file_delta(self, site, added, removed, referenced):
        self.live.file_delta(site, added, removed, referenced)

    @rule(roll=st.integers(0, 11))
    def drain(self, roll):
        if roll == 0:  # rare: a drain ends most of the interesting life
            self.live.drain()

    # -- victim half of the steal exchange -------------------------------
    @rule(max_tasks=st.integers(1, 2))
    def steal_export(self, max_tasks):
        grant = self.live.export_steal_batch(THIEF, max_tasks, [])
        if grant is not None:
            self.exports.append(grant)

    @rule(pick=st.integers(0, 99))
    def steal_export_ack(self, pick):
        export_id = (self.exports[pick % len(self.exports)]["export_id"]
                     if self.exports and pick < 90 else 12345)
        self.live.steal_export_acked(export_id)

    @precondition(lambda self: self.exports)
    @rule(pick=st.integers(0, 99), count=st.integers(1, 2))
    def steal_done(self, pick, count):
        # Only what an honest thief could forward: tasks of an export
        # the victim acked (activation requires the acked answer).
        grant = self.exports[pick % len(self.exports)]
        if self.live.steal_export_acked(grant["export_id"]):
            self.live.steal_done(
                [spec["task_id"] for spec in grant["tasks"][:count]],
                THIEF)

    # -- thief half ------------------------------------------------------
    @rule(specs=task_specs, job_id=st.sampled_from([1, 3]))
    def steal_import(self, specs, job_id):
        stolen = []
        for spec in specs:
            stolen.append(dict(spec, task_id=self.foreign_task_id,
                               job_id=job_id))
            self.foreign_task_id += 2
        export_id = len(self.imports) + 1
        self.imports.append(export_id)
        self.live.steal_import_tentative(ORIGIN, export_id, stolen)

    @precondition(lambda self: self.imports)
    @rule(pick=st.integers(0, 99), commit=st.booleans())
    def steal_import_answer(self, pick, commit):
        export_id = self.imports[pick % len(self.imports)]
        if commit:
            self.live.steal_commit_import(ORIGIN, export_id)
        else:
            self.live.steal_abort_import(ORIGIN, export_id)

    @rule(count=st.integers(1, 3))
    def steal_forward(self, count):
        waiting = self.live.take_steal_completions().get(ORIGIN, [])
        self.live.steal_forwarded(ORIGIN, waiting[:count])

    # -- durability ------------------------------------------------------
    @rule()
    def take_snapshot(self):
        self.snapshot = (through_json(self.live.export_state()),
                         self.events.emitted, self.crashes)

    def fold(self, snapshot, records):
        """``import_state`` + ``replay_record``, as recovery does."""
        service = make_service(self.clock)
        if snapshot is not None:
            service.import_state(snapshot)
        for record in records:
            service.replay_record(record)
        # Attaching a site is not a logged transition (a parked pull
        # attaches one and writes nothing), and a site without file
        # state scores exactly like one attached later.
        for site_id in self.live.engine.site_ids:
            service.ensure_site(site_id)
        return service

    def check_recovery(self, snapshot, covered, crashes):
        tail = through_json(self.events.tail())[covered:]
        service = self.fold(snapshot, tail)
        if crashes == self.crashes:
            assert functional_state(service) \
                == functional_state(self.live)
            return
        # The records reach back past a crash.  Recovery reclaims
        # un-acked exports without writing a record, so they are still
        # un-acked in that stretch of log, under everything that
        # happened to their tasks since; the fold equals the live state
        # once both have reclaimed — what a crash right now would do.
        service.requeue_unacked_exports()
        survivor = self.fold(through_json(self.live.export_state()), [])
        survivor.requeue_unacked_exports()
        assert functional_state(service) == functional_state(survivor)

    @rule(use_snapshot=st.booleans())
    def crash_and_recover(self, use_snapshot):
        """kill -9, then what ``open_shard`` does: the snapshot if one
        was taken, the tail, ``requeue_unacked_exports``, and only then
        the log, which the new incarnation begins with its
        ``recovered`` record.  Later steps run against the recovered
        service."""
        snapshot, covered, _ = (
            self.snapshot if use_snapshot and self.snapshot
            else (None, 0, 0))
        service = self.fold(
            snapshot, through_json(self.events.tail())[covered:])
        service.requeue_unacked_exports()
        # All the crash may cost is the un-acked exports.
        self.live.requeue_unacked_exports()
        assert functional_state(service) == functional_state(self.live)
        service.events = self.events
        service.log_recovery(covered if snapshot is not None else None)
        self.live = service
        self.crashes += 1

    @invariant()
    def replay_of_the_whole_log_is_the_live_state(self):
        assert len(self.events.tail()) == self.events.emitted
        self.check_recovery(None, 0, 0)

    @invariant()
    def snapshot_plus_tail_is_the_live_state(self):
        if self.snapshot is not None:
            self.check_recovery(*self.snapshot)

    @invariant()
    def the_whole_log_redecides(self):
        service = make_service(FakeClock())
        assert service.redecide(through_json(self.events.tail())) == []
        assert service.engine.rng.getstate() \
            == self.live.engine.rng.getstate()

    @invariant()
    def every_task_is_in_exactly_one_place(self):
        state = self.live.export_state()
        known = {row[0] for row in state["tasks"]}
        places = [
            {tid for tid in known if self.live.engine.is_pending(tid)},
            {row[0] for row in state["assigned"]},
            set(state["completed"]),
            {tid for export in state.get("steal", {}).get("exports", [])
             for tid in export[4]}]
        assert sum(len(place) for place in places) == len(known)
        assert set().union(*places) == known
        assert sum(row["pending"]
                   for row in self.live.jobs_overview()) \
            == len(places[0])
        assert {row[0] for row in state.get("replicas", [])} \
            <= places[1]


ServiceFold.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestServiceFold = ServiceFold.TestCase


def test_a_log_names_each_pull_so_scoped_batched_weighted_ones_redecide():
    """Without ``scope`` and ``max_tasks`` these pulls re-decide as
    unscoped ones and choose other tasks; with them, all agree."""
    events = EventLog()
    live = make_service(FakeClock(), events)
    live.submit_job([{"files": [fid, fid + 1]} for fid in range(6)])
    live.submit_job([{"files": [fid, 9]} for fid in range(5)],
                    weight=3.0)
    live.file_delta(0, [1, 2, 9], [], [9])
    live.request_tasks("w0", 0, 3, lambda _grants: None, job_id=0)
    live.request_tasks("w1", 1, 2, lambda _grants: None)
    live.request_tasks("w0", 0, 2, lambda _grants: None, job_id=2)
    live.request_task("w2", 0, lambda _grant: None, job_id=0)
    records = through_json(events.tail())
    assert make_service(FakeClock()).redecide(records) == []
    unnamed = [{key: value for key, value in record.items()
                if key not in ("scope", "max_tasks")}
               for record in records]
    assert make_service(FakeClock()).redecide(unnamed) != []


def test_redecide_refuses_an_assign_that_lacks_a_field():
    records = [{"event": "submit", "job_id": 0, "tasks": 1,
                "task_ids": [0], "specs": [{"files": [1]}]},
               {"event": "assign", "task_id": 0, "worker": "w0"}]
    with pytest.raises(ServiceError, match="assign record lacks 'site'"):
        make_service(FakeClock()).redecide(records)
