"""Scheduling semantics of the transport-agnostic SchedulerService."""

import pytest

from repro.core.policy_engine import PolicyEngine, SiteFileState
from repro.grid.job import Task
from repro.serve import protocol
from repro.serve.service import (Assignment, SchedulerService,
                                 ServiceError)


class FakeClock:
    """Manually-advanced monotonic clock for lease tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_service(**kwargs):
    kwargs.setdefault("clock", FakeClock())
    return SchedulerService(**kwargs)


def submit(service, specs, job_id=None):
    return service.submit_job([{"files": files, "flops": flops}
                               for files, flops in specs],
                              job_id=job_id)


def pull(service, worker="w0", site=0, job_id=None):
    """Synchronous request_task; returns the delivered Assignment or
    NO_TASK reason immediately, or the string "parked"."""
    box = []
    service.request_task(worker, site, box.append, job_id=job_id)
    return box[0] if box else "parked"


def finish(service, assignment, worker="w0"):
    return service.task_done(worker, assignment.task.task_id,
                             assignment.lease_id)


# -- engine deltas (sim-free path) -------------------------------------------

def test_site_file_state_mirrors_storage_semantics():
    state = SiteFileState()
    seen = []
    state.on_insert(lambda fid: seen.append(("+", fid)))
    state.on_evict(lambda fid: seen.append(("-", fid)))
    state.on_touch(lambda fids: seen.extend(("t", fid) for fid in fids))
    assert state.add(5) and not state.add(5)       # idempotent
    assert 5 in state and len(state) == 1
    assert state.reference(5) == 1
    assert state.reference(7) == 1                 # refs without residency
    assert state.remove(5) and not state.remove(5)
    assert state.reference_count(5) == 1           # refs survive removal
    assert state.overlap([5, 7]) == 0
    assert seen == [("+", 5), ("t", 5), ("t", 7), ("-", 5)]


def test_engine_deltas_steer_decisions():
    tasks = {0: Task(0, frozenset({1, 2, 3})),
             1: Task(1, frozenset({8, 9}))}
    engine = PolicyEngine(tasks, metric="rest", n=1)
    engine.attach_site(0)
    for task in tasks.values():
        engine.add_task(task)
    # Zero overlap everywhere: rest prefers the fewest-files task.
    assert engine.choose(0).task_id == 1
    # Make task 0 almost fully resident at site 0: it must win now.
    engine.file_added(0, 1)
    engine.file_added(0, 2)
    assert engine.choose(0).task_id == 0
    assert engine.overlap(0, 0) == 2
    # Removing the files flips the decision back.
    engine.file_removed(0, 1)
    engine.file_removed(0, 2)
    assert engine.choose(0).task_id == 1


def test_engine_choose_scoped_by_eligible_set():
    tasks = {0: Task(0, frozenset({1})), 1: Task(1, frozenset({2, 3}))}
    engine = PolicyEngine(tasks, metric="rest", n=1)
    engine.attach_site(0)
    for task in tasks.values():
        engine.add_task(task)
    # Unscoped, rest picks the one-file task; scoped to {1} it cannot.
    assert engine.choose(0).task_id == 0
    assert engine.choose(0, eligible={1}).task_id == 1
    # Scoping also restricts overlap candidates.
    engine.file_added(0, 1)
    assert engine.choose(0).task_id == 0
    assert engine.choose(0, eligible={1}).task_id == 1


# -- job intake --------------------------------------------------------------

def test_submit_assigns_global_ids_across_jobs():
    service = make_service()
    first = submit(service, [([1, 2], 0.0), ([3], 1.0)])
    second = submit(service, [([4], 0.0)])
    assert first == {"job_id": 0, "task_ids": [0, 1]}
    assert second == {"job_id": 1, "task_ids": [2]}
    assert service.queue_depth == 3
    assert service.job_status(0)["tasks"] == 2
    assert service.job_status(1)["tasks"] == 1


def test_submit_chunks_extend_one_job():
    service = make_service()
    first = submit(service, [([1], 0.0)])
    second = submit(service, [([2], 0.0), ([3], 0.0)],
                    job_id=first["job_id"])
    assert second["job_id"] == first["job_id"]
    assert service.job_status(first["job_id"])["tasks"] == 3
    assert service.stats.jobs_submitted == 1
    with pytest.raises(ServiceError):
        submit(service, [([9], 0.0)], job_id=42)


@pytest.mark.parametrize("payload", [
    None, [], [7], [{"files": []}], [{"files": [1, "x"]}],
    [{"files": [True]}],  # bools must not pass as file ids
    [{"files": [1], "flops": -2}],
])
def test_submit_rejects_bad_payloads(payload):
    with pytest.raises(ServiceError):
        make_service().submit_job(payload)


def test_rejected_submit_allocates_no_ids():
    """Validation precedes id allocation: a payload refused half way
    through (a good task, then a bad one) leaves the id counters, the
    queue and the submit counters where they were."""
    service = make_service()
    with pytest.raises(ServiceError):
        service.submit_job([{"files": [1, 2]}, {"files": []}])
    assert service.queue_depth == 0
    assert service.stats.jobs_submitted == 0
    assert submit(service, [([1], 0.0)]) == {"job_id": 0,
                                             "task_ids": [0]}


def test_job_status_unknown_job_rejected():
    with pytest.raises(ServiceError):
        make_service().job_status(0)


# -- pull / park / wake ------------------------------------------------------

def test_pull_assigns_lease_then_reports_done():
    service = make_service(metric="rest")
    submit(service, [([1], 0.0), ([2, 3], 0.0)])
    assignment = pull(service)
    assert isinstance(assignment, Assignment)
    assert assignment.task.task_id == 0  # rest: fewest files first
    assert assignment.job_id == 0
    assert assignment.lease_ttl == service.lease_ttl
    assert service.outstanding == 1
    assert service.active_leases == 1
    result = finish(service, assignment)
    assert result.accepted and result.reason is None
    assert service.stats.completions == 1
    assert service.active_leases == 0


def test_duplicate_completion_rejected_not_counted():
    service = make_service()
    submit(service, [([1], 0.0)])
    assignment = pull(service)
    assert finish(service, assignment).accepted
    again = finish(service, assignment)
    assert not again.accepted
    assert again.reason == "already-complete"
    assert service.stats.completions == 1
    assert service.stats.duplicate_completions == 1
    with pytest.raises(ServiceError):
        service.task_done("w0", 999, assignment.lease_id)


def test_worker_parks_before_any_job_and_wakes_on_submit():
    service = make_service()
    box = []
    service.request_task("w0", 0, box.append)
    assert box == []  # parked: no job yet
    submit(service, [([4], 0.0)])
    assert len(box) == 1 and box[0].task.task_id == 0


def test_parked_workers_wake_fifo_on_requeue():
    service = make_service()
    submit(service, [([1], 0.0)])
    assignment = pull(service, worker="lost")
    # Everything assigned: further pulls park (task may yet requeue).
    assert pull(service, worker="w1", site=0) == "parked"
    assert pull(service, worker="w2", site=0) == "parked"
    # The assignee dies; its task requeues to the first parked worker.
    assert service.disconnect("lost") == 1
    assert service.stats.requeues == 1
    assert service.outstanding == 1  # w1 holds it now
    stale = service.task_done("lost", assignment.task.task_id,
                              assignment.lease_id)
    assert not stale.accepted and stale.reason == "stale-lease"


def test_completion_releases_parked_workers_with_idle():
    service = make_service()
    submit(service, [([1], 0.0)])
    assignment = pull(service, worker="w0")
    box = []
    service.request_task("w1", 0, box.append)
    assert box == []
    finish(service, assignment)
    assert box == [protocol.REASON_IDLE]  # all submitted work done
    # And a fresh pull gets the same immediate answer.
    assert pull(service, worker="w2") == protocol.REASON_IDLE


def test_disconnect_of_clean_worker_changes_nothing():
    service = make_service()
    submit(service, [([1], 0.0)])
    assignment = pull(service, worker="w0")
    finish(service, assignment)
    assert service.disconnect("w0") == 0
    assert service.stats.requeues == 0


# -- leases ------------------------------------------------------------------

def test_lease_expires_requeues_and_zombie_done_is_rejected():
    clock = FakeClock()
    service = make_service(lease_ttl=10.0, clock=clock)
    submit(service, [([1], 0.0)])
    zombie = pull(service, worker="zombie")
    parked = []
    service.request_task("healthy", 0, parked.append)
    assert parked == []
    # Nothing expires while the lease is fresh.
    clock.advance(5.0)
    assert service.expire_leases() == 0
    # Past the TTL the sweeper requeues to the parked worker.
    clock.advance(6.0)
    assert service.expire_leases() == 1
    assert service.stats.lease_expiries == 1
    assert service.stats.requeues == 1
    assert service.outstanding == 1  # healthy holds a fresh lease
    # The zombie's late completion is rejected, stats untouched.
    late = finish(service, zombie, worker="zombie")
    assert not late.accepted and late.reason == "stale-lease"
    assert service.stats.completions == 0
    assert service.stats.stale_completions == 1
    # The healthy worker's completion is the one that counts, and the
    # zombie's even-later retry sees already-complete.
    [healthy] = parked  # the requeued task, under a fresh lease
    assert healthy.task.task_id == zombie.task.task_id
    result = service.task_done("healthy", zombie.task.task_id,
                               healthy.lease_id)
    assert result.accepted
    assert service.stats.completions == 1
    assert not finish(service, zombie, worker="zombie").accepted
    assert service.stats.completions == 1


def test_heartbeat_renews_lease_past_original_expiry():
    clock = FakeClock()
    service = make_service(lease_ttl=10.0, clock=clock)
    submit(service, [([1], 0.0)])
    assignment = pull(service, worker="w0")
    clock.advance(8.0)
    renewed, gone = service.heartbeat("w0", [assignment.lease_id])
    assert renewed == [assignment.lease_id] and gone == []
    # Original expiry (t=10) passes without incident...
    clock.advance(8.0)  # t=16, renewed lease expires at 18
    assert service.expire_leases() == 0
    assert finish(service, assignment).accepted
    assert service.stats.lease_renewals == 1


def test_heartbeat_without_ids_renews_all_and_reports_gone():
    clock = FakeClock()
    service = make_service(lease_ttl=10.0, clock=clock)
    submit(service, [([1], 0.0), ([2], 0.0)])
    first = pull(service, worker="w0")
    second = pull(service, worker="w0")
    clock.advance(5.0)
    renewed, gone = service.heartbeat("w0")  # all held leases
    assert sorted(renewed) == sorted([first.lease_id, second.lease_id])
    clock.advance(20.0)
    assert service.expire_leases() == 2
    renewed, gone = service.heartbeat("w0", [first.lease_id])
    assert renewed == [] and gone == [first.lease_id]


def test_expired_then_recompleted_task_counts_once():
    clock = FakeClock()
    service = make_service(lease_ttl=5.0, clock=clock)
    submit(service, [([1], 0.0)])
    old = pull(service, worker="w0")
    clock.advance(6.0)
    service.expire_leases()
    fresh = pull(service, worker="w1")
    assert fresh.task.task_id == old.task.task_id
    assert fresh.lease_id != old.lease_id
    assert finish(service, fresh, worker="w1").accepted
    assert not finish(service, old, worker="w0").accepted
    assert service.stats.completions == 1
    assert service.job_status(0)["done"]


# -- multi-job tenancy -------------------------------------------------------

def test_scoped_pull_draws_only_from_its_job():
    service = make_service(metric="rest")
    submit(service, [([1], 0.0)])                 # job 0: one-file task
    submit(service, [([2, 3], 0.0), ([4, 5, 6], 0.0)])  # job 1
    # Unscoped rest would pick job 0's one-file task; scoping to job 1
    # must not.
    assignment = pull(service, job_id=1)
    assert assignment.job_id == 1
    assert assignment.task.task_id == 1  # fewest files within job 1
    with pytest.raises(ServiceError):
        pull(service, job_id=7)


def test_no_task_reason_distinguishes_job_done_from_idle():
    service = make_service()
    submit(service, [([1], 0.0)])   # job 0
    submit(service, [([2], 0.0)])   # job 1
    a0 = pull(service, worker="w0", job_id=0)
    finish(service, a0)
    # Job 0 is done: its scoped pull says so even though job 1 is live.
    assert pull(service, worker="w0", job_id=0) \
        == protocol.REASON_JOB_DONE
    assert not service.is_idle
    # Unscoped pull still gets job 1's task; after it completes the
    # server is idle.
    a1 = pull(service, worker="w1")
    finish(service, a1, worker="w1")
    assert pull(service, worker="w1") == protocol.REASON_IDLE


def test_scoped_park_wakes_on_job_completion():
    service = make_service()
    submit(service, [([1], 0.0)])   # job 0
    submit(service, [([2], 0.0)])   # job 1 keeps the server non-idle
    a0 = pull(service, worker="w0", job_id=0)
    box = []
    service.request_task("w1", 0, box.append, job_id=0)
    assert box == []  # job 0 fully outstanding: parked
    finish(service, a0)
    assert box == [protocol.REASON_JOB_DONE]


def test_scoped_park_wakes_on_lease_expiry_requeue():
    clock = FakeClock()
    service = make_service(lease_ttl=5.0, clock=clock)
    submit(service, [([1], 0.0)])
    pull(service, worker="dead", job_id=0)
    box = []
    service.request_task("w1", 0, box.append, job_id=0)
    assert box == []
    clock.advance(6.0)
    service.expire_leases()
    assert len(box) == 1 and isinstance(box[0], Assignment)
    assert box[0].job_id == 0


def test_job_status_tracks_progress():
    service = make_service()
    submit(service, [([1], 0.0), ([2], 0.0)])
    assert service.job_status(0) == {
        "job_id": 0, "tasks": 2, "completed": 0, "pending": 2,
        "outstanding": 0, "done": False}
    assignment = pull(service)
    status = service.job_status(0)
    assert status["pending"] == 1 and status["outstanding"] == 1
    finish(service, assignment)
    status = service.job_status(0)
    assert status["completed"] == 1 and not status["done"]


# -- file deltas -------------------------------------------------------------

def test_file_delta_steers_assignment():
    service = make_service(metric="overlap")
    submit(service, [([1, 2], 0.0), ([8, 9], 0.0)])
    service.file_delta(3, added=[8, 9], removed=[], referenced=[8])
    assignment = pull(service, site=3)
    assert assignment.task.task_id == 1  # overlap follows residency
    snap = service.stats_snapshot()
    assert snap["sites"]["3"]["overlap_hits"] == 1
    assert snap["file_deltas"]["referenced"] == 1


# -- drain -------------------------------------------------------------------

def test_drain_releases_parked_and_rejects_new_jobs():
    service = make_service()
    drained = []
    service.on_drained = lambda: drained.append(True)
    submit(service, [([1], 0.0), ([2], 0.0)])
    assignment = pull(service, worker="w0")
    box = []
    service.drain()
    service.request_task("w1", 0, box.append)
    assert box == [protocol.REASON_DRAINING]  # no new assignments
    assert drained == []                      # one task outstanding
    with pytest.raises(ServiceError):
        submit(service, [([5], 0.0)])
    finish(service, assignment)
    assert drained == [True]       # last completion finishes the drain


def test_drain_when_idle_completes_immediately():
    service = make_service()
    drained = []
    service.on_drained = lambda: drained.append(True)
    service.drain()
    assert drained == [True]


def test_drained_worker_disconnect_completes_drain():
    service = make_service()
    drained = []
    service.on_drained = lambda: drained.append(True)
    submit(service, [([1], 0.0)])
    pull(service, worker="w0")
    service.drain()
    assert drained == []
    # The worker dies instead of completing: drain still finishes
    # (its task requeues but is never handed out).
    service.disconnect("w0")
    assert drained == [True]
    assert service.queue_depth == 1


def test_lease_expiry_during_drain_completes_drain():
    clock = FakeClock()
    service = make_service(lease_ttl=5.0, clock=clock)
    drained = []
    service.on_drained = lambda: drained.append(True)
    submit(service, [([1], 0.0)])
    pull(service, worker="w0")
    service.drain()
    assert drained == []
    clock.advance(6.0)
    service.expire_leases()
    assert drained == [True]


# -- observability -----------------------------------------------------------

def test_snapshot_exposes_lease_and_job_counters():
    clock = FakeClock()
    service = make_service(lease_ttl=5.0, clock=clock)
    submit(service, [([1], 0.0), ([2], 0.0)])
    assignment = pull(service)
    snap = service.stats_snapshot()
    assert snap["leases"] == {"active": 1, "granted": 1,
                              "renewals": 0, "expiries": 0}
    assert snap["jobs_active"] == 1
    finish(service, assignment)
    second = pull(service)
    finish(service, second)
    snap = service.stats_snapshot()
    assert snap["jobs_completed"] == 1
    assert snap["jobs_active"] == 0
