"""One event-record format: any log a service wrote folds back.

There is no "WAL mode".  Whatever holds the :class:`EventLog` — a
``repro serve --event-log`` file, the log a scenario's servers share,
a durable shard's write-ahead log — the service writes the same
records into it, and ``replay_record`` rebuilds from them the state
that wrote them.
"""

import asyncio

import pytest

from repro.cluster.shard import open_shard, wal_files
from repro.obs.events import EventLog, iter_events
from repro.scenario import get_scenario, run_scenario
from repro.serve.service import SchedulerService

from test_cluster_state import FakeClock, functional_state

OPTIONS = dict(metric="combined", n=2, seed=9, lease_ttl=5.0,
               replicate_tail=True)
SPECS = [{"files": files, "flops": flops} for files, flops in (
    ([1, 2, 3], 1.0), ([3, 4], 2.0), ([5], 0.5), ([1, 5, 6], 3.0),
    ([2, 6], 1.0), ([4, 7], 0.0), ([7, 8], 1.5))]


def live_a_life(service, clock):
    """Submit / batched and single pulls / deltas / completions /
    a replica / an expiry / a disconnect / drain."""
    granted = []

    def deliver(answer):
        granted.extend(answer if isinstance(answer, list) else [answer])

    job = service.submit_job(SPECS[:5], weight=2.0)["job_id"]
    service.request_tasks("w0", 0, 3, deliver)
    service.file_delta(0, added=[1, 2, 3], removed=[], referenced=[1, 3])
    service.task_done("w0", granted[0].task.task_id, granted[0].lease_id)
    service.request_task("w1", 1, deliver, job_id=job)
    service.request_tasks("w1", 1, 2, deliver)
    service.file_delta(1, added=[5, 6], removed=[6], referenced=[5, 5])
    assert len(granted) == 5 and service.queue_depth == 0
    service.request_task("w2", 2, deliver)  # the tail: a replica
    assert len(granted) == 6
    service.task_done("w2", granted[5].task.task_id, granted[5].lease_id)
    service.submit_job(SPECS[5:], job_id=job)
    service.request_tasks("w2", 2, 8, deliver)
    clock.advance(6.0)
    assert service.expire_leases() > 0
    service.request_task("w3", 0, deliver)
    service.disconnect("w3")
    service.request_tasks("w0", 0, 2, deliver)
    for grant in granted[-2:]:
        service.task_done("w0", grant.task.task_id, grant.lease_id)
    service.drain()


def fold(paths):
    replayed = SchedulerService(clock=FakeClock(), **OPTIONS)
    for path in paths:
        for record in iter_events(path):
            replayed.replay_record(record)
    return replayed


def records_without_ts(paths):
    return [{key: value for key, value in record.items() if key != "ts"}
            for path in paths for record in iter_events(path)]


def test_a_plain_event_log_and_a_shard_wal_are_one_format(tmp_path):
    # What ``repro serve --event-log PATH`` builds ...
    path = str(tmp_path / "events.jsonl")
    clock = FakeClock()
    with EventLog(path=path) as events:
        plain = SchedulerService(clock=clock, events=events, **OPTIONS)
        live_a_life(plain, clock)
    kinds = {record["event"] for record in iter_events(path)}
    assert kinds >= {"submit", "assign", "complete", "delta",
                     "lease-expire", "requeue", "drain"}
    assert functional_state(fold([path])) == functional_state(plain)
    # ... and what ``--state-dir`` builds: the same records, flushed.
    state_dir = str(tmp_path / "shard-0")
    clock = FakeClock()
    durability = open_shard(state_dir, clock=clock, **OPTIONS)
    live_a_life(durability.service, clock)
    durability.events.close()
    assert records_without_ts(wal_files(state_dir)) \
        == records_without_ts([path])
    assert functional_state(fold(wal_files(state_dir))) \
        == functional_state(plain)


@pytest.mark.parametrize("name", ["stragglers", "multi-tenant",
                                  "skewed-tenants"])
def test_a_scenario_log_folds_to_the_run_it_recorded(tmp_path, name):
    """The log a scenario's servers share (one server, or — for
    ``skewed-tenants`` — four, whose fold is the union of their
    histories) replays to every tenant's job complete."""
    scenario = get_scenario(name)
    summary = asyncio.run(run_scenario(scenario, str(tmp_path),
                                       quick=True))
    assert summary["passed"], summary["checks"]
    replayed = SchedulerService(metric=scenario.metric, n=scenario.n)
    for record in iter_events(str(tmp_path / name / "events.jsonl")):
        replayed.replay_record(record)
    assert replayed.draining
    assert {row["job_id"]: row for row in replayed.jobs_overview()} == {
        tenant["job_id"]: {
            "job_id": tenant["job_id"], "tasks": tenant["submitted"],
            "completed": tenant["completed"], "pending": 0,
            "outstanding": 0, "done": True}
        for tenant in summary["tenants"].values()}
