"""Hostile-workload server features: admission control, weighted-fair
tenancy, straggler tail replication — plus the scenario harness that
drives them end to end."""

import asyncio
import json

import pytest

from repro.scenario import (Scenario, TenantSpec, WorkerGroup,
                            get_scenario, run_scenario, validate_summary)
from repro.scenario.catalog import SCENARIOS
from repro.scenario.summary import percentile
from repro.serve.service import (AdmissionRejected, SchedulerService,
                                 ServiceError)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_service(**kwargs):
    kwargs.setdefault("clock", FakeClock())
    return SchedulerService(**kwargs)


def submit(service, n_tasks, weight=None, first_file=0):
    return service.submit_job(
        [{"files": [first_file + i], "flops": 0.0}
         for i in range(n_tasks)], weight=weight)


def pull(service, worker="w0", site=0, job_id=None):
    box = []
    service.request_task(worker, site, box.append, job_id=job_id)
    return box[0] if box else "parked"


def finish(service, assignment, worker="w0"):
    return service.task_done(worker, assignment.task.task_id,
                             assignment.lease_id)


# -- admission control --------------------------------------------------------

def test_admission_rejects_over_watermark_then_accepts_after_drain():
    service = make_service(admission_watermark=2,
                           admission_retry_after=0.5)
    submit(service, 2)
    with pytest.raises(AdmissionRejected) as info:
        submit(service, 1, first_file=100)
    assert info.value.retry_after == 0.5
    assert service.stats.admission_rejections == 1
    # Draining one task below the watermark lets the retry through.
    finish(service, pull(service))
    accepted = submit(service, 1, first_file=100)
    assert len(accepted["task_ids"]) == 1


def test_admission_rejection_allocates_no_task_ids():
    service = make_service(admission_watermark=1)
    first = submit(service, 1)
    with pytest.raises(AdmissionRejected):
        submit(service, 1, first_file=10)
    finish(service, pull(service))
    second = submit(service, 1, first_file=10)
    # Ids stay contiguous: the rejected batch consumed nothing.
    assert second["task_ids"][0] == first["task_ids"][0] + 1


def test_admission_watermark_validation():
    with pytest.raises(ValueError):
        make_service(admission_watermark=0)
    with pytest.raises(ValueError):
        make_service(admission_watermark=5, admission_retry_after=-1.0)


# -- weighted-fair tenancy ----------------------------------------------------

def test_weighted_fair_pick_order_is_three_to_one():
    service = make_service()
    gold = submit(service, 12, weight=3.0)["job_id"]
    bronze = submit(service, 12, weight=1.0, first_file=100)["job_id"]
    owners = [pull(service, worker=f"w{i}", site=0).job_id
              for i in range(8)]
    assert owners.count(gold) == 6
    assert owners.count(bronze) == 2


def test_weightless_job_rides_along_at_weight_one():
    service = make_service()
    legacy = submit(service, 12)["job_id"]          # no weight at all
    heavy = submit(service, 12, weight=3.0,
                   first_file=100)["job_id"]
    owners = [pull(service, worker=f"w{i}", site=0).job_id
              for i in range(8)]
    assert owners.count(heavy) == 6
    assert owners.count(legacy) == 2


def test_scoped_pulls_ignore_weights():
    service = make_service()
    submit(service, 4, weight=5.0)
    other = submit(service, 4, weight=1.0, first_file=100)["job_id"]
    got = pull(service, job_id=other)
    assert got.job_id == other


def test_weight_must_be_positive():
    service = make_service()
    with pytest.raises(Exception):
        submit(service, 1, weight=0.0)
    with pytest.raises(Exception):
        submit(service, 1, weight=-2)


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_weight_must_be_finite(weight):
    """``nan <= 0`` is false: a range check alone let NaN in, every
    pass value then compared false against it and the lowest-id job
    took every pull until it drained."""
    service = make_service()
    submit(service, 4, weight=1.0)
    with pytest.raises(ServiceError, match="finite"):
        submit(service, 4, weight=weight, first_file=100)


# -- straggler tail replication ----------------------------------------------

def test_replica_first_completion_wins_without_double_count():
    service = make_service(replicate_tail=True)
    job_id = submit(service, 1)["job_id"]
    primary = pull(service, worker="w0")
    replica = pull(service, worker="w1")
    assert replica.task.task_id == primary.task.task_id
    assert replica.lease_id != primary.lease_id
    assert service.stats.task_replications == 1
    # The replica finishes first and wins the race...
    assert finish(service, replica, worker="w1").accepted
    assert service.stats.replica_wins == 1
    # ...so the primary's late report must not double-count.
    late = finish(service, primary, worker="w0")
    assert not late.accepted and late.reason == "already-complete"
    status = service.job_status(job_id)
    assert status["completed"] == 1 and status["done"]
    assert service.stats.completions == 1


def test_replica_grant_skips_own_worker_and_caps_copies():
    service = make_service(replicate_tail=True, max_replicas=1)
    submit(service, 1)
    assert pull(service, worker="w0") != "parked"
    # The primary holder never replicates its own task.
    assert pull(service, worker="w0") == "parked"
    assert pull(service, worker="w1") != "parked"
    # max_replicas=1: a third worker parks instead of a second copy.
    assert pull(service, worker="w2") == "parked"


def test_primary_expiry_promotes_replica_instead_of_requeueing():
    clock = FakeClock()
    service = make_service(clock=clock, lease_ttl=2.0,
                           replicate_tail=True)
    submit(service, 1)
    pull(service, worker="w0")
    replica = pull(service, worker="w1")
    clock.advance(1.0)
    service.heartbeat("w1")            # only the replica stays fresh
    clock.advance(1.5)                 # primary lapses at t=2.0
    assert service.expire_leases() == 1
    # The replica was promoted: nothing went back on the queue.
    assert service.queue_depth == 0
    assert service.stats.requeues == 0
    assert finish(service, replica, worker="w1").accepted


def test_replica_expiry_is_quiet():
    clock = FakeClock()
    service = make_service(clock=clock, lease_ttl=2.0,
                           replicate_tail=True)
    submit(service, 1)
    primary = pull(service, worker="w0")
    pull(service, worker="w1")
    clock.advance(1.0)
    service.heartbeat("w0")            # only the primary stays fresh
    clock.advance(1.5)
    assert service.expire_leases() == 1
    # The lapsed replica dropped silently; the primary still owns it.
    assert service.queue_depth == 0
    assert finish(service, primary, worker="w0").accepted


def test_disconnecting_primary_promotes_replica():
    service = make_service(replicate_tail=True)
    submit(service, 1)
    pull(service, worker="w0")
    replica = pull(service, worker="w1")
    assert service.disconnect("w0") == 0   # promoted, not requeued
    assert service.queue_depth == 0
    assert finish(service, replica, worker="w1").accepted
    assert service.stats.completions == 1


def test_replication_params_validated():
    with pytest.raises(ValueError):
        make_service(replicate_tail=True, max_replicas=0)


# -- scenario harness ---------------------------------------------------------

def test_catalog_scenarios_resolve_and_scale():
    assert set(SCENARIOS) >= {"flash-crowd", "diurnal", "churn",
                              "stragglers", "slow-reader",
                              "multi-tenant"}
    with pytest.raises(KeyError):
        get_scenario("nope")
    crowd = get_scenario("flash-crowd")
    quick = crowd.scaled(0.15)
    assert all(t.tasks >= 8 for t in quick.tenants)
    # The shrunk watermark must stay binding (below the total burst).
    assert quick.admission_watermark < sum(t.tasks
                                           for t in quick.tenants)
    assert crowd.scaled(1.0) is crowd


def test_percentile_linear_interpolation():
    sample = [0.0, 1.0, 2.0, 3.0]
    assert percentile(sample, 50) == 1.5
    assert percentile(sample, 100) == 3.0
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_validate_summary_flags_violations():
    assert validate_summary({"scenario": 3}) != []
    problems = validate_summary({
        "scenario": "x", "quick": False, "duration": 1.0,
        "tenants": {"t": {"submitted": 1, "completed": 1, "lost": 0,
                          "queue_wait": {"samples": 1, "p50": 0.0,
                                         "p99": 0.0, "max": 0.0},
                          "turnaround": {"samples": 1, "p50": 0.0,
                                         "p99": 0.0, "max": 0.0}}},
        "audit": {"tasks_submitted": 1, "completed": 1, "lost": 0,
                  "double_counted": 0, "clean": True},
        "checks": [{"name": "audit-clean", "passed": True,
                    "detail": "ok"}],
        "passed": True,
    })
    assert problems == []


def test_run_scenario_end_to_end(tmp_path):
    tiny = Scenario(
        name="tiny",
        description="smoke: two tenants, weighted, live daemon",
        tenants=(TenantSpec("gold", tasks=6, weight=3.0),
                 TenantSpec("bronze", tasks=6, weight=1.0)),
        workers=(WorkerGroup("fleet", count=2, sites=2,
                             flops_per_sec=1e9),),
        checks=("audit-clean", "all-jobs-complete"),
        timeout=30.0,
    )
    summary = asyncio.run(run_scenario(tiny, str(tmp_path)))
    assert summary["passed"], summary["checks"]
    assert validate_summary(summary) == []
    on_disk = json.loads(
        (tmp_path / "tiny" / "summary.json").read_text())
    assert on_disk["scenario"] == "tiny"
    assert on_disk["audit"]["clean"]
    assert set(on_disk["tenants"]) == {"gold", "bronze"}


def test_slow_readers_run_on_a_two_shard_scenario(tmp_path,
                                                  monkeypatch):
    """One body, N shards: the slow-reader shape used to be silently
    dropped as soon as a definition said ``shards=2``."""
    import dataclasses
    from repro.scenario import runner

    jammed = []
    real_slow_reader = runner._slow_reader

    async def recording_slow_reader(run, host, port, index):
        jammed.append(port)
        await real_slow_reader(run, host, port, index)

    monkeypatch.setattr(runner, "_slow_reader", recording_slow_reader)
    sharded = dataclasses.replace(
        get_scenario("slow-reader"), name="slow-reader-2", shards=2,
        tenants=(TenantSpec("steady", tasks=12),
                 TenantSpec("other", tasks=12)))
    summary = asyncio.run(run_scenario(sharded, str(tmp_path),
                                       quick=True))
    assert summary["passed"], summary["checks"]
    assert validate_summary(summary) == []
    stats = summary["stats"]
    assert stats["cluster"] == {"shard_count": 2, "shards_reporting": 2}
    # Three jammed sockets spread over both shards, each pipelining
    # 50 STATS nobody read; both tenants still finished.
    assert len(jammed) == 3 and len(set(jammed)) == 2
    assert summary["audit"]["clean"]
    assert {name: tenant["completed"]
            for name, tenant in summary["tenants"].items()} \
        == {name: tenant["submitted"]
            for name, tenant in summary["tenants"].items()}
