"""One description per statistic: ``serve.stats.STATS``.

The ``STATS`` snapshot, ``/metrics``, the cluster merge and
``repro top`` all derive from the one table.  The fixed script below
touches every counter the service keeps; the values it must produce
were recorded by the implementation that kept a hand-written list per
view (``tests/data/stats_script_parent.json``), so the table is pinned
to change no key, no value and no family.
"""

import json
from pathlib import Path

import pytest

from repro.cluster.stats import aggregate_stats
from repro.obs.prometheus import parse, render
from repro.obs.top import render_cluster_top
from repro.serve.service import AdmissionRejected, SchedulerService
from repro.serve.stats import STATS, ServeStats

EXPECTED = json.loads(
    (Path(__file__).parent / "data" / "stats_script_parent.json")
    .read_text())

#: Depend on wall time, not on the script.
TIMED_KEYS = ("uptime_s", "assignments_per_sec")
NEW_KEYS = {"decisions_by_kernel", "file_delta_latency"}


class TickClock:
    """Advances 7 µs per reading, so every latency is deterministic."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 7e-6
        return self.now


def spec(*files):
    return {"files": list(files), "flops": 1.0}


def drive():
    """A job and a weighted job, an admission rejection, a steal
    export, k=1 and k=8 pulls at two sites, deltas with duplicates, a
    duplicate and a stale completion, renewals, lease expiries, a
    replica grant that wins, and steal requests answered empty and
    rejected."""
    clock = TickClock()
    service = SchedulerService(
        metric="combined", n=2, seed=3, clock=clock, lease_ttl=10.0,
        admission_watermark=40, replicate_tail=True, steal_watermark=2)
    service.submit_job([spec(1, 2), spec(2, 3), spec(3, 4),
                        spec(4, 5), spec(5, 6), spec(6, 7)])
    service.submit_job([spec(1, 3), spec(2, 4), spec(7, 8), spec(8, 9)],
                       weight=2.0)
    with pytest.raises(AdmissionRejected):
        service.submit_job([spec(1)] * 40)
    export = service.export_steal_batch("thief", 2, [
        {"site": 0, "files": [1, 2, 3], "refs": [2, 1, 1]}])
    service.steal_export_acked(0)
    box = []
    service.request_task("w0", 0, box.append)
    service.request_tasks("w1", 1, 8, box.append)
    service.file_delta(0, [1, 2], [], [1, 2])
    service.file_delta(0, [1, 3], [2], [1, 3])
    service.file_delta(1, [4], [9], [4])
    single, batch = box
    assert service.task_done("w0", single.task.task_id,
                             single.lease_id).accepted
    service.task_done("w0", single.task.task_id, single.lease_id)
    service.task_done("w1", batch[0].task.task_id, 10_000)
    service.heartbeat("w1")
    for grant in batch[:3]:
        service.task_done("w1", grant.task.task_id, grant.lease_id)
    clock.now += 20.0
    service.expire_leases()
    more = []
    service.request_tasks("w2", 0, 8, more.append)
    service.request_task("w3", 1, more.append)
    replica = more[-1][0] if isinstance(more[-1], list) else more[-1]
    service.task_done("w3", replica.task.task_id, replica.lease_id)
    for grant in more[0]:
        service.task_done("w2", grant.task.task_id, grant.lease_id)
    service.export_steal_batch("thief", 2, [])
    service.steal_done([task["task_id"] for task in export["tasks"]],
                       "thief-w")
    service.drain()
    service.export_steal_batch("thief", 2, [])
    return service


def exposition(stats):
    """``{family: {type, help, labels, samples}}`` as the data file
    holds it (uptime's sample depends on wall time)."""
    scraped = parse(render(stats.registry))
    families = {}
    for family in stats.registry.collect():
        samples = ([] if family.name == "repro_uptime_seconds" else
                   sorted([sample, sorted(labels.items()), value]
                          for sample, labels, value
                          in scraped[family.name].samples))
        families[family.name] = {
            "type": family.kind, "help": family.help,
            "labels": list(family.labelnames),
            "samples": json.loads(json.dumps(samples))}
    return families


@pytest.fixture(scope="module")
def driven():
    service = drive()
    return service, service.stats_snapshot()


def test_script_stats_match_the_recorded_values(driven):
    _service, snap = driven
    expected = EXPECTED["stats"]
    assert {key: snap[key] for key in expected} == expected
    assert set(snap) - set(expected) == NEW_KEYS | set(TIMED_KEYS)
    assert snap["file_delta_latency"]["count"] == 3
    assert sum(snap["decisions_by_kernel"].values()) == \
        snap["assignments"]


def test_script_metrics_match_the_recorded_families(driven):
    service, _snap = driven
    assert exposition(service.stats) == EXPECTED["metrics"]


def test_fresh_service_registers_the_recorded_families():
    fresh = exposition(SchedulerService().stats)
    assert {name: (family["type"], family["help"], family["labels"])
            for name, family in fresh.items()} == {
        name: (family["type"], family["help"], family["labels"])
        for name, family in EXPECTED["metrics"].items()}


def test_one_decision_histogram_under_two_families(driven):
    """A daemon runs one metric, so its decisions are recorded once
    and both families expose that one histogram."""
    service, snap = driven
    by_metric = service.stats.registry.get(
        "repro_scheduler_decision_seconds")
    [(labels, child)] = by_metric.children()
    assert labels == ("combined",)
    assert child is service.stats.metrics["decision_latency"]
    assert snap["scheduler_decision"] == {
        "combined": snap["decision_latency"]}


def leaves(tree, prefix=()):
    for key, value in tree.items():
        if isinstance(value, dict) and value:
            yield from leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


def row_for(path):
    """The rows whose path matches ``path`` (``*`` = any label)."""
    return [stat for stat in STATS
            if len(stat.keys) == len(path)
            and all(want in ("*", key)
                    for want, key in zip(stat.keys, path))]


def test_every_snapshot_leaf_has_exactly_one_row(driven):
    _service, snap = driven
    covered = set()
    for path in leaves(snap):
        # A latency summary is one row's value, not a row per field.
        summary = path[:-1] if path[-1].endswith("_us") \
            or path[-1] == "count" else path
        rows = row_for(path) or row_for(summary)
        assert len(rows) == 1, (path, rows)
        covered.add(rows[0].name)
    assert covered == {stat.name for stat in STATS}


def test_counters_are_bumped_not_assigned():
    stats = ServeStats()
    stats.metrics["completions"].inc(2)
    assert stats.completions == 2
    with pytest.raises(AttributeError):
        stats.completions += 1


def test_cluster_top_shows_delta_latency_and_summed_kernels():
    """Both statistics ride STATS, so the router's aggregate — built
    from STATS alone — carries them to ``repro top``."""
    snapshots = []
    for kernels in ({"bucketed": 3, "scored": 1}, {"scored": 2}):
        stats = ServeStats()
        for kernel, count in kernels.items():
            for _ in range(count):
                stats.record_assignment(0, 5e-6, True, kernel=kernel)
        stats.record_delta(1, 0, 1, latency_s=40e-6)
        snapshots.append(stats.snapshot())
    merged = aggregate_stats(list(enumerate(snapshots)))
    assert merged["decisions_by_kernel"] == {"bucketed": 3, "scored": 3}
    assert merged["file_delta_latency"]["count"] == 2
    text = render_cluster_top([("a:1", snapshots[0]),
                               ("b:2", snapshots[1])])
    assert "delta     : p50" in text and "(2 file deltas)" in text
    assert "kernels   : 3 bucketed, 3 scored" in text
