"""TraceBus and the per-site service summaries."""

import pytest

from repro.analysis import TaskCompleted, TaskStarted, TraceBus
from repro.analysis.metrics import aggregate_sites, summarize_sites
from repro.grid.data_server import DataServerStats


def test_bus_stores_and_counts():
    bus = TraceBus()
    bus.emit(TaskCompleted(time=1.0, task_id=0, worker="w", site=0))
    bus.emit(TaskCompleted(time=2.0, task_id=1, worker="w", site=0))
    assert bus.count(TaskCompleted) == 2
    assert len(bus.of_type(TaskCompleted)) == 2
    assert bus.count(TaskStarted) == 0


def test_bus_without_keep_only_counts():
    bus = TraceBus(keep=False)
    bus.emit(TaskCompleted(time=1.0, task_id=0, worker="w", site=0))
    assert bus.records == []
    assert bus.count(TaskCompleted) == 1


def test_bus_listeners_fire_even_without_keep():
    bus = TraceBus(keep=False)
    seen = []
    bus.subscribe(TaskCompleted, seen.append)
    record = TaskCompleted(time=1.0, task_id=0, worker="w", site=0)
    bus.emit(record)
    assert seen == [record]


def test_listener_type_filtering():
    bus = TraceBus()
    completed, started = [], []
    bus.subscribe(TaskCompleted, completed.append)
    bus.subscribe(TaskStarted, started.append)
    bus.emit(TaskStarted(time=0.0, task_id=0, worker="w", site=0))
    assert len(started) == 1 and completed == []


def make_stats(served, wait, xfer, transfers):
    return DataServerStats(requests_served=served,
                           total_waiting_time=wait,
                           total_transfer_time=xfer,
                           total_transfers=transfers)


def test_summarize_sites():
    summaries = summarize_sites([make_stats(2, 10.0, 20.0, 6),
                                 make_stats(0, 0.0, 0.0, 0)])
    assert summaries[0].avg_waiting_time == pytest.approx(5.0)
    assert summaries[0].avg_transfers == pytest.approx(3.0)
    assert summaries[1].avg_waiting_time == 0.0
    assert summaries[0].avg_waiting_hours == pytest.approx(5.0 / 3600)


def test_aggregate_sites_weighted():
    pooled = aggregate_sites([make_stats(1, 10.0, 10.0, 2),
                              make_stats(3, 10.0, 30.0, 10)])
    assert pooled.requests == 4
    assert pooled.avg_waiting_time == pytest.approx(5.0)
    assert pooled.avg_transfers == pytest.approx(3.0)


def test_aggregate_sites_empty():
    pooled = aggregate_sites([make_stats(0, 0, 0, 0)])
    assert pooled.requests == 0
    assert pooled.avg_waiting_time == 0.0
