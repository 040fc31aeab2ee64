"""Result archival (JSONL store)."""

import pytest

from repro.exp import ExperimentConfig, run_experiment
from repro.exp.store import (ResultRecord, ResultStore, result_from_dict,
                             result_to_dict)


@pytest.fixture(scope="module")
def small_result():
    return run_experiment(ExperimentConfig(
        scheduler="rest", num_tasks=25, num_sites=2, capacity_files=400))


def test_roundtrip_dict(small_result):
    record = result_from_dict(result_to_dict(small_result))
    assert record.makespan == small_result.makespan
    assert record.file_transfers == small_result.file_transfers
    assert record.config == small_result.config
    assert record.makespan_minutes == pytest.approx(
        small_result.makespan_minutes)


def test_roundtrip_preserves_tiers():
    from repro.net import TiersParams
    config = ExperimentConfig(num_tasks=10, num_sites=2,
                              tiers=TiersParams(num_sites=3))
    fake = ResultRecord(config=config, makespan=1.0, file_transfers=2,
                        bytes_transferred=3.0, tasks_cancelled=0,
                        evictions=0, data_replications=0,
                        worker_failures=0)
    clone = result_from_dict(result_to_dict(fake))
    assert clone.config.tiers == config.tiers


def test_bad_version_rejected(small_result):
    data = result_to_dict(small_result)
    data["version"] = 99
    with pytest.raises(ValueError):
        result_from_dict(data)


def test_store_append_and_load(tmp_path, small_result):
    store = ResultStore(tmp_path / "results.jsonl")
    store.append(small_result)
    store.append(small_result)
    records = store.load()
    assert len(records) == 2
    assert records[0].makespan == small_result.makespan


def test_store_load_missing_file(tmp_path):
    store = ResultStore(tmp_path / "nothing.jsonl")
    assert store.load() == []


def test_store_query(tmp_path, small_result):
    store = ResultStore(tmp_path / "results.jsonl")
    store.append(small_result)
    other = run_experiment(ExperimentConfig(
        scheduler="workqueue", num_tasks=25, num_sites=2,
        capacity_files=400))
    store.append(other)
    assert len(store.query(scheduler="rest")) == 1
    assert len(store.query(scheduler="workqueue")) == 1
    assert len(store.query(scheduler="rest", num_tasks=25)) == 1
    assert store.query(scheduler="rest", num_tasks=999) == []


def test_store_reappend_reloaded_record(tmp_path, small_result):
    """Reloaded records can be archived again (round-trip stability)."""
    store = ResultStore(tmp_path / "results.jsonl")
    store.append(small_result)
    record = store.load()[0]
    store.append(record)
    assert len(store.load()) == 2
