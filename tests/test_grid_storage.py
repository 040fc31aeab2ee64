"""SiteStorage: LRU, pinning, reference counters, listeners."""

import pytest

from repro.grid import SiteStorage, StorageFullError


def test_insert_and_contains():
    storage = SiteStorage(3)
    storage.insert(1)
    assert 1 in storage
    assert 2 not in storage
    assert len(storage) == 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        SiteStorage(0)


def test_lru_eviction_order():
    storage = SiteStorage(2)
    storage.insert(1)
    storage.insert(2)
    evicted = storage.insert(3)
    assert evicted == 1
    assert storage.resident_files == (2, 3)
    assert storage.evictions == 1


def test_reinsert_refreshes_lru():
    storage = SiteStorage(2)
    storage.insert(1)
    storage.insert(2)
    storage.insert(1)  # refresh 1
    assert storage.insert(3) == 2


def test_touch_refreshes_lru_and_counts():
    storage = SiteStorage(2)
    storage.insert(1)
    storage.insert(2)
    storage.touch(1)
    assert storage.insert(3) == 2
    assert storage.reference_count(1) == 1
    assert storage.reference_count(2) == 0


def test_touch_nonresident_still_counts():
    storage = SiteStorage(2)
    storage.touch(9)
    assert storage.reference_count(9) == 1
    assert 9 not in storage


def test_reference_counts_survive_eviction():
    storage = SiteStorage(1)
    storage.insert(1)
    storage.touch(1)
    storage.insert(2)  # evicts 1
    assert 1 not in storage
    assert storage.reference_count(1) == 1


def test_pin_blocks_eviction():
    storage = SiteStorage(2)
    storage.insert(1)
    storage.insert(2)
    storage.pin(1)
    assert storage.insert(3) == 2  # 1 is protected despite being LRU
    storage.unpin(1)
    assert storage.insert(4) == 1


def test_pin_nonresident_raises():
    storage = SiteStorage(2)
    with pytest.raises(KeyError):
        storage.pin(5)


def test_unpin_without_pin_raises():
    storage = SiteStorage(2)
    storage.insert(1)
    with pytest.raises(RuntimeError):
        storage.unpin(1)


def test_pins_are_counted():
    storage = SiteStorage(1)
    storage.insert(1)
    storage.pin(1)
    storage.pin(1)
    storage.unpin(1)
    assert storage.is_pinned(1)
    storage.unpin(1)
    assert not storage.is_pinned(1)


def test_all_pinned_raises_storage_full():
    storage = SiteStorage(2)
    storage.insert(1)
    storage.insert(2)
    storage.pin(1)
    storage.pin(2)
    with pytest.raises(StorageFullError):
        storage.insert(3)


def test_eviction_skips_pinned_lru():
    storage = SiteStorage(3)
    for fid in (1, 2, 3):
        storage.insert(fid)
    storage.pin(1)
    storage.pin(2)
    assert storage.insert(4) == 3


def test_overlap_and_missing():
    storage = SiteStorage(5)
    for fid in (1, 2, 3):
        storage.insert(fid)
    assert storage.overlap({2, 3, 4}) == 2
    assert storage.missing([1, 4, 5]) == [4, 5]
    assert storage.free_slots == 2


def test_insert_listener_fires():
    storage = SiteStorage(2)
    seen = []
    storage.on_insert(seen.append)
    storage.insert(7)
    storage.insert(7)  # refresh: no second event
    assert seen == [7]


def test_evict_listener_fires():
    storage = SiteStorage(1)
    evicted = []
    storage.on_evict(evicted.append)
    storage.insert(1)
    storage.insert(2)
    assert evicted == [1]


def test_touch_listener_fires():
    storage = SiteStorage(1)
    touched = []
    storage.on_touch(touched.append)
    storage.insert(1)
    storage.touch(1)
    storage.touch(1)
    # One call per batch: a single touch is a batch of one.
    storage.touch(1, 7, 1)
    assert touched == [(1,), (1,), (1, 7, 1)]
    assert storage.reference_count(1) == 4
    assert storage.reference_count(7) == 1


def test_unpin_all():
    storage = SiteStorage(3)
    for fid in (1, 2):
        storage.insert(fid)
        storage.pin(fid)
    storage.unpin_all([1, 2])
    assert not storage.is_pinned(1) and not storage.is_pinned(2)
