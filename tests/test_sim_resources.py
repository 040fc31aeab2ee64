"""Store contention semantics."""

import pytest

from repro.sim import Store


def test_store_put_then_get(env):
    store = Store(env)
    store.put("item")
    got = store.get()
    assert got.triggered and got.value == "item"


def test_store_get_blocks_until_put(env):
    store = Store(env)
    results = []

    def consumer(env):
        item = yield store.get()
        results.append((env.now, item))

    def producer(env):
        yield env.timeout(5.0)
        store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert results == [(5.0, "late")]


def test_store_fifo_order(env):
    store = Store(env)
    for i in range(3):
        store.put(i)
    assert [store.get().value for _ in range(3)] == [0, 1, 2]


def test_store_getters_served_in_order(env):
    store = Store(env)
    order = []

    def consumer(env, tag):
        item = yield store.get()
        order.append((tag, item))

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))

    def producer(env):
        yield env.timeout(1.0)
        store.put("x")
        store.put("y")

    env.process(producer(env))
    env.run()
    assert order == [("first", "x"), ("second", "y")]


def test_bounded_store_blocks_put(env):
    store = Store(env, capacity=1)
    first = store.put("a")
    second = store.put("b")
    assert first.triggered
    assert not second.triggered
    got = store.get()
    assert got.value == "a"
    assert second.triggered
    assert store.items == ("b",)


def test_store_capacity_validation(env):
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_len_and_items(env):
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.items == (1, 2)
