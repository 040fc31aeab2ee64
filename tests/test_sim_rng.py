"""Deterministic named RNG streams."""

from repro.sim import RngRegistry, derive_seed


def test_derive_seed_is_stable():
    assert derive_seed(42, "topology") == derive_seed(42, "topology")


def test_derive_seed_differs_by_name():
    assert derive_seed(42, "a") != derive_seed(42, "b")


def test_derive_seed_differs_by_master():
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_streams_are_reproducible():
    a = RngRegistry(7).stream("x")
    b = RngRegistry(7).stream("x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_streams_are_independent():
    registry = RngRegistry(7)
    first_alone = RngRegistry(7).stream("first").random()
    # Consuming another stream must not perturb "first".
    registry.stream("other").random()
    assert registry.stream("first").random() == first_alone


def test_stream_identity_is_cached():
    registry = RngRegistry(3)
    assert registry.stream("s") is registry.stream("s")
