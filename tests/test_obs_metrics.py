"""The metrics core: counters, gauges, histograms, registry, labels.

Covers the O(1) ``bit_length`` bucket indexing against the old linear
loop (kept as ``reference_bucket_index``), label-family semantics and
the callback-gauge contract.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (Counter, Gauge, LatencyHistogram,
                               MetricsRegistry, reference_bucket_index)


# -- counter / gauge ---------------------------------------------------------

def test_counter_is_monotonic():
    counter = Counter()
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set_inc_dec():
    gauge = Gauge()
    gauge.set(4)
    gauge.inc()
    gauge.dec(2)
    assert gauge.value == 3.0


def test_callback_gauge_is_live_and_rejects_set():
    depth = [7]
    gauge = Gauge(callback=lambda: depth[0])
    assert gauge.value == 7.0
    depth[0] = 11
    assert gauge.value == 11.0
    with pytest.raises(RuntimeError):
        gauge.set(1)


# -- histogram bucket indexing -----------------------------------------------

def test_bucket_index_matches_linear_reference_on_edges():
    hist = LatencyHistogram(base_seconds=1e-6, num_buckets=36)
    probes = [0.0, 1e-9, 1e-6, 1.0000001e-6, 2e-6, 3e-6, 4e-6,
              4.0000001e-6, 1e-3, 1.0, 60.0, 1e9]
    for edge in hist._edges:
        probes += [edge, edge * 0.999999, edge * 1.000001]
    for seconds in probes:
        assert (hist.bucket_index(seconds)
                == reference_bucket_index(hist, seconds)), seconds


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_bucket_index_matches_linear_reference_everywhere(seconds):
    hist = LatencyHistogram(base_seconds=1e-6, num_buckets=36)
    assert (hist.bucket_index(seconds)
            == reference_bucket_index(hist, seconds))


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-9, max_value=1e6, allow_nan=False),
       st.integers(min_value=1, max_value=48))
def test_bucket_index_matches_reference_for_any_geometry(seconds,
                                                         num_buckets):
    hist = LatencyHistogram(base_seconds=3.7e-7, num_buckets=num_buckets)
    assert (hist.bucket_index(seconds)
            == reference_bucket_index(hist, seconds))


def test_bucket_index_is_log_not_linear():
    """A sample far past the top edge must not cost a 36-step walk —
    spot-check the value used by the overflow shortcut."""
    hist = LatencyHistogram(num_buckets=8)
    top = len(hist._counts) - 1
    assert hist.bucket_index(1e12) == top
    assert int(1e12 / hist._base) >= 1 << top


def test_histogram_cumulative_buckets_fold_overflow_into_inf():
    hist = LatencyHistogram(base_seconds=1e-6, num_buckets=4)
    hist.record(2e-6)   # bucket 1
    hist.record(1e3)    # overflow: capped top bucket
    buckets = hist.cumulative_buckets()
    # Finite edges only; the overflow sample appears in none of them.
    assert [count for _edge, count in buckets] == [0, 1, 1, 1]
    samples = list(hist.samples())
    inf_bucket = [value for suffix, labels, value in samples
                  if suffix == "_bucket" and labels == (("le", "+Inf"),)]
    assert inf_bucket == [2.0]
    assert ("_count", (), 2.0) in samples
    total = [value for suffix, _labels, value in samples
             if suffix == "_sum"][0]
    assert total == pytest.approx(2e-6 + 1e3)


def test_histogram_snapshot_shape_is_wire_compatible():
    hist = LatencyHistogram()
    hist.record(100e-6)
    snap = hist.snapshot()
    assert set(snap) == {"count", "mean_us", "p50_us", "p90_us",
                         "p99_us", "max_us"}
    assert snap["count"] == 1
    assert snap["mean_us"] == pytest.approx(100.0)


# -- registry + labels -------------------------------------------------------

def test_registry_returns_child_for_unlabeled_and_family_for_labeled():
    registry = MetricsRegistry()
    plain = registry.counter("repro_things_total", "things")
    plain.inc(3)
    labeled = registry.counter("repro_site_things_total", "per site",
                               labelnames=("site",))
    labeled.labels(site=1).inc()
    labeled.labels(site=1).inc()
    labeled.labels(site=0).inc()
    assert plain.value == 3
    assert labeled.labels(site=1).value == 2
    # Children iterate sorted by label-value tuple.
    assert [key for key, _child in labeled.children()] == [("0",), ("1",)]


def test_registry_rejects_duplicates_and_bad_names():
    registry = MetricsRegistry()
    registry.gauge("ok_name")
    with pytest.raises(ValueError):
        registry.counter("ok_name")
    with pytest.raises(ValueError):
        registry.counter("0bad")
    with pytest.raises(ValueError):
        registry.counter("x_total", labelnames=("0bad",))
    with pytest.raises(ValueError):
        registry.gauge("cb", labelnames=("a",), callback=lambda: 1)


def test_family_labels_must_match_declared_names():
    registry = MetricsRegistry()
    family = registry.counter("x_total", labelnames=("site", "kind"))
    with pytest.raises(ValueError):
        family.labels(site=1)
    with pytest.raises(ValueError):
        family.labels(site=1, kind="a", extra="b")
    assert family.labels(site=1, kind="a") is family.labels(
        kind="a", site=1)


def test_registry_collects_in_registration_order():
    registry = MetricsRegistry()
    registry.counter("b_total")
    registry.gauge("a")
    registry.histogram("c_seconds")
    assert [family.name for family in registry.collect()] == \
        ["b_total", "a", "c_seconds"]
    assert "a" in registry and "zzz" not in registry
    assert registry.get("a").kind == "gauge"


def test_histogram_rejects_bad_geometry():
    with pytest.raises(ValueError):
        LatencyHistogram(base_seconds=0.0)
    with pytest.raises(ValueError):
        LatencyHistogram(num_buckets=0)
    assert math.isfinite(LatencyHistogram().quantile(0.99))
