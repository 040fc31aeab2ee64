"""Dependency-free metrics core: counters, gauges, histograms, registry.

The metrics layer of the live scheduler daemon (:mod:`repro.serve`)
and the cluster tier (:mod:`repro.cluster`).  Pure standard library,
O(1) per event, and
every metric is held behind a :class:`MetricsRegistry` so one walk of
the registry produces the Prometheus exposition
(:mod:`repro.obs.prometheus`) or a JSON snapshot.

Conventions follow Prometheus: counters are monotonically increasing
and end in ``_total``; gauges are set to the current value (or read a
``callback`` at collection time, for live values like queue depth);
histograms use geometric (power-of-two) buckets and expose
``_bucket``/``_sum``/``_count``.  Labels are declared per family and
children are cached per label-value tuple.
"""

from __future__ import annotations

import re
import threading
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

__all__ = ["Counter", "Gauge", "LatencyHistogram", "MetricFamily",
           "MetricsRegistry", "Sample"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: One exposition sample: (name suffix, ((label, value), ...), number).
Sample = Tuple[str, Tuple[Tuple[str, str], ...], float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> Iterator[Sample]:
        yield ("", (), self._value)


class Gauge:
    """A value that can go up and down, or be computed at collect time.

    A ``callback`` makes the gauge *live*: its value is whatever the
    callable returns when the registry is scraped — the natural shape
    for "current queue depth" style metrics that already exist as
    properties on some object.
    """

    __slots__ = ("_value", "_callback")

    def __init__(self, callback: Optional[Callable[[], float]] = None):
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        if self._callback is not None:
            raise RuntimeError("cannot set a callback-backed gauge")
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self._value - amount)

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        return self._value

    def samples(self) -> Iterator[Sample]:
        yield ("", (), self.value)


class LatencyHistogram:
    """Geometric buckets from ``base`` up, doubling; O(1) record.

    Bucket ``k`` holds samples in ``(base·2^(k-1), base·2^k]``; an
    underflow bucket catches anything ≤ base.  Quantiles return the
    upper edge of the containing bucket — a ≤2× overestimate, which is
    the right bias for latency reporting.

    ``record`` finds the bucket with ``int.bit_length()`` — the number
    of doublings needed is ``ceil(log2(seconds/base))`` — instead of a
    linear doubling loop, so it really is O(1) in the bucket count.
    """

    def __init__(self, base_seconds: float = 1e-6, num_buckets: int = 36):
        if base_seconds <= 0 or num_buckets < 1:
            raise ValueError("need base_seconds > 0 and num_buckets >= 1")
        self._base = base_seconds
        self._counts = [0] * (num_buckets + 1)  # [underflow, b1..bN]
        self._edges = [base_seconds * (2 ** k)
                       for k in range(num_buckets + 1)]
        self.count = 0
        self.max = 0.0
        self.total = 0.0

    def bucket_index(self, seconds: float) -> int:
        """Index of the bucket holding ``seconds``, in O(1).

        ``ceil(log2(ratio))`` for ``ratio = seconds/base > 1`` equals
        ``int(ratio).bit_length()`` (minus one when ratio is an exact
        integer power step); the two comparisons afterwards absorb any
        last-bit float rounding in the division so the answer is
        *defined* by the bucket edges, never by rounding luck.
        """
        top = len(self._counts) - 1
        ratio = seconds / self._base
        if ratio <= 1.0:
            return 0
        whole = int(ratio)
        if whole >= 1 << top:
            return top
        index = ((whole - 1).bit_length() if whole == ratio
                 else whole.bit_length())
        if index > top:
            return top
        edges = self._edges
        if index > 0 and seconds <= edges[index - 1]:
            index -= 1
        elif index < top and seconds > edges[index]:
            index += 1
        return index

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds
        self._counts[self.bucket_index(seconds)] += 1

    def quantile(self, q: float) -> float:
        """Upper bucket edge containing the q-quantile (0 if empty)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket in enumerate(self._counts):
            seen += bucket
            if seen >= target:
                return min(self._edges[index], self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_edge_seconds, cumulative_count)`` per finite bucket.

        The capped top bucket is folded into the implicit ``+Inf``
        bucket (= :attr:`count`) because samples above the last edge
        land there too — reporting them under a finite edge would lie.
        """
        out: List[Tuple[float, int]] = []
        seen = 0
        for index in range(len(self._counts) - 1):
            seen += self._counts[index]
            out.append((self._edges[index], seen))
        return out

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_us": self.mean * 1e6,
            "p50_us": self.quantile(0.50) * 1e6,
            "p90_us": self.quantile(0.90) * 1e6,
            "p99_us": self.quantile(0.99) * 1e6,
            "max_us": self.max * 1e6,
        }

    def samples(self) -> Iterator[Sample]:
        for edge, cumulative in self.cumulative_buckets():
            yield ("_bucket", (("le", _format_edge(edge)),),
                   float(cumulative))
        yield ("_bucket", (("le", "+Inf"),), float(self.count))
        yield ("_sum", (), self.total)
        yield ("_count", (), float(self.count))


def _format_edge(edge: float) -> str:
    """Shortest exact decimal for a bucket edge label."""
    if edge == int(edge) and abs(edge) < 1e15:
        return str(int(edge))
    return repr(edge)


class MetricFamily:
    """One named metric with fixed label names and cached children."""

    def __init__(self, name: str, kind: str, help_text: str,
                 labelnames: Sequence[str], factory: Callable[[], object]):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._factory = factory
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labelvalues: object):
        """The child for one label-value combination (created once)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}")
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._factory()
        return child

    def adopt(self, child, **labelvalues: object) -> None:
        """Expose an existing metric as the child for one label
        combination — one histogram shown under two families."""
        self._children[tuple(str(labelvalues[name])
                             for name in self.labelnames)] = child

    def children(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        yield from sorted(self._children.items())

    def samples(self) -> Iterator[Sample]:
        """Exposition samples, label values in declared-name order."""
        for key, child in self.children():
            base_labels = tuple(zip(self.labelnames, key))
            for suffix, extra_labels, value in child.samples():
                yield (suffix, base_labels + extra_labels, value)


class MetricsRegistry:
    """Ordered collection of metric families, shared by all exporters.

    ``counter``/``gauge``/``histogram`` register a family and — for
    the common unlabeled case — return its single child directly so
    call sites read ``self.assignments.inc()``.  Labeled declarations
    return the family; use ``family.labels(site=3)`` for children.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _register(self, family: MetricFamily) -> MetricFamily:
        with self._lock:
            if family.name in self._families:
                raise ValueError(
                    f"metric {family.name!r} already registered")
            self._families[family.name] = family
        return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()):
        family = self._register(MetricFamily(
            name, "counter", help_text, labelnames, Counter))
        return family if labelnames else family.labels()

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = (),
              callback: Optional[Callable[[], float]] = None):
        if callback is not None and labelnames:
            raise ValueError("callback gauges cannot be labeled")
        family = self._register(MetricFamily(
            name, "gauge", help_text, labelnames,
            lambda: Gauge(callback=callback)))
        return family if labelnames else family.labels()

    def histogram(self, name: str, help_text: str = "",
                  base_seconds: float = 1e-6, num_buckets: int = 36,
                  labelnames: Sequence[str] = ()):
        family = self._register(MetricFamily(
            name, "histogram", help_text, labelnames,
            lambda: LatencyHistogram(base_seconds=base_seconds,
                                     num_buckets=num_buckets)))
        return family if labelnames else family.labels()

    def get(self, name: str) -> MetricFamily:
        return self._families[name]

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def collect(self) -> Iterator[MetricFamily]:
        """Families in registration order (stable exposition output)."""
        yield from self._families.values()


def reference_bucket_index(histogram: LatencyHistogram,
                           seconds: float) -> int:
    """The pre-optimization linear doubling loop, kept as the oracle
    the micro-benchmark asserts :meth:`LatencyHistogram.bucket_index`
    against (see ``benchmarks/bench_kernel_micro.py``)."""
    index = 0
    edge = histogram._base
    while seconds > edge and index < len(histogram._counts) - 1:
        index += 1
        edge *= 2
    return index
