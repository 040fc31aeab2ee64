"""Cluster-wide STATS aggregation.

:func:`aggregate_stats` merges per-shard ``stats_snapshot()`` dicts
into one cluster view with the *same shape* as a single shard's
snapshot — ``repro top`` and every other consumer read the totals
unchanged — by the merge rule each row of
:data:`repro.serve.stats.STATS` names, plus three cluster-only keys:

* ``"cluster"``: ``{shard_count, shards_reporting}``.
* ``"errors"``: per-shard fetch failures (``{}`` when all reported).
* ``"shards"``: the raw per-shard snapshots keyed by shard index
  (``{"error": ...}`` for a shard that could not be reached), so a
  per-shard breakdown is one lookup away from the aggregate.

Latency percentiles cannot be merged exactly from summaries, so the
aggregate reports the count-weighted mean of the shard percentiles —
an approximation, good enough for dashboards (``count``, ``mean_us``
and ``max_us`` merge exactly).  The aggregate of one shard is that
shard's snapshot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..serve.stats import (ALL, LABELS, LATENCY, MAX, RATIO, STATS, SUM,
                           get_path, put_path, put_ratio)

__all__ = ["aggregate_stats"]

_PERCENTILES = ("mean_us", "p50_us", "p90_us", "p99_us")


def _merge_latency(summaries: List[Dict]) -> Dict[str, float]:
    """Merge histogram summaries: exact where possible, count-weighted
    for percentiles (bucket counts are not on the wire)."""
    total = sum(s.get("count", 0) for s in summaries)
    merged: Dict[str, float] = {"count": total, "mean_us": 0.0,
                                "p50_us": 0.0, "p90_us": 0.0,
                                "p99_us": 0.0, "max_us": 0.0}
    if not total:
        return merged
    for summary in summaries:
        weight = summary.get("count", 0) / total
        for key in _PERCENTILES:
            merged[key] += weight * summary.get(key, 0.0)
        merged["max_us"] = max(merged["max_us"],
                               summary.get("max_us", 0.0))
    return merged


def _by_label(maps: List[Dict]) -> Dict[str, List]:
    """``{label: [value, ...]}`` over ``{label: value}`` maps."""
    grouped: Dict[str, List] = {}
    for values in maps:
        for label, value in values.items():
            grouped.setdefault(label, []).append(value)
    return grouped


_MERGES = {
    SUM: sum,
    MAX: lambda values: max(values, default=0.0),
    ALL: lambda values: bool(values) and all(values),
}


def aggregate_stats(per_shard: List[Tuple[int, Optional[Dict]]],
                    shard_count: Optional[int] = None,
                    errors: Optional[Dict[int, str]] = None) -> Dict:
    """Merge ``(shard_index, snapshot-or-None)`` pairs (None = shard
    unreachable) into one cluster-wide snapshot.

    ``errors`` carries the per-shard fetch failure detail for shards
    whose snapshot is None; it is surfaced verbatim under the
    top-level ``"errors"`` key (always present, ``{}`` when every
    shard reported) and inside the ``"shards"`` breakdown."""
    reporting = [(index, snap) for index, snap in per_shard
                 if snap is not None]
    merged: Dict = {}
    for stat in STATS:
        if stat.merge == RATIO:
            put_ratio(merged, stat)
            continue
        values = [get_path(snap, stat.keys, {} if stat.merge == LATENCY
                           else 0) for _index, snap in reporting]
        if stat.merge == LABELS:
            value = stat.ordered((label, sum(counts)) for label, counts
                                 in _by_label(values).items())
        elif stat.merge == LATENCY and stat.labels:
            value = stat.ordered(
                (label, _merge_latency(summaries)) for label, summaries
                in _by_label(values).items())
        elif stat.merge == LATENCY:
            value = _merge_latency(values)
        else:
            value = _MERGES[stat.merge](values)
        put_path(merged, stat.keys, value)
    merged["cluster"] = {
        "shard_count": (shard_count if shard_count is not None
                        else len(per_shard)),
        "shards_reporting": len(reporting),
    }
    errors = errors or {}
    merged["errors"] = {str(index): detail
                        for index, detail in sorted(errors.items())}
    merged["shards"] = {
        str(index): (snap if snap is not None
                     else {"error": errors.get(index,
                                               "shard unreachable")})
        for index, snap in per_shard}
    return merged
