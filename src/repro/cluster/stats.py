"""Cluster-wide STATS aggregation.

:func:`aggregate_stats` merges per-shard ``stats_snapshot()`` dicts
into one cluster view with the *same top-level shape* as a single
shard's snapshot — ``repro top``, the Prometheus text renderer's JSON
sibling and every existing consumer read the totals unchanged — plus
two cluster-only keys:

* ``"cluster"``: ``{shard_count, shards_reporting}``.
* ``"shards"``: the raw per-shard snapshots keyed by shard index
  (``{"error": ...}`` for a shard that could not be reached), so a
  per-shard breakdown is one lookup away from the aggregate.

Counters and gauges sum; ``uptime_s`` is the oldest shard's;
per-site and per-tenant counters sum across shards that touched the
same site / job id.
Latency percentiles cannot be merged exactly from summaries, so the
aggregate reports the count-weighted mean of the shard percentiles —
an approximation, labeled as such below, good enough for dashboards
(``count``, ``mean_us`` and ``max_us`` merge exactly).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["aggregate_stats"]

#: Top-level scalar fields that sum across shards.
_SUM_FIELDS = ("jobs_submitted", "jobs_completed", "jobs_active",
               "tasks_submitted", "assignments", "assignments_per_sec",
               "completions", "duplicate_completions",
               "stale_completions", "requeues", "queue_depth",
               "peak_queue_depth", "outstanding", "parked_workers")

#: Nested blocks whose scalar counters sum across shards.
_SUM_BLOCKS = {
    "leases": ("active", "granted", "renewals", "expiries"),
    "file_deltas": ("added", "removed", "referenced"),
    "delta_dedup": ("duplicate_adds", "duplicate_removes"),
    "batches": ("requests", "tasks"),
    "admission": ("rejections",),
    "replication": ("granted", "replica_wins"),
    "steal": ("tasks_stolen", "tasks_exported"),
}


def _by_int(item: Tuple[str, object]) -> int:
    return int(item[0])


def _sum_counts(maps: List[Dict[str, int]], key=None) -> Dict[str, int]:
    """Sum ``{label: count}`` maps label by label, sorted by label."""
    total: Dict[str, int] = {}
    for counts in maps:
        for label, count in counts.items():
            total[label] = total.get(label, 0) + count
    return dict(sorted(total.items(), key=key))


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
        for key in ("mean_us", "p50_us", "p90_us", "p99_us"):
            merged[key] += weight * summary.get(key, 0.0)
        merged["max_us"] = max(merged["max_us"],
                               summary.get("max_us", 0.0))
    return merged


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
    snaps = [snap for _index, snap in reporting]
    merged: Dict = {
        "uptime_s": max((s.get("uptime_s", 0.0) for s in snaps),
                        default=0.0)}
    for field in _SUM_FIELDS:
        merged[field] = sum(s.get(field, 0) for s in snaps)
    for block, fields in _SUM_BLOCKS.items():
        merged[block] = {
            field: sum(s.get(block, {}).get(field, 0) for s in snaps)
            for field in fields}
    merged["batches"]["sizes"] = _sum_counts(
        [s.get("batches", {}).get("sizes", {}) for s in snaps], _by_int)
    merged["steal"]["requests"] = _sum_counts(
        [s.get("steal", {}).get("requests", {}) for s in snaps])
    # A stolen task is assigned off its owner shard, so one job can
    # have counts on several shards.
    merged["tenants"] = _sum_counts(
        [s.get("tenants", {}) for s in snaps], _by_int)
    sites: Dict[str, Dict] = {}
    for snap in snaps:
        for site_id, site in snap.get("sites", {}).items():
            into = sites.setdefault(site_id, {"assignments": 0,
                                              "overlap_hits": 0})
            into["assignments"] += site.get("assignments", 0)
            into["overlap_hits"] += site.get("overlap_hits", 0)
    for site in sites.values():
        site["overlap_hit_rate"] = (site["overlap_hits"]
                                    / site["assignments"]
                                    if site["assignments"] else 0.0)
    merged["sites"] = dict(sorted(sites.items(), key=_by_int))
    merged["decision_latency"] = _merge_latency(
        [s.get("decision_latency", {}) for s in snaps])
    by_metric: Dict[str, List[Dict]] = {}
    for snap in snaps:
        for metric, summary in snap.get("scheduler_decision",
                                        {}).items():
            by_metric.setdefault(metric, []).append(summary)
    merged["scheduler_decision"] = {
        metric: _merge_latency(summaries)
        for metric, summaries in sorted(by_metric.items())}
    merged["draining"] = all(s.get("draining", False) for s in snaps) \
        if snaps else False
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
