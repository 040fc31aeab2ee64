"""``repro top``: a live one-screen summary of a running scheduler.

Polls the daemon's ``GET /stats.json`` (served by
:class:`~repro.obs.http.ObsHttpServer` when ``repro serve`` runs with
``--metrics-port``) and renders rates, decision-latency percentiles,
queue/lease state, per-site overlap hit rates, and per-job progress —
the terminal twin of a Grafana dashboard, with zero dependencies.

``render_top`` is a pure function of the snapshot dict so tests (and
anything else) can render without a socket — it is the one text view
of a ``STATS`` snapshot, also what ``repro serve`` prints at drain and
``repro load`` prints under "server stats:"; ``fetch_json``/``run_top``
add the polling loop — over one endpoint or several, merged into the
cluster view by ``render_cluster_top``.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["fetch_json", "render_cluster_top", "render_top",
           "run_top"]

_CLEAR = "\x1b[2J\x1b[H"


def fetch_json(url: str, timeout: float = 5.0) -> Dict:
    """GET ``url`` and decode its JSON body."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _bar(fraction: float, width: int = 20) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_top(snapshot: Dict) -> str:
    """The one-screen summary for one ``/stats.json`` payload."""
    latency = snapshot.get("decision_latency", {})
    leases = snapshot.get("leases", {})
    state = "DRAINING" if snapshot.get("draining") else "serving"
    lines: List[str] = [
        f"repro top — {state}, up {snapshot.get('uptime_s', 0.0):.1f} s",
        "",
        f"jobs      : {snapshot.get('jobs_active', 0)} active / "
        f"{snapshot.get('jobs_submitted', 0)} submitted / "
        f"{snapshot.get('jobs_completed', 0)} done",
        f"tasks     : {snapshot.get('tasks_submitted', 0)} submitted, "
        f"{snapshot.get('completions', 0)} done "
        f"(+{snapshot.get('duplicate_completions', 0)} duplicate, "
        f"{snapshot.get('stale_completions', 0)} stale), "
        f"{snapshot.get('queue_depth', 0)} queued "
        f"(peak {snapshot.get('peak_queue_depth', 0)}), "
        f"{snapshot.get('outstanding', 0)} running",
        f"assign    : {snapshot.get('assignments', 0)} total "
        f"({snapshot.get('assignments_per_sec', 0.0):.1f}/s), "
        f"{snapshot.get('requeues', 0)} requeued, "
        f"{snapshot.get('parked_workers', 0)} workers parked",
        f"leases    : {leases.get('active', 0)} active, "
        f"{leases.get('granted', 0)} granted, "
        f"{leases.get('renewals', 0)} renewed, "
        f"{leases.get('expiries', 0)} expired",
        f"decision  : p50 {latency.get('p50_us', 0.0):.0f} us   "
        f"p99 {latency.get('p99_us', 0.0):.0f} us   "
        f"max {latency.get('max_us', 0.0):.0f} us   "
        f"({latency.get('count', 0)} decisions)",
    ]
    for metric, hist in sorted(snapshot.get("scheduler_decision",
                                            {}).items()):
        lines.append(
            f"  kernel [{metric}]: p50 {hist.get('p50_us', 0.0):.0f} us"
            f"   p99 {hist.get('p99_us', 0.0):.0f} us   "
            f"mean {hist.get('mean_us', 0.0):.1f} us")
    kernels = snapshot.get("decisions_by_kernel", {})
    if kernels:
        lines.append("kernels   : " + ", ".join(
            f"{count} {kernel}" for kernel, count in kernels.items()))
    delta = snapshot.get("file_delta_latency", {})
    if delta.get("count"):
        lines.append(
            f"delta     : p50 {delta.get('p50_us', 0.0):.0f} us   "
            f"p99 {delta.get('p99_us', 0.0):.0f} us   "
            f"max {delta.get('max_us', 0.0):.0f} us   "
            f"({delta['count']} file deltas)")
    admission = snapshot.get("admission", {})
    if admission.get("rejections"):
        lines.append(f"admission : {admission['rejections']} "
                     f"submit(s) rejected over watermark")
    replication = snapshot.get("replication", {})
    if replication.get("granted"):
        lines.append(f"replicas  : {replication['granted']} granted, "
                     f"{replication.get('replica_wins', 0)} won "
                     f"the race")
    steal = snapshot.get("steal", {})
    if steal.get("tasks_stolen") or steal.get("tasks_exported"):
        outcomes = ", ".join(
            f"{count} {outcome}" for outcome, count
            in sorted(steal.get("requests", {}).items()))
        lines.append(f"stealing  : {steal.get('tasks_stolen', 0)} "
                     f"stolen, {steal.get('tasks_exported', 0)} "
                     f"exported"
                     + (f" ({outcomes})" if outcomes else ""))
    tenants = snapshot.get("tenants", {})
    if len(tenants) > 1:
        total = sum(tenants.values()) or 1
        shares = ", ".join(
            f"job {job}: {count} ({count / total:.0%})"
            for job, count in sorted(tenants.items(),
                                     key=lambda kv: int(kv[0])))
        lines.append(f"tenants   : {shares}")
    sites = snapshot.get("sites", {})
    if sites:
        lines.append("")
        lines.append("site  overlap hit rate")
        for site_id, site in sorted(sites.items(),
                                    key=lambda kv: int(kv[0])):
            rate = site.get("overlap_hit_rate", 0.0)
            lines.append(
                f" {site_id:>3}  [{_bar(rate)}] {rate:6.1%} "
                f"({site.get('overlap_hits', 0)}"
                f"/{site.get('assignments', 0)})")
    jobs = snapshot.get("jobs", [])
    if jobs:
        lines.append("")
        lines.append("job   progress")
        for job in jobs:
            total = max(job.get("tasks", 0), 1)
            done = job.get("completed", 0)
            flag = "done" if job.get("done") else (
                f"{job.get('outstanding', 0)} running")
            lines.append(
                f" {job.get('job_id', '?'):>3}  [{_bar(done / total)}] "
                f"{done}/{job.get('tasks', 0)} {flag}")
    return "\n".join(lines)


def _shard_row(label: str, snapshot: Optional[Dict]) -> str:
    if snapshot is None or "error" in (snapshot or {}):
        reason = (snapshot or {}).get("error", "unreachable")
        return f" {label:<28} {reason}"
    latency = snapshot.get("decision_latency", {})
    return (f" {label:<28} "
            f"{snapshot.get('assignments', 0):>7} "
            f"{snapshot.get('completions', 0):>7} "
            f"{snapshot.get('queue_depth', 0):>6} "
            f"{snapshot.get('outstanding', 0):>6} "
            f"{latency.get('p99_us', 0.0):>9.0f}")


def render_cluster_top(per_endpoint: List[Tuple[str, Optional[Dict]]],
                       ) -> str:
    """Multi-endpoint view: per-shard rows plus the aggregate.

    ``per_endpoint`` pairs a label (usually ``host:port``) with that
    endpoint's ``/stats.json`` payload, or None when the fetch
    failed.  A single endpoint whose payload already carries a
    ``shards`` breakdown (a cluster router's aggregated stats) is
    unpacked into per-shard rows instead of being treated as one
    shard.
    """
    from ..cluster.stats import aggregate_stats

    if (len(per_endpoint) == 1 and per_endpoint[0][1] is not None
            and "shards" in per_endpoint[0][1]):
        merged = per_endpoint[0][1]
        rows = [(f"shard {index}", snap) for index, snap
                in sorted(merged["shards"].items(),
                          key=lambda kv: int(kv[0]))]
    else:
        merged = aggregate_stats(
            [(index, snap) for index, (_label, snap)
             in enumerate(per_endpoint)])
        rows = [(label, snap) for label, snap in per_endpoint]
    cluster = merged.get("cluster", {})
    lines = [
        f"repro top — cluster: "
        f"{cluster.get('shards_reporting', 0)}"
        f"/{cluster.get('shard_count', len(rows))} shard(s) reporting",
        "",
        f" {'shard':<28} {'assign':>7} {'done':>7} {'queue':>6} "
        f"{'run':>6} {'p99(us)':>9}",
    ]
    lines.extend(_shard_row(label, snap) for label, snap in rows)
    fetch_errors = merged.get("errors", {})
    if fetch_errors:
        lines.append("")
        lines.append("shard fetch errors:")
        lines.extend(f"  shard {index}: {detail}"
                     for index, detail in sorted(
                         fetch_errors.items(),
                         key=lambda kv: int(kv[0])))
    lines.append("")
    lines.append(render_top(merged))
    return "\n".join(lines)


def run_top(urls: List[str], interval: float = 2.0,
            iterations: Optional[int] = None, clear: bool = True,
            out: Callable[[str], None] = print,
            fetch: Callable[[str], Dict] = fetch_json,
            sleep: Callable[[float], None] = time.sleep) -> int:
    """Poll the ``/stats.json`` endpoints and render until interrupted
    (or ``iterations``): a lone endpoint that is not an aggregate (no
    ``shards`` key) in the single-daemon view, anything else in the
    merged cluster view, where dead shards render as unreachable.

    Returns a process exit code: 0 on a clean stop, 1 when *no*
    endpoint answers on the very first poll (nothing is there).
    """
    shown = 0
    while iterations is None or shown < iterations:
        per_endpoint: List[Tuple[str, Optional[Dict]]] = []
        for url in urls:
            label = url.split("//", 1)[-1].rsplit("/", 1)[0]
            try:
                per_endpoint.append((label, fetch(url)))
            except (urllib.error.URLError, ConnectionError,
                    OSError) as exc:
                per_endpoint.append((label, None))
                out(f"repro top: cannot fetch {url}: {exc}")
        if all(snap is None for _label, snap in per_endpoint):
            return 1 if shown == 0 else 0
        if len(per_endpoint) == 1 and "shards" not in per_endpoint[0][1]:
            text = render_top(per_endpoint[0][1])
        else:
            text = render_cluster_top(per_endpoint)
        out(_CLEAR + text if clear else text)
        shown += 1
        if iterations is not None and shown >= iterations:
            break
        try:
            sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            break
    return 0
