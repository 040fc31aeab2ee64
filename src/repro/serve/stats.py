"""Observability for the live scheduler, on the unified registry.

Every counter behind the ``STATS`` request now lives in a
:class:`~repro.obs.metrics.MetricsRegistry` (one scrape of
``/metrics`` sees exactly what ``STATS`` reports), but the *wire
shape* of the snapshot is unchanged — :meth:`ServeStats.snapshot`
builds the same plain dict as before, byte-compatible with protocol
v2.  The old attribute API (``stats.completions += 1``) keeps working
through properties that read and write the underlying metrics.

:class:`~repro.obs.metrics.LatencyHistogram` used to be defined here;
it is promoted to :mod:`repro.obs.metrics` (with O(1)
``int.bit_length()`` bucket indexing) and re-exported for
compatibility.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from ..obs.metrics import Counter, LatencyHistogram, MetricsRegistry

__all__ = ["LatencyHistogram", "ServeStats", "format_stats"]

#: ``ServeStats`` attribute -> (metric name, help).  One monotonic
#: counter each; the attribute names are the legacy public API.
_COUNTERS = {
    "jobs_submitted": ("repro_jobs_submitted_total",
                       "Jobs opened by JOB_SUBMIT"),
    "jobs_completed": ("repro_jobs_completed_total",
                       "Jobs whose every task completed"),
    "tasks_submitted": ("repro_tasks_submitted_total",
                        "Tasks accepted across all jobs"),
    "assignments": ("repro_assignments_total",
                    "Tasks handed to workers"),
    "completions": ("repro_completions_total",
                    "Completions accepted with a valid lease"),
    "duplicate_completions": ("repro_duplicate_completions_total",
                              "Completions for already-complete tasks"),
    "stale_completions": ("repro_stale_completions_total",
                          "Completions rejected for a stale lease"),
    "requeues": ("repro_requeues_total",
                 "Tasks returned to the pending set"),
    "leases_granted": ("repro_leases_granted_total",
                       "Leases granted (one per assignment)"),
    "lease_renewals": ("repro_lease_renewals_total",
                       "Lease renewals via HEARTBEAT"),
    "lease_expiries": ("repro_lease_expiries_total",
                       "Leases lapsed and swept"),
    "files_added": ("repro_files_added_total",
                    "File-delta insertions reported by workers"),
    "files_removed": ("repro_files_removed_total",
                      "File-delta evictions reported by workers"),
    "files_referenced": ("repro_files_referenced_total",
                         "File references reported by workers"),
    "batch_requests": ("repro_batch_requests_total",
                       "REQUEST_TASK pulls that carried max_tasks"),
    "batched_assignments": ("repro_batched_assignments_total",
                            "Tasks handed out inside TASK_BATCH replies"),
    "delta_duplicate_adds": ("repro_delta_duplicate_adds_total",
                             "FILE_DELTA adds that were already "
                             "resident (redundant wire traffic)"),
    "delta_duplicate_removes": ("repro_delta_duplicate_removes_total",
                                "FILE_DELTA removes that were already "
                                "gone (redundant wire traffic)"),
    "admission_rejections": ("repro_admission_rejections_total",
                             "JOB_SUBMITs rejected by the pending-"
                             "queue admission watermark"),
    "task_replications": ("repro_task_replications_total",
                          "Replica leases granted on straggling "
                          "tail tasks"),
    "replica_wins": ("repro_replica_wins_total",
                     "Completions that landed via a replica lease "
                     "(first-completion-wins)"),
    "tasks_stolen": ("repro_tasks_stolen_total",
                     "Tasks imported from a peer shard by work "
                     "stealing"),
    "tasks_exported": ("repro_tasks_exported_total",
                       "Tasks exported to a thief shard by work "
                       "stealing"),
}

#: ``bind_live`` keyword -> (gauge name, help).  Callback gauges over
#: live service state, so a scrape never reads a stale copy.
_LIVE_GAUGES = {
    "queue_depth": ("repro_queue_depth",
                    "Pending tasks in the scheduler queue"),
    "outstanding": ("repro_outstanding_tasks",
                    "Tasks assigned and not yet completed"),
    "parked_workers": ("repro_parked_workers",
                       "Worker pulls parked waiting for work"),
    "active_leases": ("repro_active_leases",
                      "Leases currently guarding assignments"),
    "jobs_active": ("repro_jobs_active",
                    "Jobs with incomplete tasks"),
    "draining": ("repro_draining",
                 "1 while the server is draining, else 0"),
}


def _counts(family, numeric: bool = False) -> Dict[str, int]:
    """``{label: count}`` of a one-label counter family, in label
    order — by value when the labels are numbers (job 10 after job 2)."""
    rows = [(labels[0], int(child.value))
            for labels, child in family.children()]
    if numeric:
        rows.sort(key=lambda row: int(row[0]))
    return dict(rows)


def _counter_property(attr: str) -> property:
    def getter(self: "ServeStats") -> int:
        return int(self._counters[attr].value)

    def setter(self: "ServeStats", value) -> None:
        # Legacy ``stats.completions += 1`` support: the augmented
        # assignment reads the property then writes the new total.
        counter = self._counters[attr]
        delta = float(value) - counter.value
        if delta < 0:
            raise ValueError(f"{attr} is monotonic; cannot go from "
                             f"{counter.value:g} to {value}")
        counter.inc(delta)

    return property(getter, setter)


class _SiteCounters:
    """Per-site metric children plus the derived hit-rate gauge."""

    __slots__ = ("assignment_counter", "hit_counter", "rate_gauge")

    def __init__(self, assignment_counter: Counter, hit_counter: Counter,
                 rate_gauge) -> None:
        self.assignment_counter = assignment_counter
        self.hit_counter = hit_counter
        self.rate_gauge = rate_gauge

    @property
    def assignments(self) -> int:
        return int(self.assignment_counter.value)

    @property
    def overlap_hits(self) -> int:
        return int(self.hit_counter.value)


class ServeStats:
    """All counters behind the ``STATS`` request, registry-backed."""

    def __init__(self, clock=time.monotonic,
                 registry: Optional[MetricsRegistry] = None):
        self._clock = clock
        self.started_at = clock()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        reg = self.registry
        reg.gauge("repro_uptime_seconds",
                  "Seconds since the stats epoch",
                  callback=lambda: self.uptime)
        self.decision_latency = reg.histogram(
            "repro_decision_latency_seconds",
            "Scheduling decision latency (PolicyEngine.choose)")
        #: The same decisions, labeled by scheduling metric, so the
        #: decision kernel's latency profile is visible per policy in
        #: ``/metrics`` and ``repro top`` (a daemon only runs one
        #: metric, but dashboards aggregating several daemons need the
        #: label to keep the series apart).
        self.scheduler_decision = reg.histogram(
            "repro_scheduler_decision_seconds",
            "Decision-kernel latency by scheduling metric",
            labelnames=("metric",))
        #: The write-path twin of the decision histograms: how long
        #: applying one ``FILE_DELTA`` to the overlap index took — one
        #: sample per report, however many ids it carried.
        self.file_delta = reg.histogram(
            "repro_file_delta_seconds",
            "FILE_DELTA application latency (one report, all its ids)")
        #: Which PolicyEngine kernel ranked each decision (``bucketed``
        #: / ``ordered`` / ``scored`` / ``reference``): the crossover
        #: between the refsum-order walk and the scan is chosen per
        #: decision from queue sizes, so only a count shows what a
        #: deployment actually runs.
        self._decisions_by_kernel = reg.counter(
            "repro_scheduler_decisions_by_kernel_total",
            "Scheduling decisions, by the kernel that ranked them",
            labelnames=("kernel",))
        self._counters: Dict[str, Counter] = {
            attr: reg.counter(name, help_text)
            for attr, (name, help_text) in _COUNTERS.items()}
        self._peak_queue_depth = reg.gauge(
            "repro_peak_queue_depth",
            "High-water mark of the pending queue")
        self._site_assignments = reg.counter(
            "repro_site_assignments_total",
            "Tasks assigned to workers of one site",
            labelnames=("site",))
        self._site_overlap_hits = reg.counter(
            "repro_site_overlap_hits_total",
            "Assignments with at least one input already resident",
            labelnames=("site",))
        self._site_hit_rate = reg.gauge(
            "repro_site_overlap_hit_rate",
            "overlap_hits / assignments per site",
            labelnames=("site",))
        self._sites: Dict[int, _SiteCounters] = {}
        #: Batch-size histogram: granted batch size -> request count.
        #: (Small closed domain — sizes are 1..k — so exact counts per
        #: size beat log-spaced latency buckets.)
        self._batch_size_counter = reg.counter(
            "repro_assignment_batch_size_total",
            "REQUEST_TASK batch pulls by granted batch size",
            labelnames=("size",))
        #: Per-tenant (per-job) assignment counter: which job each
        #: grant went to, so weighted-fair shares are observable.
        self._tenant_assignments = reg.counter(
            "repro_tenant_assignments_total",
            "Tasks assigned, by owning job (tenant)",
            labelnames=("job",))
        #: STEAL_REQUESTs answered by this shard (as the victim), by
        #: outcome: granted / empty / rejected / error.
        self._steal_requests = reg.counter(
            "repro_steal_requests_total",
            "STEAL_REQUESTs answered, by outcome",
            labelnames=("outcome",))

    # -- recording -------------------------------------------------------
    def record_queue_depth(self, depth: int) -> None:
        if depth > self.peak_queue_depth:
            self._peak_queue_depth.set(depth)

    def _site(self, site_id: int) -> _SiteCounters:
        site = self._sites.get(site_id)
        if site is None:
            label = str(site_id)
            site = self._sites[site_id] = _SiteCounters(
                self._site_assignments.labels(site=label),
                self._site_overlap_hits.labels(site=label),
                self._site_hit_rate.labels(site=label))
        return site

    def record_assignment(self, site_id: int, latency_s: float,
                          overlap_hit: bool,
                          metric: Optional[str] = None,
                          kernel: Optional[str] = None) -> None:
        self._counters["assignments"].inc()
        self.decision_latency.record(latency_s)
        if metric is not None:
            self.scheduler_decision.labels(metric=metric).record(
                latency_s)
        if kernel is not None:
            self._decisions_by_kernel.labels(kernel=kernel).inc()
        site = self._site(site_id)
        site.assignment_counter.inc()
        if overlap_hit:
            site.hit_counter.inc()
        site.rate_gauge.set(site.hit_counter.value
                            / site.assignment_counter.value)

    def record_tenant_assignment(self, job_id: int) -> None:
        """One grant charged to ``job_id``'s fair-share account."""
        self._tenant_assignments.labels(job=str(job_id)).inc()

    def record_steal_request(self, outcome: str) -> None:
        """One answered STEAL_REQUEST, by outcome."""
        self._steal_requests.labels(outcome=outcome).inc()

    def record_batch(self, granted: int) -> None:
        """One answered batched pull that granted ``granted`` tasks."""
        self._counters["batch_requests"].inc()
        self._counters["batched_assignments"].inc(granted)
        self._batch_size_counter.labels(size=str(granted)).inc()

    def record_delta(self, added: int, removed: int, referenced: int,
                     duplicate_adds: int = 0,
                     duplicate_removes: int = 0,
                     latency_s: Optional[float] = None) -> None:
        if latency_s is not None:
            self.file_delta.record(latency_s)
        self._counters["files_added"].inc(added)
        self._counters["files_removed"].inc(removed)
        self._counters["files_referenced"].inc(referenced)
        self._counters["delta_duplicate_adds"].inc(duplicate_adds)
        self._counters["delta_duplicate_removes"].inc(duplicate_removes)

    def bind_live(self, **callbacks: Callable[[], float]) -> None:
        """Register live callback gauges (queue depth, leases, ...).

        Keys must come from the fixed name table; the service calls
        this once with lambdas over its own properties, after which a
        ``/metrics`` scrape reads the *current* values with no
        snapshot copying.
        """
        for key, callback in callbacks.items():
            if key not in _LIVE_GAUGES:
                raise ValueError(f"unknown live gauge {key!r}; choose "
                                 f"from {sorted(_LIVE_GAUGES)}")
            name, help_text = _LIVE_GAUGES[key]
            self.registry.gauge(name, help_text, callback=callback)

    # -- reporting -------------------------------------------------------
    @property
    def uptime(self) -> float:
        return self._clock() - self.started_at

    @property
    def peak_queue_depth(self) -> int:
        return int(self._peak_queue_depth.value)

    @property
    def decisions_by_kernel(self) -> Dict[str, int]:
        """``{kernel: decisions}`` (Prometheus:
        ``repro_scheduler_decisions_by_kernel_total``)."""
        return _counts(self._decisions_by_kernel)

    def snapshot(self, queue_depth: int = 0, outstanding: int = 0,
                 parked_workers: int = 0,
                 draining: Optional[bool] = None,
                 active_leases: int = 0,
                 jobs_active: int = 0) -> Dict:
        uptime = max(self.uptime, 1e-9)
        sites = {
            str(site_id): {
                "assignments": counters.assignments,
                "overlap_hits": counters.overlap_hits,
                "overlap_hit_rate": (counters.overlap_hits
                                     / counters.assignments
                                     if counters.assignments else 0.0),
            }
            for site_id, counters in sorted(self._sites.items())
        }
        snap = {
            "uptime_s": uptime,
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "jobs_active": jobs_active,
            "tasks_submitted": self.tasks_submitted,
            "assignments": self.assignments,
            "assignments_per_sec": self.assignments / uptime,
            "completions": self.completions,
            "duplicate_completions": self.duplicate_completions,
            "stale_completions": self.stale_completions,
            "requeues": self.requeues,
            "leases": {
                "active": active_leases,
                "granted": self.leases_granted,
                "renewals": self.lease_renewals,
                "expiries": self.lease_expiries,
            },
            "queue_depth": queue_depth,
            "peak_queue_depth": self.peak_queue_depth,
            "outstanding": outstanding,
            "parked_workers": parked_workers,
            "decision_latency": self.decision_latency.snapshot(),
            "scheduler_decision": {
                labels[0]: child.snapshot()
                for labels, child in self.scheduler_decision.children()},
            "file_deltas": {
                "added": self.files_added,
                "removed": self.files_removed,
                "referenced": self.files_referenced,
            },
            "delta_dedup": {
                "duplicate_adds": self.delta_duplicate_adds,
                "duplicate_removes": self.delta_duplicate_removes,
            },
            "batches": {
                "requests": self.batch_requests,
                "tasks": self.batched_assignments,
                "sizes": _counts(self._batch_size_counter, numeric=True),
            },
            "admission": {
                "rejections": self.admission_rejections,
            },
            "replication": {
                "granted": self.task_replications,
                "replica_wins": self.replica_wins,
            },
            "steal": {
                "tasks_stolen": self.tasks_stolen,
                "tasks_exported": self.tasks_exported,
                "requests": _counts(self._steal_requests),
            },
            "tenants": _counts(self._tenant_assignments, numeric=True),
            "sites": sites,
        }
        if draining is not None:
            snap["draining"] = draining
        return snap


for _attr in _COUNTERS:
    setattr(ServeStats, _attr, _counter_property(_attr))
del _attr


def format_stats(snapshot: Dict) -> str:
    """Human-readable multi-line rendering of a stats snapshot."""
    latency = snapshot["decision_latency"]
    lines: List[str] = [
        f"uptime            : {snapshot['uptime_s']:.1f} s",
        f"jobs / tasks      : {snapshot['jobs_submitted']} / "
        f"{snapshot['tasks_submitted']}",
        f"assignments       : {snapshot['assignments']} "
        f"({snapshot['assignments_per_sec']:.1f}/s)",
        f"completions       : {snapshot['completions']} "
        f"(+{snapshot['duplicate_completions']} duplicate, "
        f"{snapshot['stale_completions']} stale, "
        f"{snapshot['requeues']} requeued)",
        f"leases            : {snapshot['leases']['active']} active, "
        f"{snapshot['leases']['granted']} granted, "
        f"{snapshot['leases']['renewals']} renewed, "
        f"{snapshot['leases']['expiries']} expired",
        f"queue depth       : {snapshot['queue_depth']} now, "
        f"{snapshot['peak_queue_depth']} peak, "
        f"{snapshot['outstanding']} outstanding, "
        f"{snapshot['parked_workers']} parked",
        f"decision latency  : p50 {latency['p50_us']:.0f} us, "
        f"p99 {latency['p99_us']:.0f} us, "
        f"max {latency['max_us']:.0f} us over {latency['count']}",
    ]
    admission = snapshot.get("admission", {})
    if admission.get("rejections"):
        lines.append(f"admission         : "
                     f"{admission['rejections']} submit(s) rejected "
                     f"over watermark")
    replication = snapshot.get("replication", {})
    if replication.get("granted"):
        lines.append(f"replication       : "
                     f"{replication['granted']} replica(s) granted, "
                     f"{replication['replica_wins']} won the race")
    steal = snapshot.get("steal", {})
    if steal.get("tasks_stolen") or steal.get("tasks_exported"):
        requests = ", ".join(f"{count} {outcome}" for outcome, count
                             in steal.get("requests", {}).items())
        lines.append(f"work stealing     : "
                     f"{steal['tasks_stolen']} stolen, "
                     f"{steal['tasks_exported']} exported"
                     + (f" ({requests})" if requests else ""))
    tenants = snapshot.get("tenants", {})
    if len(tenants) > 1:
        shares = ", ".join(f"job {job}: {count}"
                           for job, count in tenants.items())
        lines.append(f"tenant shares     : {shares}")
    for site_id, site in snapshot["sites"].items():
        lines.append(
            f"site {site_id:>3} overlap : "
            f"{site['overlap_hit_rate']:6.1%} "
            f"({site['overlap_hits']}/{site['assignments']})")
    return "\n".join(lines)
