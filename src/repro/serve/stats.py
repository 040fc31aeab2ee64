"""The scheduler's statistics, described once.

:data:`STATS` has one :class:`Stat` row per entry of the ``STATS``
snapshot.  A row gives the entry's path in the snapshot dict, the
Prometheus family that exposes it (name, type, help, labels), where
its value comes from and how a cluster merges it across shards.
:class:`ServeStats` builds its registry — hence ``/metrics`` — and
its :meth:`~ServeStats.snapshot` by looping over the rows, and
:func:`repro.cluster.stats.aggregate_stats` merges shard snapshots by
the same rows, so a new statistic is one new row.

A path is dotted; ``*`` stands for the label value of a labelled
family (``sites.*.assignments`` puts ``repro_site_assignments_total
{site="3"}`` at ``snapshot["sites"]["3"]["assignments"]``).

Sources:

* ``count`` — a metric the service bumps through :attr:`ServeStats.
  metrics` (``stats.metrics["completions"].inc()``); the peak-queue
  gauge is set the same way.
* ``live`` — the attribute of that name on the object given to
  :meth:`ServeStats.bind_live` (the service), read at every snapshot
  and scrape, so neither ever holds a stale copy.
* ``clock`` — seconds since the stats epoch.
* ``labels`` — a one-label counter, ``{label: count}``.
* ``latency`` — a histogram summary (one per label when labelled).
* ``ratio`` — ``of[0] / of[1]`` of two sibling entries (0 when the
  denominator is 0).

Merges: ``sum``, ``max``, ``all``, ``labels`` (label-wise sum),
``latency`` (count-weighted, see :mod:`repro.cluster.stats`) and
``ratio`` (recomputed from the merged siblings).
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from ..obs.metrics import MetricsRegistry

__all__ = ["STATS", "ServeStats", "Stat", "get_path", "put_path",
           "put_ratio"]

COUNTER, GAUGE, HISTOGRAM = "counter", "gauge", "histogram"
COUNT, LIVE, CLOCK, LABELS, LATENCY, RATIO = (
    "count", "live", "clock", "labels", "latency", "ratio")
SUM, MAX, ALL = "sum", "max", "all"

#: Labels whose values are numbers: listed in numeric order (job 10
#: after job 2).
_NUMERIC_LABELS = frozenset({"site", "job", "size"})


class Stat(NamedTuple):
    """One statistic: where ``STATS`` puts it, what ``/metrics`` calls
    it, where its value comes from and how a cluster merges it."""

    #: Key in :attr:`ServeStats.metrics` (and ``stats.<name>``); a
    #: ``live`` row reads the bound object's attribute of this name.
    name: str
    path: str
    family: Optional[str]  # None: in ``STATS`` only
    kind: Optional[str]
    help: str
    source: str
    merge: str
    labels: Tuple[str, ...] = ()
    #: ``ratio`` rows: the sibling keys divided.
    of: Tuple[str, ...] = ()

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(self.path.split("."))

    def ordered(self, items) -> Dict:
        """``{label: value}`` in label order."""
        numeric = self.labels and self.labels[0] in _NUMERIC_LABELS
        return dict(sorted(items, key=(lambda item: int(item[0]))
                           if numeric else None))


STATS: Tuple[Stat, ...] = (
    Stat("uptime", "uptime_s", "repro_uptime_seconds", GAUGE,
         "Seconds since the stats epoch", CLOCK, MAX),
    Stat("jobs_submitted", "jobs_submitted",
         "repro_jobs_submitted_total", COUNTER,
         "Jobs opened by JOB_SUBMIT", COUNT, SUM),
    Stat("jobs_completed", "jobs_completed",
         "repro_jobs_completed_total", COUNTER,
         "Jobs whose every task completed", COUNT, SUM),
    Stat("jobs_active", "jobs_active", "repro_jobs_active", GAUGE,
         "Jobs with incomplete tasks", LIVE, SUM),
    Stat("tasks_submitted", "tasks_submitted",
         "repro_tasks_submitted_total", COUNTER,
         "Tasks accepted across all jobs", COUNT, SUM),
    Stat("assignments", "assignments", "repro_assignments_total",
         COUNTER, "Tasks handed to workers", COUNT, SUM),
    Stat("assignments_per_sec", "assignments_per_sec", None, None,
         "Assignments per second of uptime", RATIO, SUM,
         of=("assignments", "uptime_s")),
    Stat("completions", "completions", "repro_completions_total",
         COUNTER, "Completions accepted with a valid lease", COUNT,
         SUM),
    Stat("duplicate_completions", "duplicate_completions",
         "repro_duplicate_completions_total", COUNTER,
         "Completions for already-complete tasks", COUNT, SUM),
    Stat("stale_completions", "stale_completions",
         "repro_stale_completions_total", COUNTER,
         "Completions rejected for a stale lease", COUNT, SUM),
    Stat("requeues", "requeues", "repro_requeues_total", COUNTER,
         "Tasks returned to the pending set", COUNT, SUM),
    Stat("active_leases", "leases.active", "repro_active_leases",
         GAUGE, "Leases currently guarding assignments", LIVE, SUM),
    Stat("leases_granted", "leases.granted",
         "repro_leases_granted_total", COUNTER,
         "Leases granted (one per assignment)", COUNT, SUM),
    Stat("lease_renewals", "leases.renewals",
         "repro_lease_renewals_total", COUNTER,
         "Lease renewals via HEARTBEAT", COUNT, SUM),
    Stat("lease_expiries", "leases.expiries",
         "repro_lease_expiries_total", COUNTER,
         "Leases lapsed and swept", COUNT, SUM),
    Stat("queue_depth", "queue_depth", "repro_queue_depth", GAUGE,
         "Pending tasks in the scheduler queue", LIVE, SUM),
    Stat("peak_queue_depth", "peak_queue_depth",
         "repro_peak_queue_depth", GAUGE,
         "High-water mark of the pending queue", COUNT, SUM),
    Stat("outstanding", "outstanding", "repro_outstanding_tasks",
         GAUGE, "Tasks assigned and not yet completed", LIVE, SUM),
    Stat("parked_workers", "parked_workers", "repro_parked_workers",
         GAUGE, "Worker pulls parked waiting for work", LIVE, SUM),
    Stat("decision_latency", "decision_latency",
         "repro_decision_latency_seconds", HISTOGRAM,
         "Scheduling decision latency (PolicyEngine.choose)", LATENCY,
         LATENCY),
    # A daemon runs one metric: ``bind_live`` makes its child the
    # decision_latency histogram itself.  The label keeps the series
    # of several daemons apart on a dashboard.
    Stat("scheduler_decision", "scheduler_decision.*",
         "repro_scheduler_decision_seconds", HISTOGRAM,
         "Decision-kernel latency by scheduling metric", LATENCY,
         LATENCY, ("metric",)),
    # Which PolicyEngine kernel ranked each decision: the crossover
    # between the refsum-order walk and the scan is chosen per
    # decision from queue sizes, so only a count shows what runs.
    Stat("decisions_by_kernel", "decisions_by_kernel.*",
         "repro_scheduler_decisions_by_kernel_total", COUNTER,
         "Scheduling decisions, by the kernel that ranked them",
         LABELS, LABELS, ("kernel",)),
    # The write-path twin of the decision histogram: one sample per
    # FILE_DELTA, however many ids it carried.
    Stat("file_delta", "file_delta_latency", "repro_file_delta_seconds",
         HISTOGRAM,
         "FILE_DELTA application latency (one report, all its ids)",
         LATENCY, LATENCY),
    Stat("files_added", "file_deltas.added", "repro_files_added_total",
         COUNTER, "File-delta insertions reported by workers", COUNT,
         SUM),
    Stat("files_removed", "file_deltas.removed",
         "repro_files_removed_total", COUNTER,
         "File-delta evictions reported by workers", COUNT, SUM),
    Stat("files_referenced", "file_deltas.referenced",
         "repro_files_referenced_total", COUNTER,
         "File references reported by workers", COUNT, SUM),
    Stat("delta_duplicate_adds", "delta_dedup.duplicate_adds",
         "repro_delta_duplicate_adds_total", COUNTER,
         "FILE_DELTA adds that were already resident (redundant wire "
         "traffic)", COUNT, SUM),
    Stat("delta_duplicate_removes", "delta_dedup.duplicate_removes",
         "repro_delta_duplicate_removes_total", COUNTER,
         "FILE_DELTA removes that were already gone (redundant wire "
         "traffic)", COUNT, SUM),
    Stat("batch_requests", "batches.requests",
         "repro_batch_requests_total", COUNTER,
         "REQUEST_TASK pulls that carried max_tasks", COUNT, SUM),
    Stat("batched_assignments", "batches.tasks",
         "repro_batched_assignments_total", COUNTER,
         "Tasks handed out inside TASK_BATCH replies", COUNT, SUM),
    # Sizes are 1..k, a small closed domain: exact counts per size
    # beat log-spaced buckets.
    Stat("batch_sizes", "batches.sizes.*",
         "repro_assignment_batch_size_total", COUNTER,
         "REQUEST_TASK batch pulls by granted batch size", LABELS,
         LABELS, ("size",)),
    Stat("admission_rejections", "admission.rejections",
         "repro_admission_rejections_total", COUNTER,
         "JOB_SUBMITs rejected by the pending-queue admission "
         "watermark", COUNT, SUM),
    Stat("task_replications", "replication.granted",
         "repro_task_replications_total", COUNTER,
         "Replica leases granted on straggling tail tasks", COUNT, SUM),
    Stat("replica_wins", "replication.replica_wins",
         "repro_replica_wins_total", COUNTER,
         "Completions that landed via a replica lease "
         "(first-completion-wins)", COUNT, SUM),
    Stat("tasks_stolen", "steal.tasks_stolen", "repro_tasks_stolen_total",
         COUNTER, "Tasks imported from a peer shard by work stealing",
         COUNT, SUM),
    Stat("tasks_exported", "steal.tasks_exported",
         "repro_tasks_exported_total", COUNTER,
         "Tasks exported to a thief shard by work stealing", COUNT,
         SUM),
    # Answered as the victim: granted / empty / rejected / error.
    Stat("steal_requests", "steal.requests.*",
         "repro_steal_requests_total", COUNTER,
         "STEAL_REQUESTs answered, by outcome", LABELS, LABELS,
         ("outcome",)),
    # Which job each grant went to, so weighted-fair shares show; a
    # stolen task is assigned off its owner shard, so one job can
    # have counts on several shards.
    Stat("tenants", "tenants.*", "repro_tenant_assignments_total",
         COUNTER, "Tasks assigned, by owning job (tenant)", LABELS,
         LABELS, ("job",)),
    Stat("site_assignments", "sites.*.assignments",
         "repro_site_assignments_total", COUNTER,
         "Tasks assigned to workers of one site", LABELS, LABELS,
         ("site",)),
    Stat("site_overlap_hits", "sites.*.overlap_hits",
         "repro_site_overlap_hits_total", COUNTER,
         "Assignments with at least one input already resident",
         LABELS, LABELS, ("site",)),
    Stat("site_overlap_hit_rate", "sites.*.overlap_hit_rate",
         "repro_site_overlap_hit_rate", GAUGE,
         "overlap_hits / assignments per site", RATIO, RATIO,
         ("site",), of=("overlap_hits", "assignments")),
    Stat("draining", "draining", "repro_draining", GAUGE,
         "1 while the server is draining, else 0", LIVE, ALL),
)

_BY_NAME = {stat.name: stat for stat in STATS}


def get_path(snapshot: Dict, keys: Tuple[str, ...], default=0):
    """The value at ``keys``; at a ``*`` key, ``{label: value}`` over
    every label there."""
    for index, key in enumerate(keys):
        if key == "*":
            return {label: get_path(entry, keys[index + 1:], default)
                    for label, entry in snapshot.items()}
        snapshot = snapshot.get(key)
        if snapshot is None:
            return {} if "*" in keys else default
    return snapshot


def put_path(snapshot: Dict, keys: Tuple[str, ...], value) -> None:
    """Set ``value`` at ``keys``; at a ``*`` key ``value`` is
    ``{label: value}``, spread over the labels."""
    *parents, last = keys
    for index, key in enumerate(parents):
        if key == "*":
            for label, each in value.items():
                put_path(snapshot.setdefault(label, {}),
                         keys[index + 1:], each)
            return
        snapshot = snapshot.setdefault(key, {})
    if last == "*":
        snapshot.update(value)
    else:
        snapshot[last] = value


def walk_path(snapshot: Dict, keys: Tuple[str, ...]) -> Iterator[Dict]:
    """Every dict at ``keys``, a ``*`` key standing for each label."""
    if not keys:
        yield snapshot
    elif keys[0] == "*":
        for entry in snapshot.values():
            yield from walk_path(entry, keys[1:])
    elif keys[0] in snapshot:
        yield from walk_path(snapshot[keys[0]], keys[1:])


def put_ratio(snapshot: Dict, stat: Stat) -> None:
    """Fill a ``ratio`` row from its siblings, wherever they are."""
    numerator, denominator = stat.of
    for into in walk_path(snapshot, stat.keys[:-1]):
        den = into[denominator]
        into[stat.keys[-1]] = into[numerator] / den if den else 0.0


class ServeStats:
    """The metrics behind ``STATS`` and ``/metrics``: one per row of
    :data:`STATS`, registered in :attr:`registry`.

    The service bumps ``metrics[name]`` directly; ``stats.<name>``
    reads a row's current value (``stats.completions`` is an int).
    """

    __slots__ = ("_clock", "started_at", "registry", "metrics",
                 "_live", "_children", "_sites")

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self.started_at = clock()
        self.registry = MetricsRegistry()
        self.metrics: Dict[str, object] = {}
        self._live = None
        for stat in STATS:
            if stat.family is None:
                continue
            make = getattr(self.registry, stat.kind)
            if stat.source in (LIVE, CLOCK):
                self.metrics[stat.name] = make(
                    stat.family, stat.help,
                    callback=lambda stat=stat: self._value(stat))
            else:
                self.metrics[stat.name] = make(
                    stat.family, stat.help, labelnames=stat.labels)
        #: Labelled row name -> {raw label value -> child}: a bump
        #: pays one dict lookup, not a ``labels()`` call.
        self._children: Dict[str, Dict] = {
            stat.name: {} for stat in STATS if stat.labels}
        #: site id -> its (assignments, overlap hits, hit rate).
        self._sites: Dict[int, Tuple] = {}

    def bind_live(self, source, metric: Optional[str] = None) -> None:
        """Read the ``live`` rows off ``source`` from now on.

        ``metric`` is the one scheduling metric ``source`` runs: its
        ``scheduler_decision`` child is the ``decision_latency``
        histogram itself, so each decision is recorded once.
        """
        self._live = source
        if metric is not None:
            self.metrics["scheduler_decision"].adopt(
                self.metrics["decision_latency"], metric=metric)

    def __getattr__(self, name: str):
        stat = _BY_NAME.get(name)
        if stat is None or stat.source == RATIO:
            raise AttributeError(name)
        return self._value(stat)

    @property
    def uptime(self) -> float:
        """Seconds since the stats epoch (never 0: rates divide it)."""
        return max(self._clock() - self.started_at, 1e-9)

    # -- recording -------------------------------------------------------
    def _child(self, name: str, value):
        child = self._children[name].get(value)
        if child is None:
            family = self.metrics[name]
            child = self._children[name][value] = family.labels(
                **{family.labelnames[0]: value})
        return child

    def record_queue_depth(self, depth: int) -> None:
        peak = self.metrics["peak_queue_depth"]
        if depth > peak.value:
            peak.set(depth)

    def record_assignment(self, site_id: int, latency_s: float,
                          overlap_hit: bool,
                          kernel: Optional[str] = None) -> None:
        metrics = self.metrics
        metrics["assignments"].inc()
        metrics["decision_latency"].record(latency_s)
        if kernel is not None:
            self._child("decisions_by_kernel", kernel).inc()
        site = self._sites.get(site_id)
        if site is None:
            site = self._sites[site_id] = tuple(
                self._child(name, site_id) for name in (
                    "site_assignments", "site_overlap_hits",
                    "site_overlap_hit_rate"))
        assigned, hits, rate = site
        assigned.inc()
        if overlap_hit:
            hits.inc()
        rate.set(hits.value / assigned.value)

    def record_tenant_assignment(self, job_id: int) -> None:
        """One grant charged to ``job_id``'s fair-share account."""
        self._child("tenants", job_id).inc()

    def record_steal_request(self, outcome: str) -> None:
        """One answered STEAL_REQUEST, by outcome."""
        self._child("steal_requests", outcome).inc()

    def record_batch(self, granted: int) -> None:
        """One answered batched pull that granted ``granted`` tasks."""
        self.metrics["batch_requests"].inc()
        self.metrics["batched_assignments"].inc(granted)
        self._child("batch_sizes", granted).inc()

    def record_delta(self, added: int, removed: int, referenced: int,
                     duplicate_adds: int = 0,
                     duplicate_removes: int = 0,
                     latency_s: Optional[float] = None) -> None:
        metrics = self.metrics
        if latency_s is not None:
            metrics["file_delta"].record(latency_s)
        metrics["files_added"].inc(added)
        metrics["files_removed"].inc(removed)
        metrics["files_referenced"].inc(referenced)
        metrics["delta_duplicate_adds"].inc(duplicate_adds)
        metrics["delta_duplicate_removes"].inc(duplicate_removes)

    # -- reporting -------------------------------------------------------
    def _value(self, stat: Stat):
        if stat.source == LIVE:
            return getattr(self._live, stat.name, 0)
        if stat.source == CLOCK:
            return self.uptime
        metric = self.metrics[stat.name]
        if stat.source == COUNT:
            return int(metric.value)
        if not stat.labels:
            return metric.snapshot()
        return stat.ordered(
            (labels[0], child.snapshot() if stat.source == LATENCY
             else int(child.value))
            for labels, child in metric.children())

    def snapshot(self) -> Dict:
        """The ``STATS`` reply: every row at its path."""
        snap: Dict = {}
        for stat in STATS:
            if stat.source == RATIO:
                put_ratio(snap, stat)
            else:
                put_path(snap, stat.keys, self._value(stat))
        return snap
