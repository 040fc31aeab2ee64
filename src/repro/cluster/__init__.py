"""``repro.cluster``: a sharded, fault-tolerant scheduler tier.

N :class:`~repro.serve.service.SchedulerService` shard replicas
partition work by job (``job_id % N`` names the owning shard — shard
ids are allocated with that invariant, see the service's
``id_start``/``id_stride``), fronted by a lightweight asyncio
:class:`~repro.cluster.router.ClusterRouter` that forwards control
traffic to the owning shard, answers cluster-aware ``HELLO`` s with a
``REDIRECT`` shard map, and aggregates ``STATS`` across shards.

Each shard is durable: its schema-checked JSONL event log doubles as
a write-ahead log, periodic checksummed snapshots capture the full
scheduler state (:mod:`repro.cluster.snapshot`), and crash recovery
is *load latest snapshot + tail-replay of the WAL*
(:mod:`repro.cluster.shard`).  A supervisor
(:mod:`repro.cluster.supervisor`, ``repro cluster --shards N``)
spawns, monitors and restarts shard processes; the ordinary
:mod:`repro.serve.client` workers follow the router's ``REDIRECT``,
and mid-lease against a dead shard re-resolve it through the router
and resume, with exactly-once completion preserved by the lease
machinery.

See ``docs/cluster.md`` for topology, wire flow, the snapshot format
and the recovery procedure.
"""

from .. import _lazy_exports

_LAZY = {
    "ShardAddress": ("repro.cluster.link", "ShardAddress"),
    "ClusterRouter": ("repro.cluster.router", "ClusterRouter"),
    "ShardDurability": ("repro.cluster.shard", "ShardDurability"),
    "open_shard": ("repro.cluster.shard", "open_shard"),
    "SnapshotError": ("repro.cluster.snapshot", "SnapshotError"),
    "list_snapshots": ("repro.cluster.snapshot", "list_snapshots"),
    "load_latest_snapshot": ("repro.cluster.snapshot", "load_latest_snapshot"),
    "write_snapshot": ("repro.cluster.snapshot", "write_snapshot"),
    "aggregate_stats": ("repro.cluster.stats", "aggregate_stats"),
    "ClusterSupervisor": ("repro.cluster.supervisor", "ClusterSupervisor"),
}

__all__ = sorted(_LAZY)

__getattr__, __dir__ = _lazy_exports(globals())
