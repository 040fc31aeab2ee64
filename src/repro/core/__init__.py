"""Scheduling policies: the paper's contribution plus baselines.

* :class:`WorkerCentricScheduler` — the basic algorithm (Figure 2) with
  the overlap / rest / combined metrics and ChooseTask(n).
* :class:`StorageAffinityScheduler` — the task-centric baseline with
  data reuse and task replication.
* :class:`WorkqueueScheduler` — FIFO / random data-blind baselines.
* :class:`DataReplicator` — orthogonal proactive data replication.
* :class:`OverlapIndex` — incremental overlap/reference bookkeeping.
* :func:`create_scheduler` — name-based factory ("combined.2", ...).
"""

from .. import _lazy_exports

_LAZY = {
    "BaseScheduler": ("repro.core.base", "BaseScheduler"),
    "METRICS": ("repro.core.metrics", "METRICS"),
    "TaskView": ("repro.core.metrics", "TaskView"),
    "combined_literal_metric":
        ("repro.core.metrics", "combined_literal_metric"),
    "combined_metric": ("repro.core.metrics", "combined_metric"),
    "overlap_metric": ("repro.core.metrics", "overlap_metric"),
    "rest_metric": ("repro.core.metrics", "rest_metric"),
    "rest_weight": ("repro.core.metrics", "rest_weight"),
    "OverlapIndex": ("repro.core.overlap_index", "OverlapIndex"),
    "PolicyEngine": ("repro.core.policy_engine", "PolicyEngine"),
    "SiteFileState": ("repro.core.policy_engine", "SiteFileState"),
    "NaiveWorkerCentricScheduler":
        ("repro.core.reference", "NaiveWorkerCentricScheduler"),
    "PAPER_ALGORITHMS": ("repro.core.registry", "PAPER_ALGORITHMS"),
    "available_schedulers": ("repro.core.registry", "available_schedulers"),
    "create_scheduler": ("repro.core.registry", "create_scheduler"),
    "DataReplicator": ("repro.core.replication", "DataReplicator"),
    "SpatialClusteringScheduler":
        ("repro.core.spatial_clustering", "SpatialClusteringScheduler"),
    "cluster_tasks": ("repro.core.spatial_clustering", "cluster_tasks"),
    "StorageAffinityScheduler":
        ("repro.core.storage_affinity", "StorageAffinityScheduler"),
    "WorkerCentricScheduler":
        ("repro.core.worker_centric", "WorkerCentricScheduler"),
    "WorkqueueScheduler": ("repro.core.workqueue", "WorkqueueScheduler"),
    "XSufferageScheduler": ("repro.core.xsufferage", "XSufferageScheduler"),
}

__all__ = sorted(_LAZY)

__getattr__, __dir__ = _lazy_exports(globals())
