"""Experiment configuration.

:class:`ExperimentConfig` captures one simulated run of one scheduling
algorithm — the paper's Table 1 defaults are the field defaults:

===========================  =================
capacity of each data server 6000 files
number of workers per site   1
number of sites              10
file size                    25 MB
===========================  =================

Workload, topology shape, and mechanism toggles are all here so a
config is a complete, hashable description of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..grid.files import MB
from ..net.tiers import TiersParams
from ..workload.coadd import CoaddParams


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulation run.

    Attributes
    ----------
    scheduler:
        Registry name (see :mod:`repro.core.registry`), e.g.
        ``"combined.2"`` or ``"storage-affinity"``.
    workload:
        ``"coadd"`` (the paper's), ``"uniform"``, ``"zipf"`` or
        ``"window"``.
    task_order:
        Presentation order of the task queue: ``"shuffled"`` (default;
        see :mod:`repro.workload.ordering`), ``"natural"`` (sorted by
        stripe position) or ``"striped"``.
    num_tasks:
        Tasks in the job (the paper uses the first 6,000 of Coadd).
    num_sites / workers_per_site / capacity_files / file_size_mb:
        The four swept parameters (Table 1 defaults).
    seed:
        Master seed; workload, topology, speeds, and scheduler
        randomness all derive from it (plus ``topology_seed``).
    topology_seed:
        Extra seed for the topology/speeds draw, so the paper's
        "5 different topologies, results averaged" protocol is
        ``run_averaged(config, topology_seeds=range(5))``.
    flops_per_file:
        Compute cost per input file (workers' speeds come from the
        Top500 sampler).
    replicate_data:
        Enable the orthogonal proactive data-replication mechanism.
    worker_mtbf:
        When set, inject worker failures with this mean time between
        attempts (seconds); ``worker_repair_time`` is the downtime.
    background_load:
        Enable PlanetLab-style background CPU load: workers alternate
        free/loaded states (``load_fraction`` of time loaded, compute
        stretched by ``load_slowdown``, mean loaded dwell
        ``load_dwell`` seconds).
    cross_traffic:
        Inject Poisson background flows between site gateways (mean
        interarrival ``cross_traffic_interarrival`` seconds, mean size
        ``cross_traffic_mean_mb`` MB), squeezing the grid's transfers.
    keep_trace:
        Store full trace records (memory-heavy; per-record analysis).
    """

    scheduler: str = "combined.2"
    workload: str = "coadd"
    task_order: str = "shuffled"
    num_tasks: int = 6000
    num_sites: int = 10
    workers_per_site: int = 1
    capacity_files: int = 6000
    file_size_mb: float = 25.0
    seed: int = 0
    topology_seed: int = 0
    flops_per_file: float = 6.0e9
    replicate_data: bool = False
    replication_threshold: int = 3
    replication_max_replicas: int = 2
    worker_mtbf: Optional[float] = None
    worker_repair_time: float = 300.0
    data_server_parallelism: int = 1
    background_load: bool = False
    load_slowdown: float = 4.0
    load_fraction: float = 0.3
    load_dwell: float = 600.0
    cross_traffic: bool = False
    cross_traffic_interarrival: float = 60.0
    cross_traffic_mean_mb: float = 25.0
    keep_trace: bool = False
    tiers: Optional[TiersParams] = None

    def __post_init__(self):
        if self.num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        if self.num_sites < 1:
            raise ValueError("num_sites must be >= 1")
        if self.workers_per_site < 1:
            raise ValueError("workers_per_site must be >= 1")
        if self.capacity_files < 1:
            raise ValueError("capacity_files must be >= 1")
        if self.file_size_mb <= 0:
            raise ValueError("file_size_mb must be positive")
        if self.task_order not in ("natural", "shuffled", "striped"):
            raise ValueError(f"unknown task_order {self.task_order!r}")
        if self.data_server_parallelism < 1:
            raise ValueError("data_server_parallelism must be >= 1")
        if self.background_load:
            if self.load_slowdown <= 1.0:
                raise ValueError("load_slowdown must be > 1")
            if not 0.0 < self.load_fraction < 1.0:
                raise ValueError("load_fraction must be in (0, 1)")
        if self.cross_traffic:
            if self.cross_traffic_interarrival <= 0:
                raise ValueError(
                    "cross_traffic_interarrival must be positive")
            if self.cross_traffic_mean_mb <= 0:
                raise ValueError("cross_traffic_mean_mb must be positive")

    @property
    def file_size_bytes(self) -> float:
        return self.file_size_mb * MB

    def with_changes(self, **changes) -> "ExperimentConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)

    def tiers_params(self) -> TiersParams:
        """The topology generator parameters for this config."""
        if self.tiers is not None:
            if self.tiers.num_sites < self.num_sites:
                raise ValueError(
                    f"custom tiers has {self.tiers.num_sites} sites but "
                    f"config needs {self.num_sites}")
            return self.tiers
        return TiersParams(num_sites=self.num_sites)

    def coadd_params(self) -> CoaddParams:
        """Coadd generator parameters for this config's scale."""
        return CoaddParams(num_tasks=self.num_tasks,
                           file_size=self.file_size_bytes,
                           flops_per_file=self.flops_per_file)


@dataclass(frozen=True)
class Scale:
    """Sizing preset of the paper's evaluation (``repro reproduce``).

    * ``small`` — seconds per artifact; CI checks every claim at it.
    * ``bench`` — a 1/10-scale Coadd (600 tasks) with capacities and
      sweep ranges scaled to match; ~10 minutes for every artifact,
      and the scale of the archived ``benchmarks/results/*.txt``.
    * ``paper`` — the paper's full protocol (6,000 tasks, 5
      topologies); hours of wall time.

    Scaling keeps the *ratios* the paper's effects depend on —
    capacity versus total files, working-set size versus capacity — so
    the shapes (who wins, where curves flatten or cross) are preserved.
    """

    name: str
    num_tasks: int
    capacity_default: int
    capacities: Tuple[int, ...]        # Figure 4/5 sweep
    workers: Tuple[int, ...]           # Figure 6 sweep
    table3_workers: Tuple[int, ...]    # Table 3 rows
    sites: Tuple[int, ...]             # Figure 7 sweep
    file_sizes_mb: Tuple[float, ...]   # Figure 8 sweep
    topology_seeds: Tuple[int, ...]

    def base_config(self, **overrides) -> ExperimentConfig:
        defaults = dict(num_tasks=self.num_tasks,
                        capacity_files=self.capacity_default)
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def capacity_for(self, max_workers: int) -> int:
        """Capacity for runs with up to ``max_workers`` per site:
        concurrent pinned batches of up to ``max_workers + 1`` tasks
        must fit, or the run deadlocks by design (a single site's
        working set exceeding storage)."""
        return max(self.capacity_default, (max_workers + 1) * 130)


SMALL = Scale(
    name="small", num_tasks=120, capacity_default=400,
    capacities=(150, 400, 800), workers=(2, 3), table3_workers=(2, 3),
    sites=(3, 5), file_sizes_mb=(5.0, 25.0), topology_seeds=(0,),
)

BENCH = Scale(
    name="bench", num_tasks=600, capacity_default=600,
    capacities=(300, 600, 1500, 3000), workers=(2, 4, 6, 8, 10),
    table3_workers=(2, 4, 6, 8), sites=(10, 14, 18, 22, 26),
    file_sizes_mb=(5.0, 25.0, 50.0), topology_seeds=(0, 1),
)

PAPER = Scale(
    name="paper", num_tasks=6000, capacity_default=6000,
    capacities=(3000, 6000, 15000, 30000),
    workers=(2, 3, 4, 5, 6, 7, 8, 9, 10), table3_workers=(2, 4, 6, 8),
    sites=(10, 14, 18, 22, 26), file_sizes_mb=(5.0, 25.0, 50.0),
    topology_seeds=(0, 1, 2, 3, 4),
)

SCALES = {scale.name: scale for scale in (SMALL, BENCH, PAPER)}
