"""The paper's evaluation as data, and the one command that checks it.

:data:`ARTIFACTS` has one row per archived result,
``benchmarks/results/<name>.txt``: its title, the cells it runs (a
sweep described as data; Table 2, Table 3 and the campaign compute
their own), its renderer and its claims.  A claim is an id, the
sentence EXPERIMENTS.md quotes, and a predicate over the computed
data that carries its tolerance.

:func:`reproduce` — ``python -m repro reproduce`` — computes the
chosen artifacts at a :class:`~repro.exp.config.Scale`, prints each
one with a ``PASS``/``FAIL <claim-id>`` line per claim, and with
``out`` writes each ``<name>.txt`` as ``benchmarks/results/`` holds
it (at ``bench`` scale, byte for byte).  Its status is 1 when any
claim fails.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, NamedTuple, Optional,
                    Sequence, TextIO, Tuple, Union)

from ..analysis.metrics import aggregate_sites
from ..core.registry import PAPER_ALGORITHMS
from ..workload.coadd import COADD_6000, CoaddParams
from ..workload.coadd import generate as generate_coadd
from ..workload.campaign import coadd_campaign
from ..workload.stats import characterize, reference_cdf_series
from .campaign import run_campaign
from .config import ExperimentConfig, Scale
from .report import format_sweep_table, format_table3
from .runner import build_job, run_averaged
from .sweep import SweepResult, run_sweep

Progress = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class Cells:
    """A sweep as data: ``field`` over ``values`` for ``schedulers``.

    ``values`` names a :class:`Scale` attribute or lists the values
    outright.  The base config is the scale's with ``overrides``, and
    its capacity fits the most workers per site the cells run.
    """

    field: str
    values: Union[str, Tuple[object, ...]]
    schedulers: Tuple[str, ...] = PAPER_ALGORITHMS
    overrides: Tuple[Tuple[str, object], ...] = ()

    def run(self, scale: Scale, progress: Progress = None) -> SweepResult:
        values = self.values
        if isinstance(values, str):
            values = getattr(scale, values)
            if not isinstance(values, tuple):
                values = (values,)
        overrides = dict(self.overrides)
        most_workers = (max(values) if self.field == "workers_per_site"
                        else overrides.get("workers_per_site", 1))
        base = scale.base_config(
            **{"capacity_files": scale.capacity_for(most_workers),
               **overrides})
        return run_sweep(base, self.field, values, self.schedulers,
                         topology_seeds=scale.topology_seeds,
                         progress=progress)


class Panel(NamedTuple):
    """One table of a sweep: a cell metric, its title and format.

    ``transfers_per_server`` is ``file_transfers`` over the sites.
    """

    metric: str = "makespan_minutes"
    title: str = ""
    fmt: str = "{:>12.1f}"

    def format(self, sweep: SweepResult, title: str) -> str:
        if self.metric == "transfers_per_server":
            return format_sweep_table(
                sweep, title=title, value_format=self.fmt,
                transform=lambda cell: cell.file_transfers
                / sweep.base.num_sites)
        return format_sweep_table(sweep, self.metric, title, self.fmt)


Renderer = Callable[[str, Any, Scale], str]


def tables(first: Panel = Panel(), *also: Panel) -> Renderer:
    """A sweep's renderer: ``first`` under the artifact's title and the
    scale, then each of ``also`` under its own title."""
    def render(title: str, sweep: SweepResult, scale: Scale) -> str:
        return "\n\n".join(
            [first.format(sweep, f"{title} [scale={scale.name}]")]
            + [panel.format(sweep, panel.title) for panel in also])
    return render


class Claim(NamedTuple):
    id: str
    text: str
    holds: Callable[[Any], bool]


@dataclass(frozen=True)
class Artifact:
    """One archived result: how to compute, render and check it."""

    name: str
    title: str
    render: Renderer
    claims: Tuple[Claim, ...]
    cells: Optional[Cells] = None
    compute: Optional[Callable[[Scale, Progress], Any]] = None


# -- the custom computations ------------------------------------------------

def _workload(scale: Scale, _progress: Progress = None):
    return scale.num_tasks, characterize(
        generate_coadd(CoaddParams(num_tasks=scale.num_tasks), seed=0))


def _render_workload(_title: str, data, scale: Scale) -> str:
    num_tasks, stats = data
    return "\n".join(
        [f"Table 2 (Coadd, {num_tasks} tasks, scale={scale.name})",
         stats.as_table(), "",
         "Figure 3: file access CDF (x = min #references, "
         "y = % of files)"]
        + [f"  >= {refs:2d} refs: {percent:5.1f}%"
           for refs, percent in reference_cdf_series(stats)])


#: Table 2 as printed in the paper.
PAPER_TABLE2 = {"total_files": 53390, "min": 36, "max": 101,
                "avg": 78.4327, "frac_ge_6": 0.85}


def _calibration(_scale: Scale, _progress: Progress = None):
    return characterize(generate_coadd(COADD_6000, seed=0))


def _render_calibration(title: str, stats, _scale: Scale) -> str:
    paper = PAPER_TABLE2
    return "\n".join([
        title,
        f"  total files : {paper['total_files']:>8d} vs "
        f"{stats.total_files:>8d}",
        f"  min / task  : {paper['min']:>8d} vs "
        f"{stats.min_files_per_task:>8d}",
        f"  max / task  : {paper['max']:>8d} vs "
        f"{stats.max_files_per_task:>8d}",
        f"  avg / task  : {paper['avg']:>8.2f} vs "
        f"{stats.avg_files_per_task:>8.2f}",
        f"  frac >= 6   : {paper['frac_ge_6']:>8.2f} vs "
        f"{stats.fraction_referenced_at_least(6):>8.2f}",
    ])


def _table3(scale: Scale, progress: Progress = None):
    """Rows (workers, avg waiting hours, avg transfer hours, avg
    transfers per *worker*) for the rest metric.

    Two reading notes versus the paper: it reports one hand-picked
    site, we the request-weighted average over all data servers (same
    behaviour, less single-site noise); and its transfer column must
    be per worker — at 8 workers/site its 906 average implies ~72k
    transfers in total, consistent with the 53,390-file dataset,
    whereas a per-server reading (9k total) would be below the
    unique-file floor.
    """
    base = scale.base_config(
        capacity_files=scale.capacity_for(max(scale.table3_workers)),
        scheduler="rest")
    job = build_job(base)
    rows = []
    for workers in scale.table3_workers:
        if progress:
            progress(f"table3 workers={workers}")
        runs = run_averaged(base.with_changes(workers_per_site=workers),
                            topology_seeds=scale.topology_seeds,
                            job=job).runs
        pooled = [aggregate_sites(run.site_stats) for run in runs]
        rows.append((
            workers,
            sum(site.avg_waiting_hours for site in pooled) / len(runs),
            sum(site.avg_transfer_hours for site in pooled) / len(runs),
            sum(run.file_transfers / (run.config.num_sites * workers)
                for run in runs) / len(runs)))
    return rows


def _render_table3(_title: str, rows, scale: Scale) -> str:
    return format_table3(rows) + (
        f"\n(rest metric; waits/transfer-times are request-weighted "
        f"averages over all data servers; transfer counts are per "
        f"worker; scale={scale.name})")


def _campaign(scale: Scale, _progress: Progress = None):
    tasks_per_pass = max(60, scale.num_tasks // 3)
    campaign = coadd_campaign(CoaddParams(num_tasks=tasks_per_pass),
                              num_jobs=3, seed=4)
    config = ExperimentConfig(scheduler="rest.2", num_tasks=1,
                              capacity_files=scale.capacity_default * 2)
    return run_campaign(config, campaign)


def _render_campaign(_title: str, result, scale: Scale) -> str:
    return "\n".join(
        [f"Campaign reuse ({len(result.passes)} passes x "
         f"{result.passes[0].num_tasks} tasks, rest.2, "
         f"scale={scale.name})"]
        + [f"  {p.name}: {p.duration_minutes:8.1f} min  "
           f"{p.transfers_in_period:6d} transfers"
           for p in result.passes])


# -- claim vocabulary -------------------------------------------------------

def _ms(sweep: SweepResult, scheduler: str, value: object) -> float:
    return sweep.cell(scheduler, value).makespan_minutes


def _xfers(sweep: SweepResult, scheduler: str, value: object) -> float:
    return sweep.cell(scheduler, value).file_transfers


def _first_over_last(sweep: SweepResult, scheduler: str) -> float:
    """Makespan at the sweep's first value over at its last."""
    return (_ms(sweep, scheduler, sweep.values[0])
            / _ms(sweep, scheduler, sweep.values[-1]))


def _value_ratio(sweep: SweepResult) -> float:
    """The sweep's last value over its first."""
    return sweep.values[-1] / sweep.values[0]


def _best_randomized(sweep: SweepResult, value: object) -> float:
    return min(_ms(sweep, "rest.2", value),
               _ms(sweep, "combined.2", value))


def _mean_ms(sweep: SweepResult, scheduler: str) -> float:
    return sum(y for _x, y in sweep.series(scheduler)) / len(sweep.values)


def _every(sweep: SweepResult,
           holds: Callable[[str], bool]) -> bool:
    return all(holds(scheduler) for scheduler in sweep.schedulers)


def _penalty(sweep: SweepResult, scheduler: str) -> float:
    """Makespan ratio of the on-cell over the off-cell."""
    return (sweep.cell(scheduler, True).makespan
            / sweep.cell(scheduler, False).makespan)


def _order_sensitivity(sweep: SweepResult, scheduler: str) -> float:
    return (_xfers(sweep, scheduler, "natural")
            / _xfers(sweep, scheduler, "shuffled"))


def _near(value: float, target: float, tolerance: float) -> bool:
    return abs(value - target) <= tolerance


def _serial_vs_parallel(sweep: SweepResult,
                        holds: Callable[[Any, Any], bool]) -> bool:
    scheduler = sweep.schedulers[0]
    serial = sweep.cell(scheduler, 1)
    return all(holds(serial, sweep.cell(scheduler, k))
               for k in sweep.values[1:])


#: The shootout's data-aware lineup, each held against the anchors.
DATA_AWARE = ("rest.2", "combined.2", "storage-affinity", "xsufferage",
              "minmin", "spatial-clustering")
CAPACITY_SWEEP = Cells("capacity_files", "capacities")
SA = "storage-affinity"


ARTIFACTS: Dict[str, Artifact] = {artifact.name: artifact for artifact in (
    Artifact(
        "table2_fig3_workload",
        "Table 2 + Figure 3: the scaled Coadd workload",
        _render_workload, compute=_workload, claims=(
            Claim("table2-task-count",
                  "the generated instance has the scale's task count",
                  lambda data: data[1].num_tasks == data[0]),
        )),
    Artifact(
        "table2_calibration_6000",
        "Table 2 calibration: paper vs generated (6000 tasks)",
        _render_calibration, compute=_calibration, claims=(
            Claim("table2-total-files",
                  "total files within 2% of the paper's 53,390",
                  lambda stats: _near(stats.total_files, 53390,
                                      0.02 * 53390)),
            Claim("table2-avg-files",
                  "mean files per task within 3% of the paper's 78.43",
                  lambda stats: _near(stats.avg_files_per_task, 78.43,
                                      0.03 * 78.43)),
            Claim("table2-frac-ge-6",
                  "the share of files referenced at least 6 times is "
                  "0.85 +- 0.04",
                  lambda stats: _near(
                      stats.fraction_referenced_at_least(6), 0.85, 0.04)),
        )),
    Artifact(
        "fig4_capacity_makespan",
        "Figure 4: makespan (minutes) vs capacity",
        tables(), cells=CAPACITY_SWEEP, claims=(
            Claim("fig4-sa-degrades-most",
                  "premature scheduling decisions hurt storage affinity "
                  "most: its smallest-capacity slowdown exceeds rest.2's",
                  lambda s: _first_over_last(s, SA)
                  > _first_over_last(s, "rest.2")),
            Claim("fig4-randomized-beat-sa",
                  "at the smallest capacity the best randomized "
                  "worker-centric variant is no slower than storage "
                  "affinity",
                  lambda s: _best_randomized(s, s.values[0])
                  <= _ms(s, SA, s.values[0])),
            Claim("fig4-randomized-beat-overlap",
                  "at the smallest capacity the best randomized "
                  "worker-centric variant is no slower than overlap",
                  lambda s: _best_randomized(s, s.values[0])
                  <= _ms(s, "overlap", s.values[0])),
        )),
    Artifact(
        "fig5_capacity_transfers",
        "Figure 5: # file transfers per data server vs capacity",
        tables(Panel("transfers_per_server")), cells=CAPACITY_SWEEP,
        claims=(
            Claim("fig5-overlap-transfers-most",
                  "overlap transfers no fewer files than rest at every "
                  "capacity",
                  lambda s: all(_xfers(s, "overlap", v)
                                >= _xfers(s, "rest", v)
                                for v in s.values)),
            Claim("fig5-transfers-flat",
                  "no algorithm's transfers grow with capacity (5% "
                  "slack)",
                  lambda s: _every(s, lambda name: _xfers(s, name,
                                                          s.values[-1])
                                   <= _xfers(s, name, s.values[0])
                                   * 1.05)),
        )),
    Artifact(
        "fig6_workers_makespan",
        "Figure 6: makespan (minutes) vs workers per site",
        tables(), cells=Cells("workers_per_site", "workers"), claims=(
            Claim("fig6-sublinear-speedup",
                  "for every algorithm the speedup from the fewest to "
                  "the most workers stays under 0.7x the worker ratio",
                  lambda s: _every(s, lambda name: _first_over_last(s, name)
                                   < 0.7 * s.values[-1] / s.values[0])),
            Claim("fig6-sa-relatively-better-high",
                  "storage affinity relative to rest.2 is no more than "
                  "1.25x worse at the most workers than at the fewest",
                  lambda s: _ms(s, SA, s.values[-1])
                  / _ms(s, "rest.2", s.values[-1])
                  <= _ms(s, SA, s.values[0])
                  / _ms(s, "rest.2", s.values[0]) * 1.25),
        )),
    Artifact(
        "table3_waiting_transfer",
        "Table 3: rest-metric data-server statistics",
        _render_table3, compute=_table3, claims=(
            Claim("table3-transfers-fall",
                  "transfers per worker fall from the fewest workers to "
                  "the most",
                  lambda rows: rows[-1][3] < rows[0][3]),
            Claim("table3-transfers-monotone",
                  "with three or more rows, transfers per worker never "
                  "rise",
                  lambda rows: len(rows) < 3 or all(
                      late[3] <= early[3]
                      for early, late in zip(rows, rows[1:]))),
            Claim("table3-waiting-grows",
                  "queue waiting time rises above its fewest-workers "
                  "level",
                  lambda rows: max(row[1] for row in rows[1:])
                  > rows[0][1]),
        )),
    Artifact(
        "fig7_sites_makespan",
        "Figure 7: makespan (minutes) vs number of sites",
        tables(), cells=Cells("num_sites", "sites"), claims=(
            Claim("fig7-more-sites-faster",
                  "every algorithm is faster at the most sites than at "
                  "the fewest",
                  lambda s: _every(s, lambda name: _ms(s, name,
                                                       s.values[-1])
                                   < _ms(s, name, s.values[0]))),
            Claim("fig7-randomized-match-deterministic",
                  "averaged over the sweep, the best randomized variant "
                  "is within 5% of the best deterministic one",
                  lambda s: min(_mean_ms(s, "rest.2"),
                                _mean_ms(s, "combined.2"))
                  <= min(_mean_ms(s, "rest"),
                         _mean_ms(s, "combined")) * 1.05),
        )),
    Artifact(
        "fig8_filesize_makespan",
        "Figure 8: makespan (minutes) vs file size (MB)",
        tables(), cells=Cells("file_size_mb", "file_sizes_mb"), claims=(
            Claim("fig8-linear-in-size",
                  "every algorithm's makespan grows by 0.4x to 1.6x the "
                  "file-size ratio",
                  lambda s: _every(s, lambda name: 0.4 * _value_ratio(s)
                                   <= _ms(s, name, s.values[-1])
                                   / _ms(s, name, s.values[0])
                                   <= 1.6 * _value_ratio(s))),
            Claim("fig8-randomized-beat-overlap",
                  "at every size the best randomized variant is within "
                  "2% of overlap or faster",
                  lambda s: all(_best_randomized(s, v)
                                <= _ms(s, "overlap", v) * 1.02
                                for v in s.values)),
        )),
    Artifact(
        "ablation_choose_n",
        "Ablation: ChooseTask(n), rest metric",
        tables(), cells=Cells(
            "capacity_files", "capacity_default",
            tuple(f"wc:rest:{n}" for n in (1, 2, 4, 8))), claims=(
            Claim("choose-n-large-n-no-win",
                  "n=8 does not beat the better of n=1 and n=2 by more "
                  "than 2%",
                  lambda s: min(_ms(s, "wc:rest:1", s.values[0]),
                                _ms(s, "wc:rest:2", s.values[0]))
                  <= _ms(s, "wc:rest:8", s.values[0]) * 1.02),
        )),
    Artifact(
        "ablation_combined_formula",
        "Ablation: combined formula variants, makespan (minutes)",
        tables(Panel(), Panel(
            "transfers_per_server",
            "Same sweep: # file transfers per data server")),
        cells=Cells("capacity_files", "capacities",
                    ("combined", "combined-literal", "combined.2",
                     "combined-literal.2")), claims=(
            Claim("combined-intent-fewer-transfers",
                  "the intent-consistent combined formula transfers no "
                  "more files than the printed one, averaged over "
                  "capacities",
                  lambda s: sum(_xfers(s, "combined", v)
                                for v in s.values)
                  <= sum(_xfers(s, "combined-literal", v)
                         for v in s.values)),
        )),
    Artifact(
        "ablation_data_replication",
        "Ablation: proactive data replication off/on",
        tables(), cells=Cells("replicate_data", (False, True),
                              ("rest.2", SA)), claims=(
            Claim("replication-not-needed",
                  "rest.2 without replication is within 5% of storage "
                  "affinity without it",
                  lambda s: _ms(s, "rest.2", False)
                  <= _ms(s, SA, False) * 1.05),
            Claim("replication-no-major-win",
                  "replication cuts rest.2's makespan by less than 15%",
                  lambda s: _ms(s, "rest.2", True)
                  >= _ms(s, "rest.2", False) * 0.85),
        )),
    Artifact(
        "ablation_task_order",
        "Ablation: task presentation order, makespan (minutes)",
        tables(Panel(), Panel("file_transfers",
                              "Same sweep: total # file transfers",
                              "{:>12.0f}")),
        cells=Cells("task_order", ("natural", "shuffled", "striped"),
                    ("rest", "overlap", "workqueue")), claims=(
            Claim("task-order-shuffled-gap",
                  "under shuffled order workqueue transfers over 1.2x "
                  "what rest does",
                  lambda s: _xfers(s, "workqueue", "shuffled")
                  / _xfers(s, "rest", "shuffled") > 1.2),
            Claim("task-order-lockstep",
                  "sorted order inflates overlap's transfers over 1.3x "
                  "(the lockstep sweep)",
                  lambda s: _order_sensitivity(s, "overlap") > 1.3),
            Claim("task-order-rest-robust",
                  "rest is less order-sensitive than overlap",
                  lambda s: _order_sensitivity(s, "rest")
                  < _order_sensitivity(s, "overlap")),
        )),
    Artifact(
        "ablation_data_server_parallelism",
        "Ablation: data-server parallelism (rest.2, 4 workers/site), "
        "makespan (minutes)",
        tables(Panel(), Panel("file_transfers",
                              "Same sweep: total # file transfers",
                              "{:>12.0f}")),
        cells=Cells("data_server_parallelism", (1, 2, 4), ("rest.2",),
                    (("workers_per_site", 4),)), claims=(
            Claim("data-server-no-refetch",
                  "parallel service transfers at most 5% more files "
                  "than serial",
                  lambda s: _serial_vs_parallel(
                      s, lambda serial, parallel: parallel.file_transfers
                      <= serial.file_transfers * 1.05)),
            Claim("data-server-bounded",
                  "parallel service keeps makespan within 0.6x-1.4x of "
                  "serial",
                  lambda s: _serial_vs_parallel(
                      s, lambda serial, parallel: 0.6
                      <= parallel.makespan / serial.makespan <= 1.4)),
        )),
    Artifact(
        "ablation_background_load",
        "Ablation: background CPU load off/on, makespan (minutes, "
        "compute-heavy regime)",
        tables(Panel(), Panel(
            "tasks_cancelled",
            "Same sweep: replicas cancelled (wasted executions)")),
        cells=Cells("background_load", (False, True), ("rest.2", SA),
                    (("workers_per_site", 2), ("flops_per_file", 2.0e11),
                     ("load_slowdown", 8.0), ("load_fraction", 0.4))),
        claims=(
            Claim("background-wc-absorbs",
                  "rest.2's load penalty is within 1.15x of storage "
                  "affinity's",
                  lambda s: _penalty(s, "rest.2")
                  <= _penalty(s, SA) * 1.15),
            Claim("background-wc-no-replicas",
                  "rest.2 cancels no replica under load",
                  lambda s: s.cell("rest.2", True).tasks_cancelled == 0),
            Claim("background-sa-burns-replicas",
                  "storage affinity cancels replicas under load",
                  lambda s: s.cell(SA, True).tasks_cancelled > 0),
        )),
    Artifact(
        "ablation_cross_traffic",
        "Ablation: background cross-traffic off/on, makespan (minutes)",
        tables(), cells=Cells("cross_traffic", (False, True),
                              ("rest.2", SA, "workqueue")), claims=(
            Claim("cross-traffic-costs",
                  "cross-traffic slows every scheduler",
                  lambda s: _every(s, lambda name: _ms(s, name, True)
                                   > _ms(s, name, False))),
            Claim("cross-traffic-order-kept",
                  "under cross-traffic rest.2 still beats workqueue",
                  lambda s: _ms(s, "rest.2", True)
                  < _ms(s, "workqueue", True)),
            Claim("cross-traffic-smaller-penalty",
                  "rest.2's absolute slowdown is smaller than "
                  "workqueue's",
                  lambda s: _ms(s, "rest.2", True) - _ms(s, "rest.2",
                                                         False)
                  < _ms(s, "workqueue", True) - _ms(s, "workqueue",
                                                    False)),
        )),
    Artifact(
        "campaign_interjob_reuse",
        "Campaign reuse: inter-job data reuse over three passes",
        _render_campaign, compute=_campaign, claims=(
            Claim("campaign-fewer-transfers",
                  "each later pass moves under 60% of the first pass's "
                  "transfers",
                  lambda r: all(p.transfers_in_period
                                < 0.6 * r.passes[0].transfers_in_period
                                for p in r.passes[1:])),
            Claim("campaign-faster",
                  "each later pass runs shorter than the first",
                  lambda r: all(p.duration < r.passes[0].duration
                                for p in r.passes[1:])),
        )),
    Artifact(
        "related_work_shootout",
        "Related-work shootout, makespan (minutes)",
        tables(Panel(), Panel(
            "transfers_per_server",
            "Same runs: # file transfers per data server")),
        cells=Cells("capacity_files", "capacity_default",
                    ("rest.2", "combined.2", SA, "xsufferage", "minmin",
                     "maxmin", "spatial-clustering", "workqueue",
                     "random")), claims=(
            Claim("shootout-beats-fifo",
                  "every data-aware strategy beats workqueue",
                  lambda s: all(_ms(s, name, s.values[0])
                                < _ms(s, "workqueue", s.values[0])
                                for name in DATA_AWARE)),
            Claim("shootout-beats-random",
                  "every data-aware strategy beats random",
                  lambda s: all(_ms(s, name, s.values[0])
                                < _ms(s, "random", s.values[0])
                                for name in DATA_AWARE)),
            Claim("shootout-sufferage-beats-maxmin",
                  "xsufferage is no slower than locality-blind maxmin",
                  lambda s: _ms(s, "xsufferage", s.values[0])
                  <= _ms(s, "maxmin", s.values[0])),
        )),
)}


def check(artifact: Artifact, data: Any) -> Iterable[Tuple[Claim, bool, str]]:
    """``(claim, holds, note)`` per claim.  A predicate that cannot
    answer (a sweep too small for the claim to apply) fails, and the
    note says why."""
    for claim in artifact.claims:
        try:
            yield claim, bool(claim.holds(data)), ""
        except (ArithmeticError, LookupError, ValueError) as exc:
            yield claim, False, f" ({type(exc).__name__}: {exc})"


def reproduce(scale: Scale, only: Sequence[str] = (),
              out: Optional[str] = None, stream: Optional[TextIO] = None,
              progress: Progress = None) -> int:
    """Compute, print and check ``only`` (default: every artifact).

    Prints a markdown report to ``stream`` (stdout) with one
    ``PASS``/``FAIL <claim-id>: <sentence>`` line per claim; with
    ``out``, writes each artifact's text to ``<out>/<name>.txt``.
    Returns 1 if any claim failed, else 0.
    """
    unknown = sorted(set(only) - set(ARTIFACTS))
    if unknown:
        raise KeyError(f"unknown artifact(s) {unknown}")
    stream = stream or sys.stdout
    chosen = [a for name, a in ARTIFACTS.items() if not only or name in only]
    if out is not None:
        Path(out).mkdir(parents=True, exist_ok=True)
    print(f"# Reproduction report (scale={scale.name}, "
          f"{scale.num_tasks} tasks, {len(scale.topology_seeds)} "
          f"topologies)\n", file=stream)
    sweeps: Dict[Cells, SweepResult] = {}
    failed = total = 0
    for artifact in chosen:
        if progress:
            progress(artifact.name)
        if artifact.cells is None:
            data = artifact.compute(scale, progress)
        else:
            if artifact.cells not in sweeps:
                sweeps[artifact.cells] = artifact.cells.run(scale,
                                                            progress)
            data = sweeps[artifact.cells]
        text = artifact.render(artifact.title, data, scale)
        if out is not None:
            (Path(out) / f"{artifact.name}.txt").write_text(text + "\n")
        print(f"## {artifact.name} - {artifact.title}\n\n```\n{text}\n"
              f"```\n", file=stream)
        for claim, holds, note in check(artifact, data):
            print(f"{'PASS' if holds else 'FAIL'} {claim.id}: "
                  f"{claim.text}{note}", file=stream)
            total += 1
            failed += not holds
        print(file=stream)
    print(f"{total - failed} of {total} claims pass", file=stream)
    return 1 if failed else 0
