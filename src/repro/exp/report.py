"""ASCII rendering of sweep results in the paper's figure/table layout.

Figures in the paper are line plots (x = swept parameter, one line per
algorithm); here each becomes an aligned table with one column per
algorithm, which is what the benchmark harness prints and what
EXPERIMENTS.md records.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..analysis.metrics import SiteServiceSummary
from .runner import AveragedResult
from .sweep import SweepResult


def format_sweep_table(sweep: SweepResult, metric: str = "makespan_minutes",
                       title: Optional[str] = None,
                       value_format: str = "{:>12.1f}",
                       transform: Optional[Callable[[AveragedResult], float]]
                       = None) -> str:
    """Render one metric of a sweep as an aligned ASCII table.

    ``transform`` overrides ``metric`` extraction when a derived value
    is wanted (e.g. per-server transfer counts).
    """
    header_cells = [f"{sweep.field:>16s}"]
    header_cells += [f"{name:>18s}" for name in sweep.schedulers]
    lines = []
    if title:
        lines.append(title)
    lines.append(" ".join(header_cells))
    for value in sweep.values:
        row = [f"{str(value):>16s}"]
        for scheduler in sweep.schedulers:
            cell = sweep.cells[(scheduler, value)]
            number = (transform(cell) if transform is not None
                      else getattr(cell, metric))
            row.append(f"{value_format.format(number):>18s}")
        lines.append(" ".join(row))
    return "\n".join(lines)


def format_table3(rows: Sequence[tuple], ) -> str:
    """Render Table 3: (workers, waiting h, transfer h, transfers)."""
    lines = [f"{'':>12s} {'waiting':>12s} {'transfer':>12s} {'# of file':>12s}",
             f"{'':>12s} {'time (hrs)':>12s} {'time (hrs)':>12s} {'transfers':>12s}"]
    for workers, waiting_h, transfer_h, transfers in rows:
        lines.append(f"{str(workers) + ' workers':>12s} "
                     f"{waiting_h:>12.2f} {transfer_h:>12.2f} "
                     f"{transfers:>12.2f}")
    return "\n".join(lines)


def format_site_summaries(summaries: Sequence[SiteServiceSummary]) -> str:
    """Per-site service statistics as an aligned table."""
    lines = [f"{'site':>6s} {'requests':>9s} {'wait (h)':>10s} "
             f"{'xfer (h)':>10s} {'transfers':>10s}"]
    for s in summaries:
        lines.append(f"{s.site:>6d} {s.requests:>9d} "
                     f"{s.avg_waiting_hours:>10.3f} "
                     f"{s.avg_transfer_hours:>10.3f} "
                     f"{s.avg_transfers:>10.2f}")
    return "\n".join(lines)
