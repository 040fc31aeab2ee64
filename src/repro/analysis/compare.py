"""Statistical comparison of scheduling algorithms.

The paper reports per-point averages over 5 topologies without error
bars; for a reproduction it pays to know whether an ordering is stable.
This module provides small-sample summary statistics (mean, stddev,
Student-t confidence intervals) and a ranking report over
:class:`~repro.exp.runner.AveragedResult` cells.

Pure standard library — the t-table below covers the tiny sample sizes
simulation protocols use (2..30 runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

#: Two-sided 95% Student-t critical values by degrees of freedom.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 25: 2.060, 30: 2.042,
}


def _t_critical(dof: int) -> float:
    if dof <= 0:
        return float("inf")
    if dof in _T95:
        return _T95[dof]
    candidates = [k for k in _T95 if k <= dof]
    return _T95[max(candidates)] if candidates else 1.96


@dataclass(frozen=True)
class SampleSummary:
    """Mean, spread, and a 95% confidence half-width of one sample."""

    n: int
    mean: float
    stddev: float
    ci95: float

    @property
    def low(self) -> float:
        return self.mean - self.ci95

    @property
    def high(self) -> float:
        return self.mean + self.ci95


def summarize(values: Sequence[float]) -> SampleSummary:
    """Summary statistics of a (small) sample."""
    values = list(values)
    if not values:
        raise ValueError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return SampleSummary(n=1, mean=mean, stddev=0.0, ci95=0.0)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    stddev = math.sqrt(variance)
    ci95 = _t_critical(n - 1) * stddev / math.sqrt(n)
    return SampleSummary(n=n, mean=mean, stddev=stddev, ci95=ci95)


def welch_t(a: Sequence[float], b: Sequence[float]) -> float:
    """Welch's t statistic between two samples (0 if degenerate)."""
    sa, sb = summarize(a), summarize(b)
    if sa.n < 2 or sb.n < 2:
        return 0.0
    se = math.sqrt(sa.stddev ** 2 / sa.n + sb.stddev ** 2 / sb.n)
    if se == 0:
        return 0.0
    return (sa.mean - sb.mean) / se


@dataclass(frozen=True)
class RankedAlgorithm:
    """One row of a ranking report."""

    name: str
    summary: SampleSummary
    #: True when the CI does not overlap the best algorithm's CI.
    clearly_worse_than_best: bool


def rank_algorithms(samples: Dict[str, Sequence[float]]
                    ) -> List[RankedAlgorithm]:
    """Rank algorithms by mean (ascending: lower = better)."""
    if not samples:
        raise ValueError("no samples to rank")
    summaries = {name: summarize(values)
                 for name, values in samples.items()}
    ordered = sorted(summaries.items(), key=lambda kv: kv[1].mean)
    best = ordered[0][1]
    return [
        RankedAlgorithm(
            name=name,
            summary=summary,
            clearly_worse_than_best=summary.low > best.high,
        )
        for name, summary in ordered
    ]


def format_ranking(ranking: Sequence[RankedAlgorithm],
                   unit: str = "min") -> str:
    """Render a ranking as an aligned ASCII table."""
    lines = [f"{'algorithm':<20s} {'mean':>10s} {'±95% CI':>10s} "
             f"{'n':>3s}  note"]
    for row in ranking:
        note = "clearly worse than best" if row.clearly_worse_than_best \
            else ""
        lines.append(f"{row.name:<20s} {row.summary.mean:>10.1f} "
                     f"{row.summary.ci95:>10.1f} {row.summary.n:>3d}  "
                     f"{note}")
    return "\n".join(lines) + f"\n(units: {unit}; lower is better)"
