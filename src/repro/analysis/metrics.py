"""Per-site service statistics (Table 3).

Most headline numbers (makespan, transfer counts) come from counters on
the grid; this module derives Table 3's per-data-server averages from
the collected :class:`~repro.grid.data_server.DataServerStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - grid.data_server imports analysis
    from ..grid.data_server import DataServerStats


@dataclass(frozen=True)
class SiteServiceSummary:
    """Table 3's row: one data server's averaged service statistics."""

    site: int
    requests: int
    avg_waiting_time: float
    avg_transfer_time: float
    avg_transfers: float

    @property
    def avg_waiting_hours(self) -> float:
        return self.avg_waiting_time / 3600.0

    @property
    def avg_transfer_hours(self) -> float:
        return self.avg_transfer_time / 3600.0


def summarize_sites(stats: Sequence[DataServerStats]) -> List[SiteServiceSummary]:
    """One :class:`SiteServiceSummary` per data server."""
    return [
        SiteServiceSummary(
            site=site_id,
            requests=s.requests_served,
            avg_waiting_time=s.avg_waiting_time,
            avg_transfer_time=s.avg_transfer_time,
            avg_transfers=s.avg_transfers,
        )
        for site_id, s in enumerate(stats)
    ]


def aggregate_sites(stats: Sequence[DataServerStats]) -> SiteServiceSummary:
    """All sites pooled into one summary (request-weighted averages)."""
    requests = sum(s.requests_served for s in stats)
    if requests == 0:
        return SiteServiceSummary(site=-1, requests=0, avg_waiting_time=0.0,
                                  avg_transfer_time=0.0, avg_transfers=0.0)
    return SiteServiceSummary(
        site=-1,
        requests=requests,
        avg_waiting_time=sum(s.total_waiting_time for s in stats) / requests,
        avg_transfer_time=sum(s.total_transfer_time for s in stats) / requests,
        avg_transfers=sum(s.total_transfers for s in stats) / requests,
    )
