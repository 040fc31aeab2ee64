"""Analysis: trace bus, metric extraction, comparison, ASCII charts."""

from .bounds import MakespanBounds, compute_bounds, efficiency
from .eventlog import (Attempt, TaskTimeline, load_timelines,
                       task_timelines)
from .compare import (RankedAlgorithm, SampleSummary, format_ranking,
                      rank_algorithms, summarize, welch_t)
from .plotting import ascii_chart, chart_sweep
from .metrics import aggregate_sites, summarize_sites
from .timeline import Span, gantt, phase_totals, worker_spans
from .trace import (BatchServed, FileEvicted, FileTransferred, TaskAssigned,
                    TaskCancelled, TaskCompleted, TaskStarted, TraceBus,
                    TraceRecord)

__all__ = [
    "Attempt",
    "BatchServed",
    "TaskTimeline",
    "load_timelines",
    "task_timelines",
    "MakespanBounds",
    "compute_bounds",
    "efficiency",
    "RankedAlgorithm",
    "SampleSummary",
    "ascii_chart",
    "chart_sweep",
    "format_ranking",
    "rank_algorithms",
    "Span",
    "aggregate_sites",
    "gantt",
    "summarize_sites",
    "phase_totals",
    "summarize",
    "worker_spans",
    "welch_t",
    "FileEvicted",
    "FileTransferred",
    "TaskAssigned",
    "TaskCancelled",
    "TaskCompleted",
    "TaskStarted",
    "TraceBus",
    "TraceRecord",
]
