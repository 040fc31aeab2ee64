"""Experiment harness: configs, runner, sweeps, campaigns.

The paper's artifacts and their claims are a table in
:mod:`repro.exp.reproduce`, imported on demand by ``repro reproduce``.
"""

from .campaign import CampaignResult, PassResult, run_campaign
from .config import BENCH, PAPER, SCALES, SMALL, ExperimentConfig, Scale
from .report import format_site_summaries, format_sweep_table, format_table3
from .runner import (AveragedResult, ExperimentResult, build_grid,
                     build_job, run_averaged, run_experiment)
from .store import ResultRecord, ResultStore
from .sweep import SweepResult, run_sweep

__all__ = [
    "AveragedResult",
    "BENCH",
    "CampaignResult",
    "PassResult",
    "run_campaign",
    "ExperimentConfig",
    "ExperimentResult",
    "PAPER",
    "ResultRecord",
    "ResultStore",
    "SCALES",
    "SMALL",
    "Scale",
    "SweepResult",
    "build_grid",
    "build_job",
    "format_site_summaries",
    "format_sweep_table",
    "format_table3",
    "run_averaged",
    "run_experiment",
    "run_sweep",
]
