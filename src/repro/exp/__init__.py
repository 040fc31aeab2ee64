"""Experiment harness: configs, runner, sweeps, per-figure definitions."""

from .campaign import CampaignResult, PassResult, run_campaign
from .config import ExperimentConfig
from .figures import (BENCH, PAPER, SCALES, SMALL, Scale,
                      ablation_choose_n, ablation_combined_formula,
                      ablation_data_replication, ablation_task_order,
                      fig4_fig5, fig6, fig7, fig8, table2_fig3, table3)
from .reproduce import reproduce_all
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
    "ablation_choose_n",
    "ablation_combined_formula",
    "ablation_data_replication",
    "ablation_task_order",
    "build_grid",
    "build_job",
    "fig4_fig5",
    "fig6",
    "fig7",
    "fig8",
    "format_site_summaries",
    "format_sweep_table",
    "format_table3",
    "reproduce_all",
    "run_averaged",
    "run_experiment",
    "run_sweep",
    "table2_fig3",
    "table3",
]
