"""Sweeps, per-figure experiments (SMALL scale), and report rendering."""

import pytest

from repro.exp import (SMALL, ExperimentConfig, fig4_fig5, fig6, fig7, fig8,
                       format_sweep_table, format_table3, run_sweep,
                       table2_fig3, table3)
from repro.exp.figures import (ablation_choose_n, ablation_combined_formula,
                               ablation_data_replication,
                               ablation_task_order)
from repro.exp.report import format_site_summaries
from repro.analysis.metrics import summarize_sites


def tiny_base(**overrides):
    defaults = dict(num_tasks=30, num_sites=2, capacity_files=500)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_run_sweep_cells():
    sweep = run_sweep(tiny_base(), "capacity_files", (200, 500),
                      ("rest", "workqueue"), topology_seeds=(0,))
    assert set(sweep.cells) == {("rest", 200), ("rest", 500),
                                ("workqueue", 200), ("workqueue", 500)}
    series = sweep.series("rest")
    assert [x for x, _y in series] == [200, 500]
    assert all(y > 0 for _x, y in series)


def test_run_sweep_validation():
    with pytest.raises(ValueError):
        run_sweep(tiny_base(), "capacity_files", (), ("rest",))
    with pytest.raises(ValueError):
        run_sweep(tiny_base(), "capacity_files", (100,), ())


def test_sweep_shares_workload_when_safe():
    sweep = run_sweep(tiny_base(), "capacity_files", (300, 400),
                      ("rest",), topology_seeds=(0,))
    # same workload means identical task counts; just smoke-check cells
    a = sweep.cell("rest", 300)
    b = sweep.cell("rest", 400)
    assert a.runs[0].config.capacity_files == 300
    assert b.runs[0].config.capacity_files == 400


def test_sweep_workload_field_rebuilds():
    sweep = run_sweep(tiny_base(), "num_tasks", (10, 20), ("rest",),
                      topology_seeds=(0,))
    assert sweep.cell("rest", 10).runs[0].config.num_tasks == 10


def test_format_sweep_table_output():
    sweep = run_sweep(tiny_base(), "capacity_files", (200,),
                      ("rest", "workqueue"), topology_seeds=(0,))
    text = format_sweep_table(sweep, title="Fig X")
    assert "Fig X" in text
    assert "rest" in text and "workqueue" in text
    assert "200" in text


def test_format_sweep_table_transform():
    sweep = run_sweep(tiny_base(), "capacity_files", (200,), ("rest",),
                      topology_seeds=(0,))
    text = format_sweep_table(
        sweep, transform=lambda cell: cell.file_transfers / 2)
    assert text


def test_table2_fig3_small():
    stats = table2_fig3(SMALL)
    assert stats.num_tasks == SMALL.num_tasks
    assert stats.total_files > 0
    assert 0 < stats.fraction_referenced_at_least(6) <= 1.0


def test_fig4_fig5_small_subset():
    sweep = fig4_fig5(SMALL, schedulers=("rest", "storage-affinity"))
    assert sweep.field == "capacity_files"
    assert sweep.values == SMALL.capacities
    for scheduler in ("rest", "storage-affinity"):
        for _value, makespan in sweep.series(scheduler):
            assert makespan > 0


def test_fig6_small_subset():
    sweep = fig6(SMALL, schedulers=("rest",))
    assert sweep.field == "workers_per_site"
    assert [x for x, _ in sweep.series("rest")] == list(SMALL.workers)


def test_table3_small():
    rows = table3(SMALL)
    assert [row[0] for row in rows] == list(SMALL.table3_workers)
    for _workers, waiting_h, transfer_h, transfers in rows:
        assert waiting_h >= 0
        assert transfer_h > 0
        assert transfers > 0
    text = format_table3(rows)
    assert "waiting" in text and "workers" in text


def test_fig7_small_subset():
    sweep = fig7(SMALL, schedulers=("rest",))
    assert sweep.field == "num_sites"
    makespans = dict(sweep.series("rest"))
    assert makespans[SMALL.sites[-1]] <= makespans[SMALL.sites[0]] * 1.5


def test_fig8_small_subset():
    sweep = fig8(SMALL, schedulers=("rest",))
    makespans = dict(sweep.series("rest"))
    small_size, big_size = SMALL.file_sizes_mb[0], SMALL.file_sizes_mb[-1]
    assert makespans[big_size] > makespans[small_size]


def test_ablation_choose_n_small():
    sweep = ablation_choose_n(SMALL, n_values=(1, 2))
    assert set(sweep.schedulers) == {"wc:rest:1", "wc:rest:2"}


def test_ablation_combined_formula_runs():
    small = SMALL
    sweep = ablation_combined_formula(small)
    assert ("combined", small.capacities[0]) in sweep.cells
    assert ("combined-literal", small.capacities[0]) in sweep.cells


def test_ablation_replication_runs():
    sweep = ablation_data_replication(SMALL, schedulers=("rest",))
    off = sweep.cell("rest", False)
    on = sweep.cell("rest", True)
    assert off.makespan > 0 and on.makespan > 0


def test_ablation_task_order_runs():
    sweep = ablation_task_order(SMALL, schedulers=("rest",))
    assert set(v for _s, v in sweep.cells) == {"natural", "shuffled",
                                               "striped"}


def test_site_summary_rendering():
    from repro.exp import run_experiment
    result = run_experiment(tiny_base())
    summaries = summarize_sites(result.site_stats)
    text = format_site_summaries(summaries)
    assert "site" in text
    assert len(text.splitlines()) == 1 + len(summaries)
