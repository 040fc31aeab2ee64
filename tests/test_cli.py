"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command(capsys):
    code, out = run_cli(capsys, "run", "--scheduler", "rest",
                        "--tasks", "30", "--sites", "2",
                        "--capacity", "400")
    assert code == 0
    assert "makespan" in out
    assert "file transfers" in out


def test_run_command_rejects_bad_scheduler(capsys):
    with pytest.raises(ValueError):
        main(["run", "--scheduler", "bogus", "--tasks", "10"])


def test_compare_command(capsys):
    code, out = run_cli(capsys, "compare", "--tasks", "30", "--sites", "2",
                        "--capacity", "400", "--topologies", "2",
                        "--schedulers", "rest", "workqueue")
    assert code == 0
    assert "rest" in out and "workqueue" in out
    assert "lower is better" in out


def test_sweep_command(capsys):
    code, out = run_cli(capsys, "sweep", "--tasks", "30", "--sites", "2",
                        "--field", "capacity_files",
                        "--values", "300", "500",
                        "--schedulers", "rest")
    assert code == 0
    assert "capacity_files" in out
    assert "300" in out and "500" in out


def test_sweep_command_float_and_string_values(capsys):
    code, out = run_cli(capsys, "sweep", "--tasks", "30", "--sites", "2",
                        "--field", "file_size_mb",
                        "--values", "5.0", "25.0",
                        "--schedulers", "rest")
    assert code == 0
    assert "5.0" in out


def test_workload_command(capsys, tmp_path):
    out_path = tmp_path / "job.json"
    code, out = run_cli(capsys, "workload", "--tasks", "25",
                        "--out", str(out_path))
    assert code == 0
    assert "Total number of files" in out
    assert out_path.exists()
    from repro.workload.traces import load_job
    assert len(load_job(out_path)) == 25


def test_workload_command_without_out(capsys):
    code, out = run_cli(capsys, "workload", "--tasks", "25")
    assert code == 0
    assert "reference CDF" in out


def test_reproduce_only_table2(capsys):
    code, out = run_cli(capsys, "reproduce", "--scale", "small",
                        "--only", "table2_fig3_workload")
    assert code == 0
    assert "Total number of files" in out
    assert "PASS table2-task-count" in out
    assert "Figure 4" not in out


def test_reproduce_rejects_unknown_artifact(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--only", "fig99"])
    assert exc.value.code == 2
    assert "fig99" in capsys.readouterr().err


def test_compare_uses_task_order_flag(capsys):
    code, out = run_cli(capsys, "run", "--tasks", "30", "--sites", "2",
                        "--capacity", "400", "--task-order", "natural",
                        "--scheduler", "rest")
    assert code == 0


def test_serve_parser_flags():
    args = build_parser().parse_args(
        ["serve", "--port", "0", "--metric", "rest", "--n", "1"])
    assert args.port == 0
    assert args.metric == "rest"
    assert args.func is not None


def test_load_parser_reuses_config_arguments():
    args = build_parser().parse_args(
        ["load", "--port", "7077", "--tasks", "500",
         "--sites", "4", "--workers", "2"])
    assert args.tasks == 500
    assert args.sites == 4 and args.workers == 2
    assert not args.no_drain


def test_cluster_forwards_its_scheduler_flags_to_every_shard(tmp_path):
    """The frozen benchmark invocation: what ``repro cluster`` was
    told about the scheduler arrives, through the supervisor, on each
    shard's ``repro serve`` command line — defaults included."""
    from repro.cli import _scheduler_argv
    from repro.cluster.supervisor import ClusterSupervisor

    parser = build_parser()
    args = parser.parse_args(
        ["cluster", "--shards", "2", "--steal-watermark", "4",
         "--state-root", str(tmp_path), "--port", "0",
         "--metric", "rest", "--n", "2", "--codec", "binary",
         "--snapshot-interval", "3600"])
    supervisor = ClusterSupervisor(
        shards=args.shards, state_root=args.state_root,
        shard_args=_scheduler_argv(args))
    shard = parser.parse_args(supervisor._shard_command(1)[3:])
    assert (shard.metric, shard.n, shard.seed, shard.lease_ttl,
            shard.snapshot_interval, shard.steal_watermark) \
        == ("rest", 2, 0, 30.0, 3600.0, 4)
    assert (shard.shard_index, shard.shard_count) == (1, 2)
    assert shard.cluster_file == supervisor.cluster_file
    assert shard.codec == "auto"  # --codec is the router's, not theirs
    # No watermark given: none forwarded, stealing stays off.
    quiet = parser.parse_args(["cluster", "--state-root", str(tmp_path)])
    assert "--steal-watermark" not in _scheduler_argv(quiet)
