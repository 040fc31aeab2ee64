"""Full-process cluster e2e: kill -9 a shard, recover, exactly once.

These tests drive the real CLI in subprocesses — ``repro cluster``
spawning real ``repro serve`` shards — because the guarantee under
test is process-level: a SIGKILL'd shard must come back from its
snapshot + WAL tail with every completion intact.  The client runs
in-process so the report and event log are directly inspectable.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exp import ExperimentConfig
from repro.exp.runner import build_job
from repro.obs.events import iter_events
from repro.serve.loadgen import run_load

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="kill -9 semantics are POSIX")

TIMEOUT = 120
REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


def coadd_job(num_tasks, seed=0):
    return build_job(ExperimentConfig(num_tasks=num_tasks,
                                      capacity_files=500, seed=seed))


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_cli(args, log_path):
    handle = open(log_path, "w", encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=handle, stderr=subprocess.STDOUT, env=cli_env())
    return proc, handle


def wait_for_json(path, predicate, deadline, what):
    while time.monotonic() < deadline:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if predicate(payload):
                return payload
        except (FileNotFoundError, json.JSONDecodeError):
            pass
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what} in {path}")


def test_serve_port_zero_reports_bound_ports_via_port_file(tmp_path):
    """Satellite: ``--port 0`` + ``--port-file`` is the ephemeral-port
    handshake every supervisor-spawned shard relies on.  The command
    line is a one-shard cluster's, watermark forwarded and all: with
    no peer (``--shard-count`` 1) the shard must not arm stealing."""
    port_file = str(tmp_path / "port.json")
    proc, handle = spawn_cli(
        ["serve", "--port", "0", "--metrics-port", "0",
         "--port-file", port_file, "--state-dir",
         str(tmp_path / "state"), "--steal-watermark", "4",
         "--cluster-file", str(tmp_path / "cluster.json")],
        str(tmp_path / "serve.log"))
    try:
        ports = wait_for_json(
            port_file, lambda p: isinstance(p.get("port"), int),
            time.monotonic() + 30, "bound ports")
        assert ports["port"] > 0
        assert isinstance(ports["metrics_port"], int)
        assert ports["metrics_port"] > 0
        assert ports["port"] != ports["metrics_port"]

        async def drive():
            return await run_load("127.0.0.1", ports["port"],
                                  [coadd_job(6)], workers=1, sites=1,
                                  capacity_files=400, drain=True)

        report = run(drive())
        assert report["tasks_done"] == 6
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        handle.close()
    log_text = open(str(tmp_path / "serve.log"),
                    encoding="utf-8").read()
    assert f"listening on 127.0.0.1:{ports['port']}" in log_text
    assert "recovered from" in log_text  # durability was on
    assert "work stealing armed" not in log_text


def run_cli(args, timeout=60):
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True,
                          env=cli_env(), timeout=timeout)


def test_load_jobs_drives_several_tenants_at_a_standalone_server(
        tmp_path):
    """``repro load --jobs J`` needs no router: against a plain
    ``repro serve`` the J jobs are J tenants of the one scheduler."""
    port_file = str(tmp_path / "port.json")
    proc, handle = spawn_cli(
        ["serve", "--port", "0", "--port-file", port_file],
        str(tmp_path / "serve.log"))
    try:
        ports = wait_for_json(
            port_file, lambda p: isinstance(p.get("port"), int),
            time.monotonic() + 30, "bound port")
        load = run_cli(["load", "--port", str(ports["port"]),
                        "--tasks", "45", "--jobs", "3", "--sites", "2",
                        "--workers", "2", "--capacity", "600"])
        assert load.returncode == 0, load.stderr
        assert "1 shard(s), 3 job(s)" in load.stdout
        assert load.stdout.count("15/15 (done=True)") == 3
        assert "tasks completed  : 45 by 4 workers" in load.stdout
        assert "AUDIT FAILED" not in load.stderr
        assert proc.wait(timeout=30) == 0  # drained
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        handle.close()


def shard_wal_completions(state_root, shard_count):
    """task_id -> completion count across every shard's whole WAL."""
    from repro.cluster.shard import wal_files
    counts = {}
    for index in range(shard_count):
        state_dir = os.path.join(state_root, f"shard-{index}")
        for path in wal_files(state_dir):
            for record in iter_events(path):
                if record["event"] == "complete":
                    task_id = record["task_id"]
                    counts[task_id] = counts.get(task_id, 0) + 1
    return counts


def test_cluster_survives_kill9_with_exactly_once_completion(tmp_path):
    """The acceptance scenario: 2 shards + router, one shard SIGKILL'd
    mid-load and restarted by the supervisor, every task completes
    exactly once, and the restart recovered from a snapshot + WAL
    tail rather than a cold start."""
    state_root = str(tmp_path / "cluster-state")
    event_log = str(tmp_path / "load-events.jsonl")
    proc, handle = spawn_cli(
        ["cluster", "--shards", "2", "--state-root", state_root,
         "--port", "0", "--metrics-port", "0",
         "--lease-ttl", "2", "--snapshot-interval", "0.3"],
        str(tmp_path / "cluster.log"))
    try:
        cluster = wait_for_json(
            os.path.join(state_root, "cluster.json"),
            lambda c: isinstance(c.get("router", {}).get("port"), int),
            time.monotonic() + 45, "router port")
        router_port = cluster["router"]["port"]
        jobs = [coadd_job(40, seed=seed) for seed in (1, 2, 3)]

        async def kill_shard_one():
            # Let snapshots and real progress accumulate first.
            await asyncio.sleep(1.0)
            with open(os.path.join(state_root, "cluster.json"),
                      encoding="utf-8") as fh:
                topology = json.load(fh)
            victim = topology["shards"][1]
            assert victim["shard"] == 1
            os.kill(victim["pid"], signal.SIGKILL)
            return victim["pid"]

        async def scenario():
            killer = asyncio.ensure_future(kill_shard_one())
            report = await run_load(
                "127.0.0.1", router_port, jobs, workers=4, sites=2,
                capacity_files=400, seconds_per_file=0.02,
                event_log=event_log, resume_window=45.0)
            return report, await killer

        report, killed_pid = run(scenario())

        # Every job finished, by the server's own books.
        assert report["shard_count"] == 2
        assert report["tasks_submitted"] == 120
        completed = sum(job["status"]["completed"]
                        for job in report["jobs"])
        assert completed == 120
        assert all(job["status"]["done"] for job in report["jobs"])
        # The crash was real and was ridden out, not avoided.
        assert report["reconnects"] >= 1

        # Exactly once, from the authoritative WAL timelines: every
        # task has exactly one accepted completion across both shards
        # and both incarnations of the killed one.
        counts = shard_wal_completions(state_root, 2)
        assert len(counts) == 120
        assert all(count == 1 for count in counts.values()), \
            {tid: c for tid, c in counts.items() if c != 1}
        # The client-side log saw no duplicate completion acks either.
        client_completes = [record["task_id"]
                           for record in iter_events(event_log)
                           if record["event"] == "complete"]
        assert len(client_completes) == len(set(client_completes))

        # The supervisor restarted shard 1 with a new pid...
        topology = wait_for_json(
            os.path.join(state_root, "cluster.json"),
            lambda c: c["shards"][1]["restarts"] >= 1,
            time.monotonic() + 10, "restart count")
        assert topology["shards"][1]["pid"] != killed_pid
        # ...and the new incarnation recovered warm: its startup line
        # names a snapshot sequence, not a cold start.
        shard_log = open(os.path.join(state_root, "shard-1",
                                      "shard-1.log"),
                         encoding="utf-8").read()
        recoveries = [line for line in shard_log.splitlines()
                      if "recovered from" in line]
        assert len(recoveries) == 2  # fresh boot + post-kill recovery
        assert "snapshot_seq=None" in recoveries[0]
        assert "snapshot_seq=None" not in recoveries[1]
        assert "snapshot_seq=" in recoveries[1]

        # The load generator drained the cluster: every shard exits
        # zero and the supervisor follows.
        assert proc.wait(timeout=45) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        handle.close()
