"""Cold start: a daemon imports only the daemon, and a cluster that
cannot start leaves nothing behind.

A worker of the pull service idles until its scheduler listens, and a
crashed shard comes back only through the same spawn, so start-up is
on the serving path.  The import checks run each program in a fresh
interpreter under ``-X importtime``, which logs every module the
first time it is imported, in order, on stderr.
"""

import asyncio
import json
import os
import re
import socket
import subprocess
import sys
import time

import pytest

from repro.cluster.supervisor import ClusterSupervisor
from repro.serve import messages

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: What the daemon and the supervisor never run: the simulator and the
#: experiment stack around it.
SIMULATOR = ("repro.sim", "repro.net", "repro.exp", "repro.workload",
             "repro.analysis", "repro.scenario", "repro.grid.cluster")


def env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def repro_argv(*args):
    return [sys.executable, "-X", "importtime", "-m", "repro", *args]


def imports(stderr_lines):
    """The modules ``-X importtime`` logged, in import order."""
    names = []
    for line in stderr_lines:
        if line.startswith("import time:") and "imported package" \
                not in line:
            names.append(line.rsplit("|", 1)[1].strip())
    return names


def simulator_modules(names):
    return sorted(name for name in names
                  if name in SIMULATOR or name.startswith(
                      tuple(prefix + "." for prefix in SIMULATOR)))


def wait_for_port(path, proc, deadline=60.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)["port"]
        except (FileNotFoundError, json.JSONDecodeError):
            pass
        assert proc.poll() is None, f"serve exited {proc.returncode}"
        time.sleep(0.01)
    raise AssertionError(f"no port file at {path}")


def pull_one_task(port):
    """HELLO, JOB_SUBMIT, REQUEST_TASK, TASK_DONE, FILE_DELTA, STATS
    and DRAIN over one JSON-lines connection."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=30) as sock:
        stream = sock.makefile("rwb")

        def call(message):
            stream.write(message.encode())
            stream.flush()
            return messages.decode_server(stream.readline())

        assert isinstance(call(messages.Hello(worker="w0", site=0,
                                              protocol=3)),
                          messages.Welcome)
        assert isinstance(call(messages.JobSubmit(
            tasks=[{"files": [1, 2], "flops": 1.0}])),
            messages.JobAccepted)
        task = call(messages.RequestTask())
        assert isinstance(task, messages.TaskAssign)
        assert call(messages.TaskDone(task_id=task.task_id,
                                      lease_id=task.lease_id)).accepted
        call(messages.FileDelta(added=[1, 2], referenced=[1, 2]))
        stats = call(messages.StatsRequest())
        assert stats.stats["completions"] == 1
        assert call(messages.Drain()).draining


@pytest.fixture(scope="module")
def daemon_stderr(tmp_path_factory):
    """The stderr lines of one durable ``repro serve`` that served one
    task and drained."""
    tmp = tmp_path_factory.mktemp("daemon")
    port_file = str(tmp / "port.json")
    log_path = tmp / "serve.err"
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            repro_argv("serve", "--port", "0", "--metrics-port", "0",
                       "--state-dir", str(tmp / "state"),
                       "--port-file", port_file),
            stdout=subprocess.DEVNULL, stderr=log, env=env())
        try:
            pull_one_task(wait_for_port(port_file, proc))
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return log_path.read_text(encoding="utf-8").splitlines()


def test_the_daemon_imports_no_simulator(daemon_stderr):
    names = imports(daemon_stderr)
    assert "repro.serve.server" in names
    assert simulator_modules(names) == []
    # The types the daemon shares with the simulator: a task, a job,
    # a file id.
    assert sorted(name for name in names
                  if name.startswith("repro.grid.")) == [
        "repro.grid.files", "repro.grid.job"]


def test_nothing_is_imported_while_the_daemon_serves(daemon_stderr):
    """Everything the pull path needs is loaded before the listening
    line: a lazy import would land in the first worker's latency."""
    listening = next(index for index, line in enumerate(daemon_stderr)
                     if line.startswith("repro-serve listening on"))
    drained = daemon_stderr.index("drained; final stats:")
    late = [name for name in imports(daemon_stderr[listening:drained])
            if name.startswith("repro")]
    assert late == []


def test_a_simulation_imports_no_event_loop():
    result = subprocess.run(
        repro_argv("run", "--tasks", "20", "--sites", "2"),
        capture_output=True, text=True, env=env(), timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    names = imports(result.stderr.splitlines())
    assert "repro.sim.engine" in names
    assert [name for name in names
            if name == "asyncio" or name.startswith("repro.serve")] == []


def test_a_failed_cluster_start_reports_one_line_and_imports_no_simulator(
        tmp_path):
    """The supervisor's whole module graph is loaded by the time it
    spawns; a shard whose WAL cannot be read fails the start."""
    root = tmp_path / "state"
    (root / "shard-1").mkdir(parents=True)
    (root / "shard-1" / "wal.jsonl").write_text("{not json\n")
    result = subprocess.run(
        repro_argv("cluster", "--shards", "2", "--state-root",
                   str(root), "-q"),
        capture_output=True, text=True, env=env(), timeout=60)
    assert result.returncode == 1
    names = imports(result.stderr.splitlines())
    assert "repro.cluster.router" in names
    assert simulator_modules(names) == []
    report = [line for line in result.stderr.splitlines()
              if not line.startswith("import time:")]
    assert report == [
        f"repro cluster: shard 1 exited with 1 during startup; see "
        f"{root / 'shard-1' / 'shard-1.log'}"]


def test_a_failed_start_stops_every_shard_it_spawned(tmp_path):
    """Shard 1 cannot recover; shard 0 booted beside it.  The start
    raises naming shard 1's log, and no shard process outlives it."""
    root = tmp_path / "state"
    (root / "shard-1").mkdir(parents=True)
    (root / "shard-1" / "wal.jsonl").write_text("{not json\n")

    async def start():
        supervisor = ClusterSupervisor(shards=2, state_root=str(root))
        with pytest.raises(RuntimeError,
                           match=re.escape(supervisor.shard_log_path(1))):
            await supervisor.start()
        return supervisor

    supervisor = asyncio.run(asyncio.wait_for(start(), timeout=60))
    pids = [shard["pid"] for shard in supervisor.describe()["shards"]]
    assert all(pids), pids
    # Shard 0 was up: it had written its bound ports.
    assert (root / "shard-0" / "port.json").exists()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _modules():
    """Every module under src/repro, by dotted name."""
    root = os.path.join(REPO_SRC, "repro")
    names = []
    for directory, _dirs, files in os.walk(root):
        package = os.path.relpath(directory, REPO_SRC).replace(os.sep, ".")
        for filename in sorted(files):
            if filename == "__init__.py":
                names.append(package)
            elif filename.endswith(".py") and filename != "__main__.py":
                names.append(f"{package}.{filename[:-3]}")
    return sorted(names)


@pytest.mark.parametrize("module", _modules())
def test_every_module_imports_first_and_exports_what_it_lists(module):
    """The package inits resolve their re-exports lazily, so a module
    can be the first one a program imports, with no package init having
    loaded its siblings in a friendlier order.  Each must import alone,
    and each name in a package's ``__all__`` must resolve and appear in
    ``dir()``."""
    script = (
        "import importlib\n"
        f"module = importlib.import_module({module!r})\n"
        "listed = dir(module)\n"
        "for export in getattr(module, '__all__', ()):\n"
        "    assert export in listed, export\n"
        "    getattr(module, export)\n")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, env=env(),
                            timeout=60)
    assert result.returncode == 0, result.stderr[-2000:]


def test_the_parser_names_what_the_registry_and_scales_hold():
    """``build_parser`` spells out the scheduler and scale names so
    that building it imports neither the registry nor ``exp.config``;
    these are the same names."""
    script = (
        "import sys\n"
        "from repro.cli import build_parser\n"
        "build_parser()\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m in ('repro.core.registry', 'repro.exp.config')))\n")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, env=env(),
                            timeout=60)
    assert result.stdout.strip() == "[]", result.stderr[-2000:]

    from repro import cli
    from repro.core.registry import PAPER_ALGORITHMS, available_schedulers
    from repro.exp.config import SCALES
    assert cli.PAPER_ALGORITHMS == PAPER_ALGORITHMS
    assert cli.SCHEDULERS == available_schedulers()
    assert cli.SCALE_NAMES == sorted(SCALES)
