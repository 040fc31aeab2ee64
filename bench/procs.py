"""Child processes of the benchmark: the real ``repro`` CLI.

Every program under test runs as ``python -m repro <subcommand>`` in
its own session (so a whole process tree — a cluster supervisor and
its shards — can be killed as one group), with stdout/stderr sent to
files in a scratch directory inside the checkout.  Children are reaped
with ``wait4`` so their CPU time comes from the kernel's ``rusage``
(peak RSS is read from ``/proc`` while they live), and :class:`Sandbox` guarantees that no process and no
scratch directory outlives a pass, however it ends.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, "bench", "trace")
SCRATCH = os.path.join(ROOT, ".bench_tmp")

#: How long a drained/finished child may take to exit on its own.
EXIT_TIMEOUT = 20.0


def _on_cpu_ns(pid: int) -> int:
    """Nanoseconds a live process's threads have spent on a CPU
    (``/proc/<pid>/task/*/schedstat``); 0 if it is gone or the kernel
    does not keep the figure."""
    total = 0
    try:
        for thread in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{thread}/schedstat", "rb") as stat:
                total += int(stat.read().split()[0])
    except (OSError, ValueError, IndexError):
        pass
    return total


def _peak_rss_kb(pid: int) -> int:
    """``VmHWM`` of a live process: the peak RSS of its *current*
    address space (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


class Child:
    """One spawned CLI process and, once reaped, its ``rusage``."""

    def __init__(self, proc: subprocess.Popen, spawned_at: float):
        self.proc = proc
        self.pid = proc.pid
        self.spawned_at = spawned_at
        #: Processes this child started itself (a cluster's shards).
        self.descendants: List[int] = []
        self.cpu_s = 0.0
        self.max_rss_kb = 0
        self.reaped = False

    def sample_rss(self) -> None:
        """Raise ``max_rss_kb`` to the current peak RSS of the child and
        its descendants.  ``ru_maxrss`` from ``wait4`` cannot be used:
        it also covers the moments between fork and exec, when the child
        still runs in a copy of *this* process's memory, so it reports
        the benchmark's own size whenever that is the larger one."""
        self.max_rss_kb = max(
            [self.max_rss_kb] + [_peak_rss_kb(pid) for pid
                                 in [self.pid] + self.descendants])

    def cpu_ns(self) -> int:
        """CPU consumed so far by the child and its descendants: the
        scheduler's running count while it lives, its rusage after."""
        if self.reaped:
            return int(self.cpu_s * 1e9)
        return sum(_on_cpu_ns(pid)
                   for pid in [self.pid] + self.descendants)

    def poll(self, block: bool = False) -> Optional[int]:
        """Reap the child if it has exited (``block`` waits for it);
        returns its exit code, or None while it runs.  ``wait4`` is
        the only reaper — ``Popen.poll`` would discard the rusage."""
        if not self.reaped:
            pid, status, usage = os.wait4(
                self.pid, 0 if block else os.WNOHANG)
            if not pid:
                return None
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.cpu_s = usage.ru_utime + usage.ru_stime
            self.reaped = True
        return self.proc.returncode

    def wait(self, timeout: float = EXIT_TIMEOUT) -> int:
        """Reap the child, killing its group if it outlives
        ``timeout``; returns the exit code."""
        deadline = time.monotonic() + timeout
        while self.poll() is None:
            if time.monotonic() >= deadline:
                self.kill()
                return self.poll(block=True)
            self.sample_rss()
            time.sleep(0.01)
        return self.proc.returncode

    def kill(self) -> None:
        """SIGKILL the child's whole process group."""
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def signal(self, signum: int) -> None:
        os.kill(self.pid, signum)

    def group_alive(self) -> bool:
        try:
            os.killpg(self.pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        return True


class Sandbox:
    """Scratch directory + process registry for one pass.

    ``traced`` switches the children into traced mode: the
    benchmark's ``sitecustomize`` directory goes first on their
    ``PYTHONPATH`` and they dump their spans under ``trace_dir``.
    """

    def __init__(self, label: str, traced: bool = False):
        os.makedirs(SCRATCH, exist_ok=True)
        self.path = os.path.join(
            SCRATCH, f"{label}-{os.getpid()}-{time.monotonic_ns()}")
        os.makedirs(self.path)
        self.children: List[Child] = []
        self.trace_dir: Optional[str] = None
        if traced:
            self.trace_dir = os.path.join(self.path, "spans")
            os.makedirs(self.trace_dir)
        self._logs = 0

    def __enter__(self) -> "Sandbox":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        path = [SRC]
        if self.trace_dir is not None:
            path.insert(0, TRACE_DIR)
            env["BENCH_TRACE_DIR"] = self.trace_dir
        else:
            env.pop("BENCH_TRACE_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(path)
        return env

    def spawn(self, args: List[str],
              stdout_name: Optional[str] = None) -> Child:
        """Start ``python -m repro <args>``; stderr (and stdout unless
        ``stdout_name`` captures it separately) goes to a log file."""
        self._logs += 1
        log = open(self.file(f"child-{self._logs}.log"), "wb")
        out = open(self.file(stdout_name), "wb") if stdout_name else log
        try:
            spawned_at = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                stdin=subprocess.DEVNULL, stdout=out, stderr=log,
                cwd=self.path, env=self.env(), start_new_session=True)
        finally:
            log.close()
            if out is not log:
                out.close()
        child = Child(proc, spawned_at)
        self.children.append(child)
        return child

    def await_json(self, path: str, child: Child, key: str,
                   timeout: float = 30.0) -> Dict:
        """Poll for a handshake file (``--port-file`` /
        ``cluster.json``) until it holds ``key``."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                if payload.get(key) is not None:
                    return payload
            except (FileNotFoundError, json.JSONDecodeError):
                pass
            if child.poll() is not None:
                raise RuntimeError(
                    f"child {child.pid} exited with "
                    f"{child.proc.returncode} before {path} appeared")
            if time.monotonic() >= deadline:
                raise RuntimeError(f"{path} did not appear in "
                                   f"{timeout:.0f}s")
            time.sleep(0.001)

    def close(self) -> None:
        """Kill whatever still runs, wait until every process group is
        empty, and remove the scratch directory."""
        for child in self.children:
            if not child.reaped:
                child.kill()
                child.wait(timeout=5.0)
        deadline = time.monotonic() + 10.0
        for child in self.children:
            while child.group_alive() and time.monotonic() < deadline:
                child.kill()
                time.sleep(0.01)
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another pass still has a directory there
