"""The cluster supervisor: spawn, watch and restart shard processes.

``repro cluster --shards N`` builds one :class:`ClusterSupervisor`.
It spawns N ``repro serve`` shard processes at once (each with ``--port 0``,
``--metrics-port 0``, its own state directory, the
``--shard-index/--shard-count`` id strides, ``--cluster-file``, and
then ``shard_args`` — the scheduler flags ``repro cluster`` was given,
forwarded verbatim), learns each shard's
ephemeral ports through a *port-file handshake* — the shard writes
``{"port": ..., "metrics_port": ...}`` to ``--port-file`` once bound
— then starts the :class:`~repro.cluster.router.ClusterRouter` over
the live shard map and publishes the whole topology to
``<state-root>/cluster.json`` (the file tests and operators read to
find ports and PIDs, e.g. to ``kill -9`` a shard).

Failure policy: a shard that exits **nonzero** (or by signal — a
``kill -9`` shows up as ``-9``) is restarted after a short backoff;
the restarted process recovers from its snapshot + WAL tail, the
router's shard map is updated with the new port, and ``cluster.json``
is rewritten.  A shard that exits **zero** finished a drain — it is
not restarted, and once every shard drained the supervisor's
:meth:`wait` returns.  Each shard's stdout/stderr goes to
``<state-dir>/shard-<i>.log`` (the CI smoke job uploads these on
failure).

The supervisor also serves an optional HTTP endpoint
(``--metrics-port``): ``/stats.json`` is the router's *aggregated*
cluster snapshot (refreshed in the background — HTTP handlers must
not await), ``/cluster.json`` the live topology, ``/healthz`` the
per-shard liveness.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import sys
from typing import Dict, List, Optional, Sequence

from ..obs.http import ObsHttpServer
from .link import ShardAddress
from .router import ClusterRouter

__all__ = ["ClusterSupervisor"]

log = logging.getLogger("repro.cluster.supervisor")

#: Seconds between looks at a booting shard's port file.  A shard
#: listens 0.15-0.3 s after its spawn, so a coarser poll would be a
#: visible share of every (re)start.
HANDSHAKE_POLL_S = 0.005


class ClusterSupervisor:
    """Owns N shard subprocesses, their router, and ``cluster.json``."""

    def __init__(self, shards: int, state_root: str,
                 host: str = "127.0.0.1", router_port: int = 0,
                 metrics_port: Optional[int] = None,
                 max_restarts: int = 20,
                 restart_backoff: float = 0.25,
                 spawn_timeout: float = 30.0,
                 stats_refresh: float = 1.0,
                 codec: str = "json",
                 shard_args: Sequence[str] = ()):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.shards = shards
        self.state_root = state_root
        self.host = host
        self.router_port = router_port
        self.metrics_port = metrics_port
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self.spawn_timeout = spawn_timeout
        self.stats_refresh = stats_refresh
        #: ``--codec`` stance for the router's own shard streams.
        self.codec = codec
        #: ``repro serve`` flags appended to every shard's command
        #: line as they are; their names and defaults live in the CLI.
        self.shard_args = list(shard_args)
        self.router: Optional[ClusterRouter] = None
        self.obs_server: Optional[ObsHttpServer] = None
        self._procs: Dict[int, asyncio.subprocess.Process] = {}
        self._ports: Dict[int, int] = {}
        self._metrics_ports: Dict[int, Optional[int]] = {}
        self._restarts: Dict[int, int] = {index: 0
                                          for index in range(shards)}
        self._log_handles: Dict[int, object] = {}
        self._monitors: List[asyncio.Task] = []
        self._refresher: Optional[asyncio.Task] = None
        self._stats_cache: Dict = {}
        self._drained_shards: set = set()
        self._all_drained = asyncio.Event()
        self._stopping = False

    # -- paths -------------------------------------------------------
    def shard_state_dir(self, index: int) -> str:
        return os.path.join(self.state_root, f"shard-{index}")

    def _port_file(self, index: int) -> str:
        return os.path.join(self.shard_state_dir(index), "port.json")

    def shard_log_path(self, index: int) -> str:
        return os.path.join(self.shard_state_dir(index),
                            f"shard-{index}.log")

    @property
    def cluster_file(self) -> str:
        return os.path.join(self.state_root, "cluster.json")

    # -- lifecycle ---------------------------------------------------
    async def start(self) -> None:
        """Boot every shard at once, then the router over them.

        A start that fails stops whatever it had started, shard
        processes included, before it re-raises: a shard that could
        not recover must not leave its peers running unsupervised.
        """
        os.makedirs(self.state_root, exist_ok=True)
        try:
            await self._start()
        except BaseException:
            await self.stop()
            raise

    async def _start(self) -> None:
        # Every spawn runs to its handshake or its failure, so none is
        # still creating a process when a failed start cleans up.
        results = await asyncio.gather(
            *(self._spawn(index) for index in range(self.shards)),
            return_exceptions=True)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        self.router = ClusterRouter(
            [ShardAddress(index, self.host, self._ports[index])
             for index in range(self.shards)],
            host=self.host, port=self.router_port,
            upstream_codec=self.codec)
        await self.router.start()
        self.router_port = self.router.port
        if self.metrics_port is not None:
            self.obs_server = ObsHttpServer(
                registry=None, host=self.host, port=self.metrics_port,
                json_routes={
                    "/stats.json": lambda: self._stats_cache,
                    "/cluster.json": self.describe,
                },
                health=self._health)
            await self.obs_server.start()
            self.metrics_port = self.obs_server.port
        loop = asyncio.get_running_loop()
        self._monitors = [loop.create_task(self._monitor(index))
                          for index in range(self.shards)]
        self._refresher = loop.create_task(self._refresh_stats())
        self._write_cluster_file()
        log.info("cluster up: router %s:%d over %d shard(s); "
                 "topology in %s", self.host, self.router_port,
                 self.shards, self.cluster_file)

    async def wait(self) -> None:
        """Blocks until every shard drained (exited zero)."""
        await self._all_drained.wait()

    async def stop(self) -> None:
        self._stopping = True
        for task in self._monitors + (
                [self._refresher] if self._refresher else []):
            task.cancel()
        for task in self._monitors:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        if self._refresher is not None:
            with contextlib.suppress(asyncio.CancelledError):
                await self._refresher
            self._refresher = None
        self._monitors = []
        await asyncio.gather(*(self._terminate(proc)
                               for proc in self._procs.values()))
        if self.obs_server is not None:
            await self.obs_server.stop()
            self.obs_server = None
        if self.router is not None:
            await self.router.stop()
        for handle in self._log_handles.values():
            handle.close()
        self._log_handles.clear()

    # -- shard processes ---------------------------------------------
    @staticmethod
    async def _terminate(proc: asyncio.subprocess.Process) -> None:
        if proc.returncode is None:
            proc.terminate()
            try:
                await asyncio.wait_for(proc.wait(), timeout=5)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()

    def _shard_command(self, index: int) -> List[str]:
        return [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host, "--port", "0",
            "--metrics-port", "0",
            "--state-dir", self.shard_state_dir(index),
            "--shard-index", str(index),
            "--shard-count", str(self.shards),
            "--port-file", self._port_file(index),
            # Read only by a shard that steals: one with a watermark
            # among ``shard_args`` and a peer (``--shard-count`` > 1).
            "--cluster-file", self.cluster_file,
            *self.shard_args]

    def _shard_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        # The shard must import the same ``repro`` this process runs.
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing
                                if existing else ""))
        return env

    async def _spawn(self, index: int) -> None:
        state_dir = self.shard_state_dir(index)
        os.makedirs(state_dir, exist_ok=True)
        port_file = self._port_file(index)
        with contextlib.suppress(FileNotFoundError):
            os.remove(port_file)  # never read a stale handshake
        old_handle = self._log_handles.pop(index, None)
        if old_handle is not None:
            old_handle.close()
        log_handle = open(self.shard_log_path(index), "a",
                          encoding="utf-8")
        self._log_handles[index] = log_handle
        proc = await asyncio.create_subprocess_exec(
            *self._shard_command(index),
            stdout=log_handle, stderr=log_handle,
            env=self._shard_env())
        self._procs[index] = proc
        ports = await self._await_port_file(index, proc)
        self._ports[index] = ports["port"]
        self._metrics_ports[index] = ports.get("metrics_port")
        log.info("shard %d up: pid %d, port %d (log: %s)", index,
                 proc.pid, ports["port"], self.shard_log_path(index))

    async def _await_port_file(self, index: int,
                               proc: asyncio.subprocess.Process,
                               ) -> Dict:
        """Poll for the shard's bound-ports handshake file."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.spawn_timeout
        port_file = self._port_file(index)
        while True:
            try:
                with open(port_file, "r", encoding="utf-8") as handle:
                    ports = json.load(handle)
                if isinstance(ports.get("port"), int):
                    return ports
            except (FileNotFoundError, json.JSONDecodeError):
                pass  # not written (fully) yet
            if proc.returncode is not None:
                raise RuntimeError(
                    f"shard {index} exited with {proc.returncode} "
                    f"during startup; see "
                    f"{self.shard_log_path(index)}")
            if loop.time() >= deadline:
                raise RuntimeError(
                    f"shard {index} did not report its port within "
                    f"{self.spawn_timeout:.0f}s; see "
                    f"{self.shard_log_path(index)}")
            await asyncio.sleep(HANDSHAKE_POLL_S)

    async def _monitor(self, index: int) -> None:
        """Restart on crash; mark drained on clean (zero) exit."""
        while True:
            proc = self._procs[index]
            returncode = await proc.wait()
            if self._stopping:
                return
            if returncode == 0:
                log.info("shard %d drained (pid %d)", index, proc.pid)
                self._drained_shards.add(index)
                self._write_cluster_file()
                if len(self._drained_shards) == self.shards:
                    self._all_drained.set()
                return
            self._restarts[index] += 1
            if self._restarts[index] > self.max_restarts:
                log.error("shard %d exceeded %d restarts; giving up",
                          index, self.max_restarts)
                self._drained_shards.add(index)
                if len(self._drained_shards) == self.shards:
                    self._all_drained.set()
                return
            log.warning("shard %d (pid %d) exited with %s; "
                        "restarting (%d/%d)", index, proc.pid,
                        returncode, self._restarts[index],
                        self.max_restarts)
            await asyncio.sleep(self.restart_backoff)
            await self._spawn(index)
            self.router.update_shard(ShardAddress(
                index, self.host, self._ports[index]))
            self._write_cluster_file()

    # -- topology + stats --------------------------------------------
    def describe(self) -> Dict:
        return {
            "router": {"host": self.host, "port": self.router_port},
            "metrics": ({"host": self.host, "port": self.metrics_port}
                        if self.metrics_port is not None else None),
            "shard_count": self.shards,
            "partition": "job-mod",
            "shards": [
                {"shard": index,
                 "pid": (self._procs[index].pid
                         if index in self._procs else None),
                 "host": self.host,
                 "port": self._ports.get(index),
                 "metrics_port": self._metrics_ports.get(index),
                 "state_dir": self.shard_state_dir(index),
                 "log": self.shard_log_path(index),
                 "restarts": self._restarts[index],
                 "drained": index in self._drained_shards}
                for index in range(self.shards)],
        }

    def _health(self) -> Dict:
        alive = sum(1 for proc in self._procs.values()
                    if proc.returncode is None)
        return {"status": "ok" if alive or self._all_drained.is_set()
                          else "down",
                "shards": self.shards, "alive": alive,
                "drained": len(self._drained_shards)}

    def _write_cluster_file(self) -> None:
        tmp_path = self.cluster_file + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(self.describe(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, self.cluster_file)

    async def _refresh_stats(self) -> None:
        """Keep the HTTP ``/stats.json`` cache warm (handlers are
        sync, aggregation awaits the shards)."""
        while True:
            try:
                self._stats_cache = await self.router.aggregated_stats()
            except Exception:  # noqa: BLE001 - keep refreshing
                log.exception("cluster stats refresh failed")
            await asyncio.sleep(self.stats_refresh)
