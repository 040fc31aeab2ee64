"""Shard-to-shard work stealing: the thief-side control loop.

A drained shard — pending queue under the ``--steal-watermark``, idle
unscoped pulls parked — should not sit still while a sibling shard buckles
under a skewed job.  The :class:`StealManager` runs next to each
shard's server and drives the protocol-v3 steal exchange as the TCP
*client* (the thief), over the same negotiated codec streams workers
use:

1. ``STEAL_REQUEST {max_tasks, site_refsums}`` → the most-loaded peer
   (discovered from the supervisor's published ``cluster.json``
   topology, or a static peer list in embedded setups; ranked by the
   peers' ``STATS`` queue depth).  ``site_refsums`` ships the thief's
   per-site residency + reference counts so the victim can export the
   tasks with the *lowest locality loss* — the batch that scores best
   at the thief's sites under the victim's own metric.
2. ``STEAL_GRANT {tasks, export_id}`` → the victim has already
   WAL-logged the export (durable before the grant hits the wire) and
   detached the tasks from its pending set.
3. The thief WALs a *tentative* import, commits it, then sends
   ``STEAL_ACK {export_id}``.  Only the victim's accepted answer —
   itself WAL'd victim-side before the reply — activates the import:
   the stolen tasks enter the thief's engine under their original
   (stride-disjoint) ids and are leased to local workers normally.

Completions of stolen tasks do not count locally: the thief WALs a
``steal-task-done`` marker, queues the id in a per-origin outbox, and
this manager forwards ``STEAL_DONE {task_ids}`` batches home, where
the victim lands the canonical ``complete`` record and the per-job
counters — so ``JOB_STATUS`` stays exact no matter where a task ran.
Forwarding is at-least-once (the outbox entry is pruned only after
the origin's ack) against an idempotent receiver.

Crash safety is the whole point of the ack dance: a tentative import
that survives a thief crash is *re-acked* on startup — the victim
answers deterministically from its own WAL (acked → run it; requeued
by the victim's own recovery → drop it) — so a task is never lost and
never runs on both sides.  See ``docs/cluster.md`` for the full
exactly-once argument.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
from typing import Dict, List, Optional, Tuple

from ..serve import messages
from ..serve.server import commit_or_exit
from ..serve.service import SchedulerService
from .link import PeerLink, ShardAddress

__all__ = ["StealManager"]

log = logging.getLogger("repro.cluster.steal")

#: Cap on tasks requested per STEAL_REQUEST.
MAX_STEAL_TASKS = 64


class StealManager:
    """Drives one shard's thief half and its completion forwarding.

    ``peers`` pins a static topology (embedded/benchmark setups):
    ``{shard_index: (host, port)}``.  ``cluster_file`` instead points
    at the supervisor's ``cluster.json`` and is re-read whenever it
    changed, so restarts (new ephemeral ports) and drained peers are
    picked up live.  One of the two must be provided.

    Once started, the loop runs a tick as soon as the service parks an
    unscoped pull (its ``on_steal_demand`` slot), and otherwise every
    ``interval`` seconds, which is the retry cadence for steals that
    found no victim and for forwarding.
    """

    def __init__(self, service: SchedulerService, shard_index: int,
                 peers: Optional[Dict[int, Tuple[str, int]]] = None,
                 cluster_file: Optional[str] = None,
                 interval: float = 0.05,
                 codec: str = "auto"):
        if peers is None and cluster_file is None:
            raise ValueError("need a static peers map or a cluster_file")
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.service = service
        self.shard_index = shard_index
        self.cluster_file = cluster_file
        self.interval = interval
        self.codec = codec
        #: One link per live peer; ``retry_window=0`` because the next
        #: tick — which re-reads the topology first — is the retry.
        self._links: Dict[int, PeerLink] = {
            shard: self._link(ShardAddress(shard, *address))
            for shard, address in (peers or {}).items()}
        self._task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        #: ``(st_ino, st_mtime_ns, st_size)`` of the topology last read.
        self._topology_key: Optional[Tuple[int, int, int]] = None
        #: Loop-level counters, for tests and debugging.
        self.steal_attempts = 0
        self.steal_grants = 0
        self.forward_batches = 0

    # -- lifecycle ---------------------------------------------------
    async def start(self) -> None:
        self._wake = asyncio.Event()
        self.service.on_steal_demand = self._wake.set
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        self.service.on_steal_demand = None
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        for link in self._links.values():
            await link.close()

    async def _run(self) -> None:
        wake = self._wake
        while True:
            # Cleared before the tick: a pull that parks while the
            # tick awaits a peer sets it again and gets its own tick.
            wake.clear()
            try:
                await self.tick()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - peers come and go
                log.debug("steal tick failed", exc_info=True)
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(wake.wait(), self.interval)

    async def tick(self) -> None:
        """One pass: refresh topology, settle tentative imports,
        forward completions, then maybe steal.  Public so embedded
        setups (benchmarks, scenarios) can drive it deterministically
        without the background task."""
        await self._refresh_peers()
        await self._resolve_tentative()
        await self._forward_completions()
        await self._maybe_steal()

    # -- topology ----------------------------------------------------
    def _link(self, address: ShardAddress) -> PeerLink:
        return PeerLink(address, retry_window=0.0, codec=self.codec)

    async def _refresh_peers(self) -> None:
        if self.cluster_file is None:
            return
        # The supervisor rewrites the file through os.replace, so a
        # new topology is a new inode: parse only when the stat moved.
        try:
            stat = os.stat(self.cluster_file)
        except OSError:
            return  # not written yet (startup)
        key = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
        if key == self._topology_key:
            return
        try:
            with open(self.cluster_file, "r", encoding="utf-8") as fh:
                topology = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return  # replaced since the stat, or mid-rewrite
        self._topology_key = key
        peers: Dict[int, ShardAddress] = {}
        for entry in topology.get("shards", []):
            shard = entry.get("shard")
            port = entry.get("port")
            if (not isinstance(shard, int) or shard == self.shard_index
                    or not isinstance(port, int)
                    or entry.get("drained")):
                continue
            peers[shard] = ShardAddress(
                shard, entry.get("host", "127.0.0.1"), port)
        for shard in set(self._links) - set(peers):
            await self._links.pop(shard).close()  # gone or drained
        for shard, address in peers.items():
            if shard in self._links:
                self._links[shard].replace(address)  # maybe restarted
            else:
                self._links[shard] = self._link(address)

    async def _call(self, shard: int, message) -> Optional[
            messages.ServerMessage]:
        """One request/response to a peer; None while unreachable.

        Commits the WAL first: whatever this shard recorded (the
        tentative ``steal-import`` before ``STEAL_ACK`` above all) is
        in the OS before a peer can act on it.  A failed commit ends
        the process (:func:`~repro.serve.server.commit_or_exit`)."""
        link = self._links.get(shard)
        if link is None:
            return None
        events = self.service.events
        if events is not None:
            commit_or_exit(events.flush)
        try:
            return await link.call(message)
        except ConnectionError:
            return None

    # -- the three duties --------------------------------------------
    async def _resolve_tentative(self) -> None:
        """Re-ack tentative imports (startup recovery + live retry).

        The victim's answer is deterministic: accepted if its durable
        ack record exists (or the export is still live), refused if
        its recovery already requeued the export.  Either answer
        settles the import exactly once.
        """
        for origin, export_id in self.service.pending_steal_imports():
            reply = await self._call(
                origin, messages.StealAck(export_id=export_id))
            if not isinstance(reply, messages.Ack):
                continue  # peer unreachable: retry next tick
            if reply.accepted:
                count = self.service.steal_commit_import(origin,
                                                         export_id)
                log.info("activated %d stolen task(s) from shard %d "
                         "(export %d)", count, origin, export_id)
            else:
                self.service.steal_abort_import(origin, export_id)
                log.info("dropped refused import from shard %d "
                         "(export %d)", origin, export_id)

    async def _forward_completions(self) -> None:
        """Drain the per-origin outbox (at-least-once sender)."""
        outbox = self.service.take_steal_completions()
        for origin in sorted(outbox):
            task_ids = outbox[origin]
            reply = await self._call(
                origin, messages.StealDone(task_ids=task_ids))
            if isinstance(reply, messages.Ack) and reply.accepted:
                self.service.steal_forwarded(origin, task_ids)
                self.forward_batches += 1

    async def _maybe_steal(self) -> None:
        # A stolen task belongs to a foreign job, so only an unscoped
        # pull can ever run it: pulls scoped to a job are no demand.
        service = self.service
        watermark = service.steal_watermark
        parked = service.parked_unscoped
        if (watermark is None or service.draining
                or service.queue_depth >= watermark
                or parked == 0
                or service.pending_steal_imports()):
            return
        victim = await self._pick_victim(watermark)
        if victim is None:
            return
        want = min(MAX_STEAL_TASKS,
                   max(parked, watermark - service.queue_depth))
        self.steal_attempts += 1
        reply = await self._call(victim, messages.StealRequest(
            max_tasks=want, site_refsums=self._site_refsums()))
        if not isinstance(reply, messages.StealGrant) or not reply.tasks:
            return
        service.steal_import_tentative(victim, reply.export_id,
                                       reply.tasks)
        ack = await self._call(
            victim, messages.StealAck(export_id=reply.export_id))
        if not isinstance(ack, messages.Ack):
            return  # stream died: the tentative import re-acks later
        if ack.accepted:
            count = service.steal_commit_import(victim, reply.export_id)
            self.steal_grants += 1
            log.info("stole %d task(s) from shard %d (export %d)",
                     count, victim, reply.export_id)
        else:
            service.steal_abort_import(victim, reply.export_id)

    async def _pick_victim(self, watermark: int) -> Optional[int]:
        """The peer with the deepest pending queue, if it is worth
        asking (deeper than the watermark — a victim never exports
        below its own)."""
        best: Optional[int] = None
        best_depth = watermark
        for shard in sorted(self._links):
            reply = await self._call(shard, messages.StatsRequest())
            if not isinstance(reply, messages.StatsReply):
                continue
            depth = reply.stats.get("queue_depth", 0)
            if depth > best_depth:
                best, best_depth = shard, depth
        return best

    def _site_refsums(self) -> List[Dict]:
        """The thief's per-site residency + reference counts, in the
        wire shape ``{"site", "files", "refs"}`` (parallel lists)."""
        engine = self.service.engine
        out: List[Dict] = []
        for site_id in sorted(engine.site_ids):
            files, refs = engine.site_state(site_id).summary()
            out.append({"site": site_id, "files": files, "refs": refs})
        return out
