"""The cluster front door: redirect workers, forward control traffic.

:class:`ClusterRouter` is a :class:`~repro.serve.server.FrontEnd` —
the same listener, connection loop and wire rules as a scheduler shard
— whose dispatcher holds **no scheduling state**.  Its whole job:

* ``HELLO`` carrying ``accept_redirect`` → a ``REDIRECT`` with the
  shard map (and the negotiated codec, when the client offered any),
  and the connection stays open for control traffic.  A plain
  ``HELLO`` (a shard-oblivious client) gets a clean ``ERROR`` —
  workers are never silently misrouted to a scheduler that does not
  own their job.
* ``JOB_SUBMIT`` → forwarded to the owning shard (``job_id %
  shard_count``; a brand-new job is placed round-robin and from then
  on its id names its shard, because shards allocate ids with
  ``id_start=shard, id_stride=count``).
* ``JOB_STATUS`` → forwarded to ``job_id % shard_count``.
* ``STATS`` → fanned out to every shard, merged by
  :func:`~repro.cluster.stats.aggregate_stats`.
* ``DRAIN`` → broadcast.
* Data-plane messages (``REQUEST_TASK``, ``TASK_DONE``, ``HEARTBEAT``,
  ``FILE_DELTA``) → ``ERROR`` pointing at the redirect flow.

Each shard is reached over one :class:`~repro.cluster.link.PeerLink`.
A failed call retries inside :data:`RETRY_WINDOW_S` seconds — the
window in which the supervisor restarts a crashed shard and calls
:meth:`ClusterRouter.update_shard` with its new port — so control
traffic rides out a shard restart instead of failing fast.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Dict, List, Optional, Tuple

from ..serve import messages, protocol
from ..serve.server import FrontEnd, _Conn
from .link import PeerLink, ShardAddress
from .stats import aggregate_stats

__all__ = ["ClusterRouter"]

log = logging.getLogger("repro.cluster.router")

#: Seconds a forwarded call retries a shard: longer than a restart.
RETRY_WINDOW_S = 15.0

#: Message types the router refuses: the data plane belongs to shards.
_DATA_PLANE = (messages.RequestTask, messages.TaskDone,
               messages.Heartbeat, messages.FileDelta)


class ClusterRouter(FrontEnd):
    """Stateless protocol-v3 front end over a fixed shard map.

    Clients may negotiate every codec the protocol module knows.
    ``upstream_codec`` is the ``--codec``-style option for the
    router's own shard links: ``"json"`` (the default) keeps the plain
    JSON-lines streams, ``"binary"``/``"auto"`` negotiate an upgrade
    on connect.
    """

    def __init__(self, shards: List[ShardAddress],
                 host: str = "127.0.0.1", port: int = 0,
                 upstream_codec: str = "json"):
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        indices = sorted(address.shard for address in shards)
        if indices != list(range(len(shards))):
            raise ValueError(f"shard indices must be 0..{len(shards) - 1},"
                             f" got {indices}")
        super().__init__(host, port, protocol.DEFAULT_CODECS)
        self.shard_count = len(shards)
        self._links: Dict[int, PeerLink] = {
            address.shard: PeerLink(address, RETRY_WINDOW_S,
                                    codec=upstream_codec)
            for address in shards}
        self._next_new_job_shard = 0
        self.redirects_sent = 0
        self.rejected_hellos = 0
        self.forwarded = 0

    # -- shard map ---------------------------------------------------
    def shard_map(self) -> List[Dict]:
        """Wire-ready ``REDIRECT.shards`` entries, by shard index."""
        return [self._links[index].address.entry()
                for index in range(self.shard_count)]

    def update_shard(self, address: ShardAddress) -> None:
        """Install a restarted shard's new address (supervisor hook)."""
        if address.shard not in self._links:
            raise ValueError(f"unknown shard {address.shard}")
        log.info("shard %d moved to %s:%d", address.shard,
                 address.host, address.port)
        self._links[address.shard].replace(address)

    def shard_for_job(self, job_id: int) -> int:
        return job_id % self.shard_count

    # -- lifecycle ---------------------------------------------------
    async def start(self) -> None:
        await super().start()
        log.info("router listening on %s:%d (%d shard(s))",
                 self.host, self.port, self.shard_count)

    async def stop(self) -> None:
        await super().stop()
        for link in self._links.values():
            await link.close()

    # -- dispatch ----------------------------------------------------
    async def _forward(self, shard: int,
                       message: messages.ClientMessage,
                       ) -> messages.ServerMessage:
        try:
            reply = await self._links[shard].call(message)
        except ConnectionError as exc:
            return messages.Error(str(exc))
        self.forwarded += 1
        return reply

    async def _dispatch(self, message: messages.ClientMessage,
                        conn: _Conn) -> messages.ServerMessage:
        if isinstance(message, messages.Hello):
            codec_name = self._greet(message, conn)
            if not message.accept_redirect:
                # An old (or shard-oblivious) client: refuse cleanly
                # instead of pretending to be a scheduler it can pull
                # tasks from.
                self.rejected_hellos += 1
                return messages.Error(
                    "this address is a cluster router, not a "
                    "scheduler shard; send HELLO with "
                    "accept_redirect=true and connect to the shard "
                    "owning your job (job_id % shard_count)")
            self.redirects_sent += 1
            return messages.Redirect(
                shards=self.shard_map(),
                shard_count=self.shard_count,
                codec=codec_name)

        if isinstance(message, _DATA_PLANE):
            return messages.Error(
                f"{message.TYPE} is data-plane traffic; the router "
                f"only routes control messages — connect to the "
                f"owning shard from the REDIRECT shard map")

        if isinstance(message, messages.JobSubmit):
            if message.job_id is not None:
                shard = self.shard_for_job(message.job_id)
            else:
                shard = self._next_new_job_shard
                self._next_new_job_shard = (
                    (shard + 1) % self.shard_count)
            return await self._forward(shard, message)

        if isinstance(message, messages.JobStatusRequest):
            return await self._forward(
                self.shard_for_job(message.job_id), message)

        if isinstance(message, messages.StatsRequest):
            return messages.StatsReply(
                stats=await self.aggregated_stats())

        if isinstance(message, messages.Drain):
            replies = await asyncio.gather(
                *(self._forward(shard, messages.Drain())
                  for shard in range(self.shard_count)))
            failed = [reply.error for reply in replies
                      if isinstance(reply, messages.Error)]
            if failed:
                return messages.Error(
                    f"drain incomplete: {'; '.join(failed)}")
            return messages.Ack(draining=True)

        return messages.Error(
            f"unhandled message type {message.TYPE!r}")

    async def aggregated_stats(self) -> Dict:
        """Every shard's STATS merged into one cluster snapshot.

        A shard that cannot be reached (or answers with an ERROR) is
        not silently dropped: its failure detail lands in the
        snapshot's top-level ``"errors"`` map, keyed by shard index,
        next to the ``"shards"`` breakdown.
        """
        async def fetch(shard: int) -> Tuple[Optional[Dict],
                                             Optional[str]]:
            try:
                reply = await self._links[shard].call(
                    messages.StatsRequest())
            except ConnectionError as exc:
                return None, str(exc)  # "shard N unreachable for ..."
            if isinstance(reply, messages.StatsReply):
                return reply.stats, None
            if isinstance(reply, messages.Error):
                return None, f"STATS refused: {reply.error}"
            return None, f"unexpected {reply.TYPE} reply to STATS"

        results = await asyncio.gather(
            *(fetch(shard) for shard in range(self.shard_count)))
        errors = {shard: error
                  for shard, (_snap, error) in enumerate(results)
                  if error is not None}
        return aggregate_stats(
            [(shard, snap)
             for shard, (snap, _error) in enumerate(results)],
            shard_count=self.shard_count, errors=errors)
