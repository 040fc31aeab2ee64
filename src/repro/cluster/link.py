"""A peer is a link: one lazy request/response stream to a shard.

Whatever in the cluster tier talks *to* a shard — the router
forwarding control traffic, a thief driving the steal exchange — does
it through a :class:`PeerLink` over the ordinary client
:class:`~repro.serve.client._Connection`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Optional

from ..serve import messages, protocol
from ..serve.client import _Connection

__all__ = ["PeerLink", "ShardAddress"]


@dataclass(frozen=True)
class ShardAddress:
    """Where one shard listens."""
    shard: int
    host: str
    port: int

    def entry(self) -> Dict:
        """The ``REDIRECT.shards`` wire entry."""
        return {"shard": self.shard, "host": self.host,
                "port": self.port}


class PeerLink:
    """One lazily-connected, lock-serialized stream to one shard.

    :meth:`call` returns the shard's reply *verbatim* (including
    ``ERROR`` — a forwarder passes shard refusals on, it does not
    raise on them).  Connection failures reconnect-and-retry against
    the *current* address until ``retry_window`` runs out, so a shard
    restart (new PID, new ephemeral port installed via
    :meth:`replace`) looks like one slow call, not an outage;
    ``retry_window=0`` is one attempt, for callers with their own
    retry cadence.  Strict request/response under the lock keeps
    correlation trivial — peer traffic is low-rate.
    """

    def __init__(self, address: ShardAddress, retry_window: float,
                 retry_interval: float = 0.1, codec: str = "json"):
        self.address = address
        self.retry_window = retry_window
        self.retry_interval = retry_interval
        self.codec = codec
        self._conn: Optional[_Connection] = None
        self._lock = asyncio.Lock()

    def replace(self, address: ShardAddress) -> None:
        """Point at a restarted shard; the next attempt — of a later
        call or of one retrying right now — connects there."""
        self.address = address

    async def _ensure_open(self) -> _Connection:
        address = self.address
        if (self._conn is not None and (self._conn.host, self._conn.port)
                != (address.host, address.port)):
            await self._drop()  # predates the current address
        if self._conn is None:
            self._conn = _Connection(address.host, address.port,
                                     codec=self.codec)
            await self._conn.open()
            if self._conn.offers != [protocol.CODEC_JSON]:
                # Streams open in JSON lines (protocol v3 rule); only
                # an upgrade costs a HELLO round before traffic flows.
                try:
                    await self._conn.handshake(
                        f"peer/shard-{address.shard}", 0)
                except RuntimeError as exc:
                    raise ConnectionError(
                        f"shard {address.shard} refused hello: {exc}"
                    ) from exc
        return self._conn

    async def _drop(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            await conn.close()

    async def call(self, message: messages.ClientMessage,
                   ) -> messages.ServerMessage:
        async with self._lock:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.retry_window
            while True:
                try:
                    conn = await self._ensure_open()
                    return await conn.exchange(message)
                except (ConnectionError, OSError) as exc:
                    await self._drop()
                    if loop.time() >= deadline:
                        raise ConnectionError(
                            f"shard {self.address.shard} unreachable "
                            f"for {self.retry_window:.1f}s: {exc}"
                        ) from exc
                    await asyncio.sleep(self.retry_interval)

    async def close(self) -> None:
        async with self._lock:
            await self._drop()
