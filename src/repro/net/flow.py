"""Flow-level network simulation with progressive max-min fair sharing.

This is the SimGrid-style network model the paper's simulations rely on:
a transfer is a *flow* along a fixed route; all flows crossing a link
share its bandwidth max-min fairly; whenever a flow starts or finishes,
every rate is recomputed (water-filling) and the next completion is
re-scheduled.

The model captures the two effects the paper leans on:

* a site's workers and data server share one uplink, so concurrent
  transfers into a site contend with each other, and
* transfer time scales with bytes over the bottleneck link.

The rates depend only on how many active flows take each path, so a
recompute looks them up by that multiset and water-fills only a set it
has not seen (see :meth:`FlowNetwork._water_fill` for why that is
exact).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.engine import Environment
from ..sim.events import Event
from .topology import Route, Topology

#: Remaining-bytes threshold under which a flow counts as finished.
#: Guards against float drift accumulating over rate recomputations.
_EPSILON_BYTES = 1e-6

#: Defensive floor on flow rates.  Float drift in the water-filling loop
#: could otherwise assign a flow exactly 0 bytes/s and stall the clock.
_MIN_RATE = 1e-9

_INF = float("inf")

#: Most sets of active paths whose rates a network keeps; a full table
#: is cleared.  An entry costs ~0.5 KB on the default 10-site grid (20
#: paths; 12 bytes more per path the network has seen), so a full
#: table there holds ~1 MB.
RATE_TABLE_SIZE = 2048


@dataclass(frozen=True)
class TransferStats:
    """Completion record for one finished flow."""

    src: str
    dst: str
    size: float
    requested_at: float
    started_at: float   # admission time (request + route latency)
    finished_at: float

    @property
    def duration(self) -> float:
        """Wall time from request to completion (includes latency)."""
        return self.finished_at - self.requested_at


class _Flow:
    """Internal mutable state of one active transfer."""

    __slots__ = ("route", "path", "size", "remaining", "rate", "done",
                 "requested_at", "started_at")

    def __init__(self, route: Route, path: int, size: float, done: Event,
                 requested_at: float):
        self.route = route
        #: The interned id of the route's set of links.
        self.path = path
        self.size = size
        self.remaining = size
        self.rate = 0.0
        self.done = done
        self.requested_at = requested_at
        self.started_at = requested_at  # set again on admission


class FlowNetwork:
    """Executes transfers over a :class:`Topology` with max-min sharing.

    Parameters
    ----------
    env:
        Simulation environment.
    topology:
        The network graph; routes are resolved through it.

    Each distinct set of links a flow crosses is a *path*, interned to
    a small int (a route and its reverse are one path).  The network
    keeps how many active flows take each path; that multiset keys a
    table of per-path rates, and only a miss water-fills.
    """

    def __init__(self, env: Environment, topology: Topology):
        self.env = env
        self.topology = topology
        #: Active flows in admission order.
        self._flows: List[_Flow] = []
        self._last_update = env.now
        #: The pending completion timer; an older one fires as a no-op.
        self._timer: Optional[Event] = None
        #: Route link ids (and a path's own, ascending) -> path id; path
        #: id -> its link ids, ascending.
        self._path_of: Dict[Tuple[int, ...], int] = {}
        self._path_links: List[Tuple[int, ...]] = []
        #: Path id -> active flows taking it.  Its bytes are the key of
        #: the rate table.
        self._path_count = array("I")
        #: Active-path multiset -> rate per path id.
        self._rate_table: Dict[bytes, List[float]] = {}
        #: Recomputes, and the water-fills among them (the misses).
        self._recomputes = 0
        self._water_fills = 0
        # Per link id: bandwidth, and the water-filling's active paths,
        # remaining capacity, count of unfixed flows and fair share.
        # Grown on demand if the topology gains links.
        self._bandwidth: List[float] = []
        self._crossing: List[List[int]] = []
        self._cap: List[float] = []
        self._count: List[int] = []
        self._share: List[float] = []
        #: Cumulative counters for analysis.
        self.completed_transfers = 0
        self.bytes_transferred = 0.0

    # -- public API ----------------------------------------------------
    @property
    def active_flow_count(self) -> int:
        return len(self._flows)

    def transfer(self, src: str, dst: str, size: float) -> Event:
        """Start moving ``size`` bytes from ``src`` to ``dst``.

        Returns an event whose value is a :class:`TransferStats` once the
        last byte arrives.  Zero-byte and same-node transfers complete
        after the route latency alone.
        """
        if size < 0:
            raise ValueError(f"negative transfer size {size}")
        route = self.topology.route(src, dst)
        done = Event(self.env)
        requested_at = self.env.now
        latency = route.latency

        if size == 0 or not route.links:
            stats = TransferStats(src, dst, size, requested_at,
                                  requested_at + latency,
                                  requested_at + latency)
            self.completed_transfers += 1
            self.bytes_transferred += size
            done.succeed(stats, delay=latency)
            return done

        path = self._path_of.get(route.link_ids)
        if path is None:
            path = self._intern(route.link_ids)
        admit = self.env.timeout(
            latency, _Flow(route, path, size, done, requested_at))
        admit.callbacks.append(self._admit)
        return done

    # -- internals -------------------------------------------------------
    def _intern(self, link_ids: Tuple[int, ...]) -> int:
        """The path id of a route not seen before."""
        links = tuple(sorted(link_ids))
        path = self._path_of.get(links)
        if path is None:
            path = self._path_of[links] = len(self._path_links)
            self._path_links.append(links)
            self._path_count.append(0)
            if links[-1] >= len(self._bandwidth):
                self._grow()
        self._path_of[link_ids] = path
        return path

    def _grow(self) -> None:
        """Extend the per-link lists to every link of the topology."""
        links = self.topology.links
        for link in links[len(self._bandwidth):]:
            self._bandwidth.append(link.bandwidth)
            self._crossing.append([])
            self._cap.append(0.0)
            self._count.append(0)
            self._share.append(0.0)

    def _admit(self, event: Event) -> None:
        flow: _Flow = event.value
        flow.started_at = self.env.now
        self._flows.append(flow)
        self._path_count[flow.path] += 1
        self._update()

    def _update(self) -> None:
        """Advance all flows to now, complete finished ones, reschedule."""
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        # A flow is done when its bytes are (numerically) gone, or when
        # the time left is below the clock's float resolution at `now` —
        # otherwise `now + dt == now` and the completion timer would
        # fire forever without advancing the clock.
        eps_t = max(1e-9, abs(now) * 1e-12)
        finished = []
        for flow in self._flows:
            remaining = flow.remaining
            if elapsed > 0:
                remaining -= flow.rate * elapsed
                if remaining < 0:
                    remaining = 0.0
                flow.remaining = remaining
            if remaining <= _EPSILON_BYTES or (
                    flow.rate > 0 and remaining / flow.rate <= eps_t):
                finished.append(flow)
        if finished:
            self._flows = [f for f in self._flows if f not in finished]
            counts = self._path_count
            for flow in finished:
                counts[flow.path] -= 1
                self.completed_transfers += 1
                self.bytes_transferred += flow.size
                flow.done.succeed(TransferStats(
                    flow.route.src, flow.route.dst, flow.size,
                    flow.requested_at, flow.started_at, now))

        self._recompute_rates()
        self._schedule_next_completion()

    def _recompute_rates(self) -> None:
        """Give every active flow its max-min fair rate: the rate table's
        entry for the active paths, water-filled on a miss."""
        if not self._flows:
            return
        self._recomputes += 1
        key = self._path_count.tobytes()
        rates = self._rate_table.get(key)
        if rates is None:
            if len(self._rate_table) >= RATE_TABLE_SIZE:
                self._rate_table.clear()
            rates = self._rate_table[key] = self._water_fill()
        for flow in self._flows:
            flow.rate = rates[flow.path]

    def _water_fill(self) -> List[float]:
        """Max-min fair rate of each active path (0 for the others).

        Each round takes the link offering the smallest fair share to
        its unfixed flows — ``min((cap / count, lid))`` — fixes every
        unfixed flow crossing it at that share, and takes the share off
        every link those flows cross, once per flow, clamping at 0.
        All flows fixed in a round get one share, so what a link sees
        — its capacity less that share once per fixed flow — does not
        depend on which flow came first.  The rates are therefore a
        function of how many flows take each path, flows on one path
        get one rate, and a path's ``k`` flows are fixed together by
        ``k`` subtractions on each of its links.
        """
        self._water_fills += 1
        counts = self._path_count
        path_links = self._path_links
        bandwidth = self._bandwidth
        cap = self._cap
        count = self._count
        share = self._share
        crossing = self._crossing
        rates = [0.0] * len(counts)
        # Every count is 0 and every crossing list empty between
        # water-fills: the rounds below fix every flow, and the lists
        # are emptied at the end.  A path is listed once per flow; the
        # rounds skip it once fixed.
        links = []
        for flow in self._flows:
            path = flow.path
            for lid in path_links[path]:
                on_link = crossing[lid]
                if not on_link:
                    links.append(lid)
                on_link.append(path)
                count[lid] += 1
        links.sort()
        for lid in links:
            cap[lid] = bandwidth[lid]
            share[lid] = cap[lid] / count[lid]
        # The links still holding an unfixed flow, ascending; each one's
        # share is re-derived whenever its capacity or count moves.
        live = links[:]
        pick = share.__getitem__
        while live:
            # min() keeps the first of equal shares: the lowest link id.
            bottleneck = min(live, key=pick)
            fair_share = share[bottleneck]
            rate = fair_share if fair_share > 0 else _MIN_RATE
            for path in crossing[bottleneck]:
                if rates[path]:
                    continue
                rates[path] = rate
                k = counts[path]
                for lid in path_links[path]:
                    n = count[lid] - k
                    count[lid] = n
                    if n:
                        left = cap[lid]
                        for _ in range(k):
                            left -= fair_share
                            if left < 0:
                                left = 0.0
                        cap[lid] = left
                        share[lid] = left / n
                    else:
                        # Its last flow is fixed: the link's capacity
                        # is read no more this recompute.
                        live.remove(lid)
        for lid in links:
            crossing[lid].clear()
        return rates

    def _schedule_next_completion(self) -> None:
        if not self._flows:
            self._timer = None
            return
        next_done = _INF
        for flow in self._flows:
            if flow.rate > 0:
                left = flow.remaining / flow.rate
                if left < next_done:
                    next_done = left
        # Never schedule below the clock's resolution (see _update).
        next_done = max(next_done, 1e-9, abs(self.env.now) * 1e-12)
        timer = self.env.timeout(next_done)
        timer.callbacks.append(self._on_timer)
        self._timer = timer

    def _on_timer(self, event: Event) -> None:
        if event is self._timer:  # else superseded by a later update
            self._update()
