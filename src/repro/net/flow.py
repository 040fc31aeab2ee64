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
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import List, Optional

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

    __slots__ = ("route", "link_ids", "size", "remaining", "rate",
                 "fixed_in", "done", "requested_at", "started_at")

    def __init__(self, route: Route, size: float, done: Event,
                 requested_at: float):
        self.route = route
        self.link_ids = route.link_ids
        self.size = size
        self.remaining = size
        self.rate = 0.0
        #: The recompute that last fixed this flow's rate.
        self.fixed_in = 0
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

    A recompute costs what the active flows cost: each link's state
    lives in lists indexed by ``link_id``, and only the links some
    active flow crosses (``_links``, ascending) are visited.
    """

    def __init__(self, env: Environment, topology: Topology):
        self.env = env
        self.topology = topology
        #: Active flows in admission order — the order every recompute
        #: fixes a bottleneck's flows in.
        self._flows: List[_Flow] = []
        self._last_update = env.now
        #: The pending completion timer; an older one fires as a no-op.
        self._timer: Optional[Event] = None
        self._recomputes = 0
        # Per link id: bandwidth, the active flows crossing it (admission
        # order), and the water-filling's remaining capacity, count of
        # unfixed flows and fair share.  Grown on demand if the topology
        # gains links.
        self._bandwidth: List[float] = []
        self._members: List[List[_Flow]] = []
        self._cap: List[float] = []
        self._count: List[int] = []
        self._share: List[float] = []
        #: Ids of the links with at least one active flow, ascending.
        self._links: List[int] = []
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

        admit = self.env.timeout(
            latency, _Flow(route, size, done, requested_at))
        admit.callbacks.append(self._admit)
        return done

    # -- internals -------------------------------------------------------
    def _admit(self, event: Event) -> None:
        flow: _Flow = event.value
        flow.started_at = self.env.now
        self._flows.append(flow)
        members = self._members
        for lid in flow.link_ids:
            if lid >= len(members):
                self._grow()
            crossing = members[lid]
            if not crossing:
                insort(self._links, lid)
            crossing.append(flow)
        self._update()

    def _grow(self) -> None:
        """Extend the per-link lists to every link of the topology."""
        links = self.topology.links
        for link in links[len(self._bandwidth):]:
            self._bandwidth.append(link.bandwidth)
            self._members.append([])
            self._cap.append(0.0)
            self._count.append(0)
            self._share.append(0.0)

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
            members = self._members
            for flow in finished:
                for lid in flow.link_ids:
                    crossing = members[lid]
                    crossing.remove(flow)
                    if not crossing:
                        self._links.remove(lid)
                self.completed_transfers += 1
                self.bytes_transferred += flow.size
                flow.done.succeed(TransferStats(
                    flow.route.src, flow.route.dst, flow.size,
                    flow.requested_at, flow.started_at, now))

        self._recompute_rates()
        self._schedule_next_completion()

    def _recompute_rates(self) -> None:
        """Water-filling max-min fair allocation over active flows.

        Each round fixes the flows of the link offering the smallest
        fair share to its unfixed flows — ``min((cap / count, lid))`` —
        at that share, and takes it off every link they cross.
        """
        if not self._flows:
            return
        self._recomputes += 1
        stamp = self._recomputes
        cap = self._cap
        count = self._count
        share = self._share
        members = self._members
        bandwidth = self._bandwidth
        # The links still holding an unfixed flow, ascending; each one's
        # share is re-derived whenever its capacity or count moves.
        live = self._links[:]
        for lid in live:
            cap[lid] = bandwidth[lid]
            count[lid] = len(members[lid])
            share[lid] = cap[lid] / count[lid]
        pick = share.__getitem__
        while live:
            # min() keeps the first of equal shares: the lowest link id.
            bottleneck = min(live, key=pick)
            fair_share = share[bottleneck]
            rate = fair_share if fair_share > 0 else _MIN_RATE
            for flow in members[bottleneck]:
                if flow.fixed_in == stamp:
                    continue
                flow.rate = rate
                flow.fixed_in = stamp
                for lid in flow.link_ids:
                    n = count[lid] - 1
                    count[lid] = n
                    if n:
                        left = cap[lid] - fair_share
                        if left < 0:
                            left = 0.0
                        cap[lid] = left
                        share[lid] = left / n
                    else:
                        # Its last flow is fixed: the link's capacity
                        # is read no more this recompute.
                        live.remove(lid)

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
