"""Differential test: the flow model against its original water-filling.

``OracleFlowNetwork`` below is the flow model as it was written before
its per-link state moved into lists indexed by link id: two dicts keyed
by ``link_id`` rebuilt from ``flow.route.links`` on every recompute, a
``min(..., key=lambda)`` per bottleneck round, and a fresh closure per
timer.  It lives here, and only here, as the executable specification.

The same transfer schedule is driven through the oracle and through
:class:`repro.net.FlowNetwork`, each in its own environment over one
shared topology.  The two must agree *exactly* — no tolerance: the
rates after every recompute, every completion time, every
:class:`TransferStats`, and the cumulative counters.

The oracle water-fills on every recompute; :class:`FlowNetwork` looks
the rates up by the multiset of active paths and water-fills only a
set it has not seen.  So the schedules below also bring one set of
routes back in another admission order, and clear the rate table
mid-run, and the grid-shaped churn must actually hit the table.
"""

from __future__ import annotations

import random
from typing import Dict, List
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FlowNetwork, TiersParams, flow, generate_tiers
from repro.net.flow import TransferStats
from repro.net.topology import Route, Topology
from repro.sim import Environment
from repro.sim.events import Event

MB = 1024.0 * 1024.0
CONTROL = 1024.0

_EPSILON_BYTES = 1e-6
_MIN_RATE = 1e-9


class _OracleFlow:
    __slots__ = ("flow_id", "route", "size", "remaining", "rate",
                 "done", "requested_at", "started_at")

    def __init__(self, flow_id: int, route: Route, size: float,
                 done: Event, requested_at: float, started_at: float):
        self.flow_id = flow_id
        self.route = route
        self.size = size
        self.remaining = size
        self.rate = 0.0
        self.done = done
        self.requested_at = requested_at
        self.started_at = started_at


class OracleFlowNetwork:
    """The original max-min flow model, kept verbatim as the oracle."""

    def __init__(self, env: Environment, topology: Topology):
        self.env = env
        self.topology = topology
        self._flows: Dict[int, _OracleFlow] = {}
        self._next_id = 0
        self._last_update = env.now
        self._timer_version = 0
        self.completed_transfers = 0
        self.bytes_transferred = 0.0

    def transfer(self, src: str, dst: str, size: float) -> Event:
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

        admit = self.env.timeout(latency)
        admit.add_callback(
            lambda _e: self._admit(route, size, done, requested_at))
        return done

    def _admit(self, route: Route, size: float, done: Event,
               requested_at: float) -> None:
        flow = _OracleFlow(self._next_id, route, size, done, requested_at,
                           self.env.now)
        self._next_id += 1
        self._flows[flow.flow_id] = flow
        self._update()

    def _update(self) -> None:
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed > 0:
            for flow in self._flows.values():
                flow.remaining -= flow.rate * elapsed
                if flow.remaining < 0:
                    flow.remaining = 0.0

        eps_t = max(1e-9, abs(now) * 1e-12)
        finished = [f for f in self._flows.values()
                    if f.remaining <= _EPSILON_BYTES
                    or (f.rate > 0 and f.remaining / f.rate <= eps_t)]
        for flow in finished:
            del self._flows[flow.flow_id]
            self.completed_transfers += 1
            self.bytes_transferred += flow.size
            flow.done.succeed(TransferStats(
                flow.route.src, flow.route.dst, flow.size,
                flow.requested_at, flow.started_at, now))

        self._recompute_rates()
        self._schedule_next_completion()

    def _recompute_rates(self) -> None:
        if not self._flows:
            return
        remaining_cap: Dict[int, float] = {}
        link_flows: Dict[int, List[_OracleFlow]] = {}
        for flow in self._flows.values():
            for link in flow.route.links:
                if link.link_id not in remaining_cap:
                    remaining_cap[link.link_id] = link.bandwidth
                    link_flows[link.link_id] = []
                link_flows[link.link_id].append(flow)

        unfixed = dict(self._flows)
        counts = {lid: len(flows) for lid, flows in link_flows.items()}
        while unfixed:
            bottleneck = min(
                (lid for lid, n in counts.items() if n > 0),
                key=lambda lid: (remaining_cap[lid] / counts[lid], lid))
            fair_share = remaining_cap[bottleneck] / counts[bottleneck]
            for flow in list(link_flows[bottleneck]):
                if flow.flow_id not in unfixed:
                    continue
                flow.rate = fair_share if fair_share > 0 else _MIN_RATE
                del unfixed[flow.flow_id]
                for link in flow.route.links:
                    counts[link.link_id] -= 1
                    remaining_cap[link.link_id] -= fair_share
                    if remaining_cap[link.link_id] < 0:
                        remaining_cap[link.link_id] = 0.0

    def _schedule_next_completion(self) -> None:
        self._timer_version += 1
        if not self._flows:
            return
        next_done = min(flow.remaining / flow.rate
                        for flow in self._flows.values() if flow.rate > 0)
        next_done = max(next_done, 1e-9, abs(self.env.now) * 1e-12)
        version = self._timer_version
        timer = self.env.timeout(next_done)
        timer.add_callback(lambda _e: self._on_timer(version))

    def _on_timer(self, version: int) -> None:
        if version != self._timer_version:
            return
        self._update()


def _active(net) -> list:
    flows = net._flows
    return list(flows.values()) if isinstance(flows, dict) else list(flows)


def simulate(network_cls, topology, endpoints, chains, networks=None):
    """Run ``chains`` through a fresh ``network_cls``; return everything
    observable: per-recompute rates, per-transfer outcomes, counters.
    The network is appended to ``networks`` if given."""
    env = Environment()
    net = network_cls(env, topology)
    if networks is not None:
        networks.append(net)
    recomputes = []
    original = net._recompute_rates

    def logged():
        original()
        recomputes.append((env.now, tuple(f.rate for f in _active(net))))

    net._recompute_rates = logged
    outcomes = []

    def chain(index, start, legs):
        if start:
            yield env.timeout(start)
        for leg, (src, dst, size) in enumerate(legs):
            stats = yield net.transfer(endpoints[src], endpoints[dst], size)
            outcomes.append((index, leg, env.now, stats))

    for index, (start, legs) in enumerate(chains):
        env.process(chain(index, start, legs))
    env.run()
    assert not net._flows
    return (recomputes, outcomes, net.completed_transfers,
            net.bytes_transferred, env.now)


def assert_identical(topology, endpoints, chains, networks=None):
    new = simulate(FlowNetwork, topology, endpoints, chains, networks)
    old = simulate(OracleFlowNetwork, topology, endpoints, chains)
    new_rates, new_outcomes, *new_totals = new
    old_rates, old_outcomes, *old_totals = old
    assert len(new_rates) == len(old_rates)
    for got, want in zip(new_rates, old_rates):
        assert got == want
    assert new_outcomes == old_outcomes
    assert new_totals == old_totals
    return new


# -- hypothesis-drawn Tiers networks and schedules ---------------------------

#: Endpoint slots: 0 = file server, 1 = scheduler, 2.. = site gateways.
FILE_SERVER, SCHEDULER = 0, 1


@st.composite
def tiers_schedules(draw):
    num_sites = draw(st.integers(1, 12))
    # Without jitter every site uplink has one bandwidth, so equal
    # fair shares (the bottleneck's tie-break) are common.
    jitter = draw(st.sampled_from([0.0, 0.25]))
    grid = generate_tiers(TiersParams(num_sites=num_sites,
                                      bandwidth_jitter=jitter),
                          seed=draw(st.integers(0, 2**16)))
    endpoints = [grid.file_server_node, grid.scheduler_node,
                 *grid.site_gateways]
    # Few distinct starts and sizes make simultaneous admissions and
    # same-instant completions common, not a fluke.
    starts = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 3.0, 20.0]),
                       st.floats(0.0, 120.0))
    fetch_sizes = st.one_of(st.sampled_from([5 * MB, 25 * MB]),
                            st.floats(1 * MB, 30 * MB))
    chains = []
    for _ in range(draw(st.integers(1, 24))):
        legs = []
        for _ in range(draw(st.integers(1, 4))):
            site = 2 + draw(st.integers(0, num_sites - 1))
            kind = draw(st.sampled_from(
                ["fetch", "fetch", "request", "reply", "local", "empty"]))
            if kind == "fetch":
                legs.append((FILE_SERVER, site, draw(fetch_sizes)))
            elif kind == "request":
                legs.append((site, SCHEDULER, CONTROL))
            elif kind == "reply":
                legs.append((SCHEDULER, site, CONTROL))
            elif kind == "local":
                legs.append((site, site, CONTROL))
            else:
                legs.append((FILE_SERVER, site, 0.0))
        chains.append((draw(starts), legs))
    return grid.topology, endpoints, chains


@given(tiers_schedules())
@settings(max_examples=120, deadline=None)
def test_rates_and_completions_match_the_oracle(schedule):
    topology, endpoints, chains = schedule
    assert_identical(topology, endpoints, chains)


def grid_shaped_churn():
    """A worker-like loop per site on a 10-site network: request, reply,
    ten multi-MB fetches, completion."""
    grid = generate_tiers(TiersParams(num_sites=10), seed=3)
    endpoints = [grid.file_server_node, grid.scheduler_node,
                 *grid.site_gateways]
    rng = random.Random(3)
    chains = []
    for site in range(2, 12):
        legs = []
        for _ in range(6):
            legs.append((site, SCHEDULER, CONTROL))
            legs.append((SCHEDULER, site, CONTROL))
            legs += [(FILE_SERVER, site, rng.uniform(20.0, 30.0) * MB)
                     for _ in range(10)]
            legs.append((site, SCHEDULER, CONTROL))
        chains.append((0.0, legs))
    return grid.topology, endpoints, chains


def test_grid_shaped_churn_matches_the_oracle():
    """Thousands of recomputes, most of them answered by the table."""
    networks = []
    recomputes, outcomes, completed, _, _ = assert_identical(
        *grid_shaped_churn(), networks=networks)
    assert completed == 10 * 6 * 13
    assert len(recomputes) > 1000
    net, = networks
    assert net._recomputes == sum(1 for _, rates in recomputes if rates)
    # Hits really happen: far fewer water-fills than recomputes.
    assert 0 < net._water_fills < net._recomputes // 4
    assert len(net._rate_table) == net._water_fills


def test_grid_shaped_churn_matches_the_oracle_across_table_clears():
    """With room for two flow sets the table is cleared over and over
    mid-run; the rates stay the oracle's."""
    networks = []
    with mock.patch.object(flow, "RATE_TABLE_SIZE", 2):
        recomputes, _, completed, _, _ = assert_identical(
            *grid_shaped_churn(), networks=networks)
    net, = networks
    assert completed == 10 * 6 * 13
    assert len(net._rate_table) <= 2
    # Clearing forgot sets the default table would have kept.
    assert net._water_fills > len(recomputes) // 4


@st.composite
def permuted_schedules(draw):
    """One set of transfers admitted twice over a random tree of
    zero-latency links, all at one instant each time: in a drawn order
    at t=0, then — after every flow of the first round is done — in a
    drawn permutation of it.  Admission order at an instant is chain
    order, so the second round meets every flow set of the first in
    another order."""
    nodes = draw(st.integers(2, 7))
    topology = Topology()
    names = [topology.add_node(f"n{i}") for i in range(nodes)]
    # Few distinct bandwidths make equal fair shares common.
    bandwidths = st.one_of(st.sampled_from([1.0, 2.0, 4.0]),
                           st.floats(0.5, 8.0))
    for i in range(1, nodes):
        topology.add_link(names[draw(st.integers(0, i - 1))], names[i],
                          draw(bandwidths), 0.0)
    pairs = st.tuples(st.integers(0, nodes - 1),
                      st.integers(0, nodes - 1)).filter(
                          lambda pair: pair[0] != pair[1])
    sizes = st.one_of(st.sampled_from([1.0, 3.0]), st.floats(0.5, 20.0))
    transfers = draw(st.lists(st.tuples(pairs, sizes), min_size=1,
                              max_size=10))
    order = draw(st.permutations(range(len(transfers))))
    # Each flow gets at least min(bandwidth) / len(transfers).
    later = (sum(size for _, size in transfers) * len(transfers)
             / 0.5 + 1.0)
    chains = [(0.0, [(src, dst, size)])
              for (src, dst), size in transfers]
    chains += [(later, [chains[i][1][0]]) for i in order]
    return topology, names, chains


@given(permuted_schedules())
@settings(max_examples=120, deadline=None)
def test_a_flow_set_in_another_admission_order_matches_the_oracle(
        schedule):
    topology, endpoints, chains = schedule
    networks = []
    recomputes, outcomes, *_ = assert_identical(topology, endpoints,
                                                chains, networks)
    first = {index for index, _leg, when, _stats in outcomes
             if index < len(chains) // 2}
    assert len(first) == len(chains) // 2
    assert max(when for index, _leg, when, _stats in outcomes
               if index in first) < chains[-1][0]
    # The second round's full set was the first round's: a hit.
    net, = networks
    assert net._water_fills < net._recomputes


def test_simultaneous_identical_flows_complete_together():
    """Equal flows on one route finish at one instant, in one update."""
    grid = generate_tiers(TiersParams(num_sites=2), seed=1)
    endpoints = [grid.file_server_node, grid.scheduler_node,
                 *grid.site_gateways]
    chains = [(0.0, [(FILE_SERVER, 2, 25 * MB)]) for _ in range(4)]
    chains += [(0.0, [(FILE_SERVER, 3, 25 * MB)]) for _ in range(2)]
    _, outcomes, _, _, _ = assert_identical(grid.topology, endpoints, chains)
    by_site = {}
    for _index, _leg, when, stats in outcomes:
        by_site.setdefault(stats.dst, set()).add(when)
    assert all(len(times) == 1 for times in by_site.values())
