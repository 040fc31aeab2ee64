"""Network topology graph: nodes, links, and shortest-path routing.

A :class:`Topology` is an undirected multigraph of named nodes connected
by :class:`Link` objects carrying a bandwidth (bytes/second) and a latency
(seconds).  Routing uses latency-weighted Dijkstra with deterministic
tie-breaking, and routes are cached per (source, destination) pair.

The grid model only ever routes between a handful of endpoints (site
gateways, the file server, the scheduler), so route caching makes routing
cost negligible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Link:
    """An undirected network link.

    Attributes
    ----------
    link_id:
        Unique integer id within the topology.
    a, b:
        Endpoint node names.
    bandwidth:
        Capacity in bytes/second shared by all flows crossing the link.
    latency:
        One-way propagation delay in seconds.
    """

    link_id: int
    a: str
    b: str
    bandwidth: float
    latency: float

    def other(self, node: str) -> str:
        """The endpoint opposite ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"{node!r} is not an endpoint of link {self.link_id}")


@dataclass
class Route:
    """A concrete path between two nodes."""

    src: str
    dst: str
    links: Tuple[Link, ...]
    #: ``link_id`` of each link, in path order — what the flow model
    #: indexes its per-link state by.
    link_ids: Tuple[int, ...] = field(init=False, repr=False,
                                      compare=False)
    #: Sum of per-link propagation delays along the path.
    latency: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.link_ids = tuple(link.link_id for link in self.links)
        self.latency = sum(link.latency for link in self.links)

    @property
    def bottleneck_bandwidth(self) -> float:
        """The narrowest link capacity on the path (inf for empty paths)."""
        if not self.links:
            return float("inf")
        return min(link.bandwidth for link in self.links)


class Topology:
    """An undirected network graph with cached shortest-path routing."""

    def __init__(self):
        self._nodes: Dict[str, str] = {}  # name -> kind
        self._links: List[Link] = []
        self._adjacency: Dict[str, List[Link]] = {}
        self._route_cache: Dict[Tuple[str, str], Route] = {}

    # -- construction ------------------------------------------------------
    def add_node(self, name: str, kind: str = "node") -> str:
        """Register a node; ``kind`` is a free-form label ("site", "wan"...)."""
        if name in self._nodes:
            raise ValueError(f"duplicate node {name!r}")
        self._nodes[name] = kind
        self._adjacency[name] = []
        return name

    def add_link(self, a: str, b: str, bandwidth: float,
                 latency: float) -> Link:
        """Connect ``a`` and ``b``; returns the new :class:`Link`."""
        for node in (a, b):
            if node not in self._nodes:
                raise KeyError(f"unknown node {node!r}")
        if a == b:
            raise ValueError(f"self-link on {a!r}")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        link = Link(len(self._links), a, b, float(bandwidth), float(latency))
        self._links.append(link)
        self._adjacency[a].append(link)
        self._adjacency[b].append(link)
        self._route_cache.clear()
        return link

    # -- inspection --------------------------------------------------------
    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    @property
    def links(self) -> Tuple[Link, ...]:
        return tuple(self._links)

    def node_kind(self, name: str) -> str:
        return self._nodes[name]

    def nodes_of_kind(self, kind: str) -> Tuple[str, ...]:
        """All node names whose kind equals ``kind``, in insertion order."""
        return tuple(n for n, k in self._nodes.items() if k == kind)

    def neighbors(self, name: str) -> Tuple[str, ...]:
        return tuple(link.other(name) for link in self._adjacency[name])

    def degree(self, name: str) -> int:
        return len(self._adjacency[name])

    # -- routing -----------------------------------------------------------
    def route(self, src: str, dst: str) -> Route:
        """Latency-shortest path from ``src`` to ``dst`` (cached).

        Ties are broken by hop count and then lexicographically by node
        name, so routing is deterministic regardless of insertion order.
        """
        if src not in self._nodes or dst not in self._nodes:
            missing = src if src not in self._nodes else dst
            raise KeyError(f"unknown node {missing!r}")
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            route = Route(src, dst, ())
            self._route_cache[key] = route
            return route

        # Dijkstra keyed by (latency, hops, node name).
        dist: Dict[str, Tuple[float, int]] = {src: (0.0, 0)}
        prev: Dict[str, Tuple[str, Link]] = {}
        heap: List[Tuple[float, int, str]] = [(0.0, 0, src)]
        visited = set()
        while heap:
            d, hops, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == dst:
                break
            for link in self._adjacency[node]:
                nxt = link.other(node)
                if nxt in visited:
                    continue
                cand = (d + link.latency, hops + 1)
                if nxt not in dist or cand < dist[nxt] or (
                        cand == dist[nxt] and node < prev[nxt][0]):
                    dist[nxt] = cand
                    prev[nxt] = (node, link)
                    heapq.heappush(heap, (cand[0], cand[1], nxt))
        if dst not in prev:
            raise ValueError(f"no path from {src!r} to {dst!r}")

        links: List[Link] = []
        node = dst
        while node != src:
            parent, link = prev[node]
            links.append(link)
            node = parent
        route = Route(src, dst, tuple(reversed(links)))
        self._route_cache[key] = route
        # Paths are symmetric; cache the reverse too.
        self._route_cache[(dst, src)] = Route(dst, src,
                                              tuple(reversed(route.links)))
        return route

    def is_connected(self) -> bool:
        """True if every node is reachable from every other node."""
        if not self._nodes:
            return True
        start = next(iter(self._nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for link in self._adjacency[node]:
                nxt = link.other(node)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(self._nodes)
