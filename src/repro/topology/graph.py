"""Lightweight weighted graph used for static tree analysis.

The SIGCOMM'93-style evaluation (tree cost, delay stretch, traffic
concentration — experiments E3..E5) compares *tree shapes* over large
random topologies.  Running the full packet-level protocol there would
measure the simulator, not the trees, so those experiments operate on
this abstract graph: nodes are router names, edges carry a routing
metric (cost) and a propagation delay.

The same graphs are also realisable as simulator networks via
:func:`repro.topology.generators.realise`, which is how the
protocol-level experiments use identical topologies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.netsim.packet import Record


class Edge(Record):
    """Undirected weighted edge, a tuple record
    (:class:`repro.netsim.packet.Record`): built in one frame, compared
    and hashed by its fields."""

    u: str
    v: str
    cost: float = 1.0
    delay: float = 1.0


#: Shortest-path maps a graph keeps (one per ``(source, weight)``).
_MEMO_SOURCES = 8


class Graph:
    """Undirected weighted multigraph-free graph."""

    def __init__(self) -> None:
        self._adjacency: Dict[str, Dict[str, Edge]] = {}
        # (source, weight) -> (dist, prev) of the last few Dijkstra runs;
        # construction clears it and callers only ever get copies.
        self._paths: Dict[Tuple[str, str], Tuple[Dict, Dict]] = {}

    # -- construction ----------------------------------------------------

    def add_node(self, node: str) -> None:
        self._adjacency.setdefault(node, {})
        self._paths.clear()

    def add_edge(self, u: str, v: str, cost: float = 1.0, delay: float = 1.0) -> Edge:
        if u == v:
            raise ValueError(f"self-loop on {u}")
        edge = Edge(u, v, cost, delay)
        adjacency = self._adjacency
        adjacency.setdefault(u, {})[v] = edge
        adjacency.setdefault(v, {})[u] = edge
        self._paths.clear()
        return edge

    # -- queries -------------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        return sorted(self._adjacency)

    @property
    def edges(self) -> List[Edge]:
        """Each edge once, where the walk over the sorted nodes first
        meets it: at its lower endpoint."""
        adjacency = self._adjacency
        return [
            edge
            for node in sorted(adjacency)
            for other, edge in adjacency[node].items()
            if node <= other
        ]

    def __len__(self) -> int:
        return len(self._adjacency)

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adjacency.get(u, {})

    def edge_between(self, u: str, v: str) -> Optional[Edge]:
        return self._adjacency.get(u, {}).get(v)

    def degree(self, node: str) -> int:
        return len(self._adjacency.get(node, {}))

    # -- shortest paths ---------------------------------------------------------

    def dijkstra(
        self, source: str, weight: str = "cost"
    ) -> Tuple[Dict[str, float], Dict[str, str]]:
        """Distances and predecessor map from ``source``.

        ``weight`` selects the edge attribute ('cost' for routing
        metric, 'delay' for propagation latency).
        """
        if source not in self._adjacency:
            raise KeyError(source)
        memo = self._paths.get((source, weight))
        if memo is not None:
            return dict(memo[0]), dict(memo[1])
        dist: Dict[str, float] = {source: 0.0}
        prev: Dict[str, str] = {}
        heap: List[Tuple[float, str]] = [(0.0, source)]
        done: Set[str] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for neighbour, edge in self._adjacency[node].items():
                w = getattr(edge, weight)
                nd = d + w
                if nd < dist.get(neighbour, float("inf")):
                    dist[neighbour] = nd
                    prev[neighbour] = node
                    heapq.heappush(heap, (nd, neighbour))
        if len(self._paths) >= _MEMO_SOURCES:
            self._paths.clear()  # a sweep over every source must not keep n maps
        self._paths[(source, weight)] = (dist, prev)
        return dict(dist), dict(prev)

    def shortest_path(
        self, source: str, target: str, weight: str = "cost"
    ) -> List[str]:
        """Node list from source to target (inclusive); [] if unreachable."""
        dist, prev = self.dijkstra(source, weight=weight)
        if target not in dist:
            return []
        path = [target]
        while path[-1] != source:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def is_connected(self) -> bool:
        nodes = self.nodes
        if not nodes:
            return True
        dist, _ = self.dijkstra(nodes[0])
        return len(dist) == len(nodes)

    # -- centrality -----------------------------------------------------------------

    def eccentricity(self, node: str, weight: str = "cost") -> float:
        """Max shortest-path distance from ``node`` (inf if disconnected)."""
        dist, _ = self.dijkstra(node, weight=weight)
        if len(dist) != len(self._adjacency):
            return float("inf")
        return max(dist.values())

    def center(self, weight: str = "cost") -> str:
        """A node of minimum eccentricity (ties broken by name)."""
        return min(self.nodes, key=lambda n: (self.eccentricity(n, weight), n))

    def total_distance(self, node: str, targets: Sequence[str], weight: str = "cost") -> float:
        """Sum of distances from ``node`` to each target (inf if any cut)."""
        dist, _ = self.dijkstra(node, weight=weight)
        return sum(dist.get(t, float("inf")) for t in targets)


@dataclass
class Tree:
    """A multicast tree embedded in a graph: a set of edges plus a root."""

    graph: Graph
    root: str
    edges: Set[Tuple[str, str]] = field(default_factory=set)

    def add_path(self, path: Sequence[str]) -> None:
        """Grow the tree along a node path (consecutive pairs become edges)."""
        for u, v in zip(path, path[1:]):
            self.edges.add((u, v) if u <= v else (v, u))

    @property
    def nodes(self) -> Set[str]:
        out = {self.root}
        for u, v in self.edges:
            out.add(u)
            out.add(v)
        return out

    def cost(self) -> float:
        """Sum of edge costs — the paper's total tree cost metric."""
        total = 0.0
        for u, v in self.edges:
            edge = self.graph.edge_between(u, v)
            if edge is None:
                raise ValueError(f"tree edge ({u},{v}) not in graph")
            total += edge.cost
        return total

    def delay_from(self, source: str) -> Dict[str, float]:
        """Delay from ``source`` to every tree node, along tree edges."""
        adjacency: Dict[str, List[Tuple[str, float]]] = {}
        for u, v in self.edges:
            edge = self.graph.edge_between(u, v)
            delay = edge.delay if edge is not None else 1.0
            adjacency.setdefault(u, []).append((v, delay))
            adjacency.setdefault(v, []).append((u, delay))
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            for neighbour, delay in adjacency.get(node, ()):
                nd = d + delay
                if nd < dist.get(neighbour, float("inf")):
                    dist[neighbour] = nd
                    heapq.heappush(heap, (nd, neighbour))
        return dist

    def is_loop_free(self) -> bool:
        """True if the edge set forms a forest (no cycles)."""
        parent: Dict[str, str] = {}

        def find(x: str) -> str:
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    def spans(self, members: Iterable[str]) -> bool:
        nodes = self.nodes
        return all(member in nodes for member in members)
