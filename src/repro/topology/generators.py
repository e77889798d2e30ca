"""Random and regular topology generators.

``*_graph`` functions build abstract :class:`repro.topology.graph.Graph`
instances for static tree analysis (experiments E3-E5); ``realise``
turns any such graph into a packet-level :class:`Network` (one router
per node, a point-to-point link per edge, and optionally one stub LAN
plus host per router) so protocol experiments run on identical
topologies.

The Waxman model is the random-internetwork model of the CBT era
(Waxman 1988, used by the shared-tree evaluations of the early 90s):
n points scattered on a square, edge probability
``alpha * exp(-d / (beta * L))`` with d the Euclidean distance and L
the diameter of the square.  Delays are proportional to distance.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.netsim.engine import collector_paused
from repro.topology.builder import Network
from repro.topology.graph import Graph


def _connect_components(graph: Graph, positions: Dict[str, Tuple[float, float]]) -> None:
    """Join disconnected components via their geometrically closest pair."""
    while not graph.is_connected():
        nodes = graph.nodes
        dist, _ = graph.dijkstra(nodes[0])
        reached = set(dist)
        unreached = [n for n in nodes if n not in reached]
        best: Optional[Tuple[float, str, str]] = None
        for u in reached:
            for v in unreached:
                d = _euclidean(positions[u], positions[v])
                if best is None or d < best[0]:
                    best = (d, u, v)
        assert best is not None
        d, u, v = best
        graph.add_edge(u, v, cost=1.0, delay=max(d, 1.0))


def _euclidean(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


#: Node count at which Waxman edge generation switches from the dense
#: O(n^2) pair loop to geometric-skip sampling, and at which realise()
#: turns on on-demand (reverse-SPF) unicast routing.  Chosen above every
#: pinned topology size so their RNG streams and routing tie-breaks stay
#: byte-identical.
BULK_TOPOLOGY_MIN = 512


def _waxman_edges_dense(
    graph: Graph,
    names: List[str],
    positions: Dict[str, Tuple[float, float]],
    alpha: float,
    decay: float,
    rng: random.Random,
) -> None:
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            d = _euclidean(positions[u], positions[v])
            if rng.random() < alpha * math.exp(-d / decay):
                graph.add_edge(u, v, cost=1.0, delay=max(d, 1.0))


def _waxman_edges_sparse(
    graph: Graph,
    names: List[str],
    positions: Dict[str, Tuple[float, float]],
    alpha: float,
    decay: float,
    rng: random.Random,
) -> None:
    """Geometric-skip sampling over the n(n-1)/2 candidate pairs.

    Since ``p(d) = alpha * exp(-d / decay) <= alpha``, candidate pairs
    can be drawn by skipping ahead Geometric(alpha) positions in the
    flattened pair sequence and thinning each candidate by the
    remaining ``exp(-d / decay)`` factor — standard proposal/rejection,
    so each pair is still included independently with exactly ``p(d)``.
    Expected cost is O(alpha * n^2 + edges) instead of O(n^2) RNG draws
    and distance computations.  The RNG stream differs from the dense
    loop, so this path is gated to bulk sizes (no pinned baselines).
    """
    n = len(names)
    log_q = math.log1p(-alpha)  # alpha < 1 is guaranteed by the caller
    exp = math.exp
    random_ = rng.random
    i, j = 0, 0  # j is the offset of the *next* candidate in row i
    while i < n - 1:
        u = random_()
        # Skip Geometric(alpha) - 1 pairs (u == 0.0 cannot occur:
        # random() is in [0, 1) and 1 - random() in (0, 1]).
        j += int(math.log(1.0 - u) / log_q)
        while j >= n - 1 - i:
            j -= n - 1 - i
            i += 1
            if i >= n - 1:
                return
        a = names[i]
        b = names[i + 1 + j]
        d = _euclidean(positions[a], positions[b])
        if random_() < exp(-d / decay):
            graph.add_edge(a, b, cost=1.0, delay=max(d, 1.0))
        j += 1


def waxman_graph(
    n: int,
    alpha: float = 0.25,
    beta: float = 0.4,
    seed: int = 0,
    side: float = 100.0,
) -> Graph:
    """Connected Waxman random graph with distance-proportional delays."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    rng = random.Random(seed)
    positions = {
        f"N{i}": (rng.uniform(0, side), rng.uniform(0, side)) for i in range(n)
    }
    graph = Graph()
    for name in positions:
        graph.add_node(name)
    # Parenthesised exactly as the historical inline expression
    # ``alpha * exp(-d / (beta * scale))`` so dense-path edge decisions
    # stay bit-identical (float multiplication is not associative).
    decay = beta * (side * math.sqrt(2))
    names = sorted(positions)
    if n >= BULK_TOPOLOGY_MIN and 0.0 < alpha < 1.0:
        _waxman_edges_sparse(graph, names, positions, alpha, decay, rng)
    else:
        _waxman_edges_dense(graph, names, positions, alpha, decay, rng)
    _connect_components(graph, positions)
    return graph


def barabasi_albert_graph(n: int, m: int = 2, seed: int = 0) -> Graph:
    """Preferential-attachment graph (heavy-tailed degrees)."""
    if n < m + 1:
        raise ValueError(f"need n > m, got n={n} m={m}")
    rng = random.Random(seed)
    graph = Graph()
    # Start from a small clique of m+1 nodes.
    for i in range(m + 1):
        for j in range(i):
            graph.add_edge(f"N{i}", f"N{j}")
    stubs: List[str] = []
    for edge in graph.edges:
        stubs.extend([edge.u, edge.v])
    for i in range(m + 1, n):
        new = f"N{i}"
        chosen: set = set()
        while len(chosen) < m:
            chosen.add(rng.choice(stubs))
        for target in sorted(chosen):
            graph.add_edge(new, target)
            stubs.extend([new, target])
    return graph


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols mesh."""
    graph = Graph()
    for r in range(rows):
        for c in range(cols):
            name = f"N{r * cols + c}"
            graph.add_node(name)
            if c > 0:
                graph.add_edge(name, f"N{r * cols + c - 1}")
            if r > 0:
                graph.add_edge(name, f"N{(r - 1) * cols + c}")
    return graph


def line_graph(n: int) -> Graph:
    """A path of n routers — worst-case diameter for latency tests."""
    graph = Graph()
    for i in range(n - 1):
        graph.add_edge(f"N{i}", f"N{i + 1}")
    return graph


def star_graph(n: int) -> Graph:
    """Hub N0 with n-1 leaves — best-case shared-tree topology."""
    graph = Graph()
    for i in range(1, n):
        graph.add_edge("N0", f"N{i}")
    return graph


def transit_stub_graph(
    transit_n: int = 4,
    stubs_per_transit: int = 3,
    stub_size: int = 4,
    seed: int = 0,
) -> Graph:
    """Two-level internet-like topology: a transit ring/mesh with stub
    domains hanging off each transit router."""
    rng = random.Random(seed)
    graph = Graph()
    transit = [f"T{i}" for i in range(transit_n)]
    for i, u in enumerate(transit):
        graph.add_edge(u, transit[(i + 1) % transit_n], delay=10.0)
    # A couple of chords for redundancy.
    for _ in range(max(0, transit_n - 3)):
        u, v = rng.sample(transit, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, delay=10.0)
    for ti, t in enumerate(transit):
        for s in range(stubs_per_transit):
            members = [f"S{ti}_{s}_{k}" for k in range(stub_size)]
            graph.add_edge(t, members[0], delay=2.0)
            for a, b in zip(members, members[1:]):
                graph.add_edge(a, b, delay=1.0)
            # Occasional intra-stub redundancy.
            if stub_size >= 3 and rng.random() < 0.5:
                graph.add_edge(members[0], members[-1], delay=1.0)
    return graph


# ---------------------------------------------------------------------------
# realisation into the packet-level simulator
# ---------------------------------------------------------------------------

#: Delay scale: abstract delay units -> seconds on realised links.
DELAY_SCALE = 0.001


def realise(graph: Graph, with_hosts: bool = True) -> Network:
    """Build a simulator Network mirroring ``graph``.

    Each node becomes a router; each edge a point-to-point link with
    the edge's cost and (scaled) delay.  With ``with_hosts``, every
    router also gets a stub LAN ``LAN_<node>`` carrying one host
    ``H_<node>`` so protocol workloads can join/send anywhere.

    Built with the collector paused: everything allocated here is
    reachable from the network returned, so a collection in here only
    re-walks the half-built network (817 of them at n=1000) and frees
    nothing.
    """
    with collector_paused():
        net = Network(trace_enabled=False)
        for node in graph.nodes:
            net.add_router(node)
        for edge in graph.edges:
            net.add_p2p(
                f"L_{edge.u}_{edge.v}",
                net.router(edge.u),
                net.router(edge.v),
                cost=edge.cost,
                delay=max(edge.delay * DELAY_SCALE, 1e-6),
            )
        if with_hosts:
            for node in graph.nodes:
                subnet = net.add_subnet(f"LAN_{node}", [net.router(node)])
                net.add_host(f"H_{node}", subnet)
        if len(graph.nodes) >= BULK_TOPOLOGY_MIN:
            # Bulk topologies: per-destination reverse-SPF resolution
            # instead of a full Dijkstra + table install per router.
            net.routing.ondemand = True
        net.converge()
    return net


def waxman_network(
    n: int, alpha: float = 0.25, beta: float = 0.4, seed: int = 0
) -> Network:
    return realise(waxman_graph(n, alpha=alpha, beta=beta, seed=seed))


def barabasi_albert_network(n: int, m: int = 2, seed: int = 0) -> Network:
    return realise(barabasi_albert_graph(n, m=m, seed=seed))


def grid_network(rows: int, cols: int) -> Network:
    return realise(grid_graph(rows, cols))


def line_network(n: int) -> Network:
    return realise(line_graph(n))


def transit_stub_network(
    transit_n: int = 4, stubs_per_transit: int = 3, stub_size: int = 4, seed: int = 0
) -> Network:
    return realise(
        transit_stub_graph(
            transit_n=transit_n,
            stubs_per_transit=stubs_per_transit,
            stub_size=stub_size,
            seed=seed,
        )
    )
