"""Core placement strategies.

Core placement is the CBT papers' acknowledged open problem ("work is
currently in progress to address the issue of core placement"); the
1993 evaluation showed tree quality depends heavily on where the core
sits.  These strategies operate on the abstract
:class:`repro.topology.graph.Graph` and are swept by the delay-stretch
experiment (E4):

* ``random_core`` — the pessimistic baseline;
* ``max_degree_core`` — a cheap local heuristic;
* ``topology_center_core`` — minimum eccentricity (needs full topology
  knowledge, the idealised case);
* ``member_centroid_core`` — minimises total distance to the member
  set (group-aware placement);
* ``best_of_candidates`` — evaluate k random candidates against a
  member set and keep the best, modelling a practical middle ground;
* ``locality_cores`` — k-median-style clustering of the member set
  into locality groups, one core per cluster (the multi-core list the
  migration subsystem announces per group).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.topology.graph import Graph

#: Assign-and-recompute rounds :func:`locality_cores` runs at most
#: before it takes the medoids it has.
MAX_ROUNDS = 8


def random_core(graph: Graph, rng: random.Random) -> str:
    """Uniformly random router."""
    return rng.choice(graph.nodes)


def max_degree_core(graph: Graph) -> str:
    """Highest-degree router (ties broken by name for determinism)."""
    return max(graph.nodes, key=lambda n: (graph.degree(n), n))


def topology_center_core(graph: Graph) -> str:
    """Router with minimum eccentricity over the whole topology."""
    return graph.center(weight="delay")


def member_centroid_core(graph: Graph, members: Sequence[str]) -> str:
    """Router minimising total delay to the member set."""
    if not members:
        raise ValueError("member set must not be empty")
    return min(
        graph.nodes,
        key=lambda n: (graph.total_distance(n, members, weight="delay"), n),
    )


def best_of_candidates(
    graph: Graph,
    members: Sequence[str],
    rng: random.Random,
    k: int = 3,
) -> str:
    """Best of ``k`` random candidates by total delay to members."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    # Sample WITHOUT replacement: k=3 must evaluate 3 distinct routers,
    # not up to 3 (choice-with-replacement silently shrank the pool).
    nodes = graph.nodes
    candidates = rng.sample(nodes, min(k, len(nodes)))
    return min(
        candidates,
        key=lambda n: (graph.total_distance(n, members, weight="delay"), n),
    )


def rank_cores(
    graph: Graph, members: Sequence[str], count: int = 2
) -> List[str]:
    """Ordered core list (primary first) for a group: centroid primary
    plus up-to-``count - 1`` next-best distinct routers as secondaries."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    ranked = sorted(
        graph.nodes,
        key=lambda n: (graph.total_distance(n, members, weight="delay"), n),
    )
    return ranked[:count]


def _member_distances(
    graph: Graph, members: Sequence[str]
) -> Dict[str, Dict[str, float]]:
    """Per-member shortest-path delay maps (one Dijkstra each)."""
    return {m: graph.dijkstra(m, weight="delay")[0] for m in members}


def _cluster_medoid(graph: Graph, cluster: Sequence[str]) -> str:
    """Router minimising total delay to the cluster's members."""
    return min(
        graph.nodes,
        key=lambda n: (graph.total_distance(n, cluster, weight="delay"), n),
    )


def locality_cores(
    graph: Graph,
    members: Sequence[str],
    count: int = 2,
) -> List[str]:
    """Ranked multi-core list from member-locality clustering.

    A k-median-style pass over the member set: ``count`` medoids are
    seeded by the farthest-point heuristic (first medoid = the
    centroid member), members are assigned to their nearest medoid,
    and each cluster's medoid is recomputed until fixed point (or
    :data:`MAX_ROUNDS`).  Each cluster then contributes one core — the
    router minimising total distance to that cluster — and the
    de-duplicated core set is ordered by total distance to the *whole*
    member set, so the first entry is the best single core (the
    primary) and the rest are locality-spread secondaries.

    Fully deterministic: every choice breaks ties by node name.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    members = sorted(dict.fromkeys(members))
    if not members:
        raise ValueError("member set must not be empty")
    for member in members:
        if member not in graph.nodes:
            raise KeyError(f"member {member} is not a node of the graph")
    k = min(count, len(members))
    dist = _member_distances(graph, members)

    # Seed: centroid member first, then farthest-point additions.
    seeds = [
        min(
            members,
            key=lambda m: (
                sum(dist[m].get(o, float("inf")) for o in members),
                m,
            ),
        )
    ]
    while len(seeds) < k:
        seeds.append(
            max(
                (m for m in members if m not in seeds),
                key=lambda m: (
                    min(dist[m].get(s, float("inf")) for s in seeds),
                    m,
                ),
            )
        )

    medoids = list(seeds)
    for _ in range(MAX_ROUNDS):
        clusters: Dict[str, List[str]] = {m: [] for m in medoids}
        for member in members:
            nearest = min(
                medoids,
                key=lambda md: (dist[member].get(md, float("inf")), md),
            )
            clusters[nearest].append(member)
        updated = sorted(
            _cluster_medoid(graph, cluster)
            for cluster in clusters.values()
            if cluster
        )
        if updated == sorted(medoids):
            break
        medoids = updated

    # One core per cluster; dedup; rank by total distance to everyone.
    cores = sorted(
        dict.fromkeys(medoids),
        key=lambda n: (graph.total_distance(n, members, weight="delay"), n),
    )
    if len(cores) < count:
        # Clustering collapsed (or count > members): pad with the next
        # best distinct routers so callers always get up to ``count``.
        for extra in rank_cores(graph, members, count=len(graph.nodes)):
            if extra not in cores:
                cores.append(extra)
            if len(cores) == min(count, len(graph.nodes)):
                break
    return cores[:count]
