"""Tree cost metrics (experiment E3).

The paper's cost metric is the total routing cost of the links a
delivery scheme occupies: one shared tree for CBT versus the union of
per-source trees for DVMRP/MOSPF.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from repro.topology.graph import Tree


def forest_cost(trees: Iterable[Tree]) -> float:
    """Cost of the *union* of several trees' edges.

    Per-source schemes pay each link once regardless of how many
    source trees cross it (the link carries state for each, but the
    cost metric counts occupied links).
    """
    edges: Set[Tuple[str, str]] = set()
    graph = None
    for tree in trees:
        graph = tree.graph
        edges |= tree.edges
    if graph is None:
        return 0.0
    total = 0.0
    for u, v in edges:
        edge = graph.edge_between(u, v)
        if edge is None:
            raise ValueError(f"edge ({u},{v}) not in graph")
        total += edge.cost
    return total
