"""Static multicast tree construction.

Three tree families, matching the paper's evaluation axes:

* :func:`shortest_path_tree` — the per-source tree DVMRP/MOSPF build:
  the union of shortest paths from the source to each member.
* :func:`shared_tree` — the static model of the CBT shape: the union
  of shortest paths between the core and each member (the live tree,
  built by joins, can differ from it; see its docstring).
* :func:`kmb_steiner_tree` — the Kou-Markowsky-Berman 2-approximation
  of the Steiner minimal tree, the cost yardstick the shared-tree
  literature compares against.

All three return :class:`repro.topology.graph.Tree` objects whose
``cost``/``delay_from`` methods feed experiments E3-E5.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Set, Tuple

from repro.topology.graph import Graph, Tree


def shortest_path_tree(
    graph: Graph, source: str, members: Sequence[str], weight: str = "cost"
) -> Tree:
    """Union of shortest paths from ``source`` to every member."""
    tree = Tree(graph=graph, root=source)
    dist, prev = graph.dijkstra(source, weight=weight)
    for member in members:
        if member == source:
            continue
        if member not in dist:
            raise ValueError(f"{member} unreachable from {source}")
        path = [member]
        while path[-1] != source:
            path.append(prev[path[-1]])
        tree.add_path(path)
    return tree


def shared_tree(
    graph: Graph, core: str, members: Sequence[str], weight: str = "cost"
) -> Tree:
    """The static model of a CBT tree: the union of shortest paths
    between the core and every member.

    This is *not* the tree the protocol builds.  A live join follows
    the member's own unicast next hop toward the core and stops at the
    first on-tree router, so the live tree depends on routing
    tie-breaks and join order, and can differ from this one in cost.
    No test compares the two.
    """
    return shortest_path_tree(graph, core, members, weight)


def kmb_steiner_tree(
    graph: Graph, terminals: Sequence[str], weight: str = "cost"
) -> Tree:
    """Kou-Markowsky-Berman Steiner heuristic (<= 2x optimal cost).

    1. Build the metric closure over the terminals.
    2. Take its minimum spanning tree.
    3. Expand each closure edge into a real shortest path.
    4. Prune degree-1 non-terminals (via an MST + leaf-prune pass).
    """
    terminals = list(dict.fromkeys(terminals))
    if not terminals:
        raise ValueError("terminal set must not be empty")
    root = terminals[0]
    if len(terminals) == 1:
        return Tree(graph=graph, root=root)

    # Step 1: shortest paths between all terminal pairs.
    paths: Dict[Tuple[str, str], List[str]] = {}
    closure: Dict[Tuple[str, str], float] = {}
    for i, u in enumerate(terminals):
        dist, prev = graph.dijkstra(u, weight=weight)
        for v in terminals[i + 1 :]:
            if v not in dist:
                raise ValueError(f"{v} unreachable from {u}")
            path = [v]
            while path[-1] != u:
                path.append(prev[path[-1]])
            path.reverse()
            paths[(u, v)] = path
            closure[(u, v)] = dist[v]

    # Step 2: Prim's MST over the closure.
    in_tree = {root}
    mst_edges: List[Tuple[str, str]] = []
    heap: List[Tuple[float, str, str]] = []
    for (u, v), d in closure.items():
        if u == root or v == root:
            heapq.heappush(heap, (d, u, v))
    while len(in_tree) < len(terminals) and heap:
        d, u, v = heapq.heappop(heap)
        if u in in_tree and v in in_tree:
            continue
        new = v if u in in_tree else u
        in_tree.add(new)
        mst_edges.append((u, v))
        for (a, b), dd in closure.items():
            if (a == new) != (b == new):
                heapq.heappush(heap, (dd, a, b))

    # Step 3: expand closure edges into graph paths.
    expanded: Set[Tuple[str, str]] = set()
    for u, v in mst_edges:
        path = paths.get((u, v)) or list(reversed(paths[(v, u)]))
        for a, b in zip(path, path[1:]):
            expanded.add((a, b) if a <= b else (b, a))

    # Step 4: repeatedly prune non-terminal leaves.
    terminal_set = set(terminals)
    changed = True
    while changed:
        changed = False
        degree: Dict[str, int] = {}
        for a, b in expanded:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        for a, b in list(expanded):
            for leaf in (a, b):
                if degree.get(leaf, 0) == 1 and leaf not in terminal_set:
                    expanded.discard((a, b))
                    changed = True
                    break

    tree = Tree(graph=graph, root=root)
    tree.edges = expanded
    return tree


def source_trees_for(
    graph: Graph,
    senders: Sequence[str],
    members: Sequence[str],
    weight: str = "cost",
) -> Dict[str, Tree]:
    """One shortest-path tree per sender (the DVMRP/MOSPF state model)."""
    return {
        sender: shortest_path_tree(graph, sender, members, weight=weight)
        for sender in senders
    }
