"""Delay and stretch metrics (experiment E4).

The acknowledged cost of a shared tree is *path stretch*: traffic
between a sender and a receiver travels via the tree (often through
the core region) rather than along the unicast shortest path.  The
paper's delay evaluation compares shared-tree delays against
shortest-path-tree delays; these helpers compute both plus the
per-pair stretch ratios.
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, List, Optional, Sequence, Tuple

from repro.topology.graph import Graph, Tree


def tree_delays(
    tree: Tree,
    sender: str,
    receivers: Sequence[str],
    dist: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Delay from ``sender`` to each receiver along tree edges; ``dist``
    is ``tree.delay_from(sender)`` when the caller holds it already."""
    if dist is None:
        dist = tree.delay_from(sender)
    out: Dict[str, float] = {}
    for receiver in receivers:
        if receiver == sender:
            continue
        if receiver not in dist:
            raise ValueError(f"{receiver} not reachable in the tree from {sender}")
        out[receiver] = dist[receiver]
    return out


def delay_stretch(
    graph: Graph,
    tree: Tree,
    sender: str,
    receivers: Sequence[str],
    dist: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-receiver ratio: tree delay / unicast shortest-path delay
    (``dist`` as for :func:`tree_delays`)."""
    on_tree = tree_delays(tree, sender, receivers, dist)
    shortest, _ = graph.dijkstra(sender, weight="delay")
    out: Dict[str, float] = {}
    for receiver, tree_delay in on_tree.items():
        baseline = shortest.get(receiver)
        if baseline is None:
            raise ValueError(f"{receiver} unreachable from {sender}")
        out[receiver] = tree_delay / baseline if baseline > 0 else 1.0
    return out


def summarise_stretch(
    graph: Graph,
    tree: Tree,
    senders: Sequence[str],
    receivers: Sequence[str],
    dists: Optional[Dict[str, Dict[str, float]]] = None,
) -> Tuple[float, float]:
    """(mean, max) stretch across all sender-receiver pairs; ``dists``
    maps a sender to ``tree.delay_from(sender)`` where the caller holds
    it already."""
    ratios: List[float] = []
    for sender in senders:
        dist = dists.get(sender) if dists else None
        ratios.extend(delay_stretch(graph, tree, sender, receivers, dist).values())
    if not ratios:
        return (1.0, 1.0)
    return (mean(ratios), max(ratios))


def max_tree_delay(tree: Tree, senders: Sequence[str], receivers: Sequence[str]) -> float:
    """Worst sender-to-receiver delay over the tree (diameter-ish)."""
    worst = 0.0
    for sender in senders:
        dist = tree.delay_from(sender)
        for receiver in receivers:
            if receiver == sender:
                continue
            worst = max(worst, dist.get(receiver, float("inf")))
    return worst
