"""A PIM Sparse-Mode model for comparison (spec reference [10]).

PIM-SM is CBT's sibling: both build receiver-initiated shared trees
rooted at a rendezvous point (PIM's RP == CBT's core).  The
architectural differences the mid-90s debate turned on:

* **Unidirectional RP tree** — PIM data flows only *down* the RP
  tree; a sender's packets first travel sender -> RP (register tunnel
  or an (S,G) tree the RP joins), then RP -> receivers.  CBT's tree is
  bidirectional: packets enter at any on-tree router and span out.
* **SPT switchover** — PIM last-hop routers may switch each source to
  a shortest-path tree, buying unicast-optimal delay at the cost of
  per-(source, group) state — exactly the O(S x G) state CBT set out
  to remove.

This module models both modes statically (trees + state censuses), the
way the era's papers compared them; the packet-level contrasts are
covered by the DVMRP engine on the flood-and-prune side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.baselines.trees import shared_tree, shortest_path_tree
from repro.topology.graph import Graph, Tree


@dataclass
class PIMSMModel:
    """Trees and state for one group under PIM-SM.

    ``rp_tree`` is the (*,G) shared tree (receivers toward the RP).
    ``source_paths`` maps each sender to its sender->RP path (the
    (S,G) tree the RP joins after registering).  ``spt`` maps each
    sender to the receiver-side shortest-path tree when switchover is
    on (empty otherwise).
    """

    graph: Graph
    rp: str
    members: Tuple[str, ...]
    senders: Tuple[str, ...]
    switchover: bool
    rp_tree: Tree = field(init=False)
    source_paths: Dict[str, List[str]] = field(init=False)
    spt: Dict[str, Tree] = field(init=False)

    def __post_init__(self) -> None:
        # The static comparison treats delay as the routing metric
        # throughout (as the delay experiments do), so SPT switchover
        # is unicast-delay-optimal by construction.
        self.rp_tree = shared_tree(
            self.graph, self.rp, list(self.members), weight="delay"
        )
        self.source_paths = {
            sender: self.graph.shortest_path(sender, self.rp, weight="delay")
            for sender in self.senders
        }
        self.spt = (
            {
                sender: shortest_path_tree(
                    self.graph, sender, list(self.members), weight="delay"
                )
                for sender in self.senders
            }
            if self.switchover
            else {}
        )

    # -- state census ------------------------------------------------------

    def state_per_router(self) -> Dict[str, int]:
        """Entries per router: one (*,G) per RP-tree router plus one
        (S,G) per router on any source's delivery path/tree."""
        state: Dict[str, Set[Tuple[str, str]]] = {}

        def add(node: str, kind: str, source: str = "*") -> None:
            state.setdefault(node, set()).add((kind, source))

        for node in self.rp_tree.nodes:
            add(node, "star_g")
        for sender, path in self.source_paths.items():
            for node in path:
                add(node, "s_g", sender)
        for sender, tree in self.spt.items():
            for node in tree.nodes:
                add(node, "s_g", sender)
        return {node: len(entries) for node, entries in state.items()}

    def total_state(self) -> int:
        return sum(self.state_per_router().values())

    # -- delay -------------------------------------------------------------------

    def delivery_delay(self, sender: str, receiver: str) -> float:
        """Delay from ``sender`` to ``receiver`` under this mode.

        Without switchover: sender -> RP (register/(S,G) path) plus RP
        -> receiver down the shared tree.  With switchover: along the
        sender's SPT (unicast-optimal).
        """
        if receiver == sender:
            return 0.0
        if self.switchover:
            return self.spt[sender].delay_from(sender).get(
                receiver, float("inf")
            )
        to_rp = self._path_delay(self.source_paths[sender])
        down = self.rp_tree.delay_from(self.rp).get(receiver, float("inf"))
        return to_rp + down

    def mean_stretch(self) -> float:
        """Mean delay stretch over all sender-receiver pairs."""
        ratios: List[float] = []
        for sender in self.senders:
            unicast, _ = self.graph.dijkstra(sender, weight="delay")
            for receiver in self.members:
                if receiver == sender:
                    continue
                baseline = unicast.get(receiver)
                if not baseline:
                    continue
                ratios.append(self.delivery_delay(sender, receiver) / baseline)
        return sum(ratios) / len(ratios) if ratios else 1.0

    def _path_delay(self, path: List[str]) -> float:
        total = 0.0
        for u, v in zip(path, path[1:]):
            edge = self.graph.edge_between(u, v)
            total += edge.delay if edge is not None else 1.0
        return total


def pim_sm_model(
    graph: Graph,
    rp: str,
    members: Sequence[str],
    senders: Sequence[str],
    switchover: bool = True,
) -> PIMSMModel:
    """Build the PIM-SM model for one group."""
    return PIMSMModel(
        graph=graph,
        rp=rp,
        members=tuple(members),
        senders=tuple(senders),
        switchover=switchover,
    )


def cbt_equivalent_state(
    graph: Graph, core: str, members: Sequence[str]
) -> Dict[str, int]:
    """CBT's state for the same group: one entry per on-tree router,
    senders irrelevant (bidirectional shared tree)."""
    tree = shared_tree(graph, core, list(members))
    return {node: 1 for node in tree.nodes}
