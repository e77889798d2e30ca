"""Link-state routing: Dijkstra over the simulated topology.

Every router gets a full shortest-path tree over the router graph and a
route per subnet prefix.  Recomputation is triggered explicitly (tests
and failure benchmarks call :meth:`LinkStateRouting.recompute` after
flipping links), mirroring the converged-unicast-routing assumption the
CBT spec makes.

Asymmetry injection: per-(router, link) cost overrides let tests create
paths where A routes to B one way and B routes back another — the
transient-asymmetry situation §2.6 of the spec argues CBT tolerates.

Caching (see docs/PERFORMANCE.md): one view of the topology — each
router's neighbour entries and the prefix map — is built once and
reused by ``recompute``/``path``/``distance``.  Invalidation is
explicit and event-driven: ``add_router``/``add_link`` invalidate
directly, and every known link carries a topology observer that
invalidates on up/down flips, interface flips, and new attachments, so
the caches can never serve a stale topology.  Cost overrides drop only
what is derived from costs (the view itself is cost-independent).
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.netsim.address import NETMASKS
from repro.netsim.link import Link
from repro.netsim.nic import Interface
from repro.routing.table import Route, Router

#: One neighbour entry of a router: (neighbour name, cost, link, own
#: interface on the link, the neighbour's interface on it).
Edge = Tuple[str, float, Link, Interface, Interface]

#: (network address, prefixlen) -> (link, the names of its attached
#: routers in attach order), in link order.  The key's address is the
#: link's own ``network_address`` (an int, so a plain-int probe finds
#: it); no reader needs a router's interface on the link, so the map
#: holds none.
Prefixes = Dict[Tuple[int, int], Tuple[Link, Tuple[str, ...]]]


class _OndemandPlan:
    """Shared per-destination route resolution for bulk topologies.

    The eager/provider modes run one full Dijkstra *plus a full table
    install* per router — O(routers × links) work even when each router
    only ever forwards toward one or two destinations (the core).  This
    plan inverts the computation: one *multi-source reverse* Dijkstra
    per destination prefix, seeded at the prefix's attached routers, is
    shared by every router.  For each router R it yields both the
    metric ``min over attached A of dist(R, A)`` and R's predecessor —
    the neighbour R forwards to.  Since edge costs are strictly
    positive, hop-by-hop forwarding along predecessors strictly
    decreases the metric, so paths are loop-free even though routers
    share one tree.

    Edge costs are taken as seen by the *forwarding* router (the node
    being relaxed into), so per-(router, link) overrides keep their
    forward semantics.  Under cost ties the selected next hop may
    differ from the eager mode's choice (both are shortest); this mode
    is therefore reserved for bulk topologies with their own baselines,
    never the pinned small scenarios.

    Trees are computed lazily per prefix and cached for the plan's
    lifetime; like table providers, the plan snapshots topology state
    at recompute time.
    """

    __slots__ = ("_radj", "_prefix_map", "_plens", "_trees")

    def __init__(
        self,
        reverse_adjacency: Dict[str, List[Edge]],
        prefix_map: Prefixes,
    ) -> None:
        self._radj = reverse_adjacency
        self._prefix_map = prefix_map
        self._plens = sorted({plen for _, plen in prefix_map}, reverse=True)
        # (net int, plen) -> (dist by router name, pred by router name)
        self._trees: Dict[
            Tuple[int, int], Tuple[Dict[str, float], Dict[str, Edge]]
        ] = {}

    def route_for(self, router_name: str, dest_int: int) -> Optional[Route]:
        prefix_key = None
        hit = None
        for plen in self._plens:
            key = (dest_int & NETMASKS[plen], plen)
            hit = self._prefix_map.get(key)
            if hit is not None:
                prefix_key = key
                break
        if hit is None:
            return None
        link, attached = hit
        if router_name in attached:
            return None  # directly connected; handled by interface_toward()
        tree = self._trees.get(prefix_key)
        if tree is None:
            tree = self._trees[prefix_key] = self._reverse_tree(attached)
        dist, pred = tree
        hop = pred.get(router_name)
        if hop is None:
            return None  # unreachable
        # ``hop`` is the predecessor's edge toward this router: its
        # own interface is our next hop, its peer interface ours.
        return Route(
            prefix=link.network,
            interface=hop[4],
            next_hop=hop[3].address,
            metric=dist[router_name],
        )

    def _reverse_tree(
        self, attached: Tuple[str, ...]
    ) -> Tuple[Dict[str, float], Dict[str, Edge]]:
        """Multi-source Dijkstra outward from a prefix's attached routers."""
        dist: Dict[str, float] = {}
        pred: Dict[str, Edge] = {}
        visited: set = set()
        heap: List[Tuple[float, str]] = []
        for name in attached:
            if name not in dist:
                dist[name] = 0.0
                heap.append((0.0, name))
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        dist_get = dist.get
        radj_get = self._radj.get
        inf = float("inf")
        while heap:
            d, u = heappop(heap)
            if u in visited:
                continue
            visited.add(u)
            for edge in radj_get(u, ()):
                v = edge[0]
                nd = d + edge[1]
                if nd < dist_get(v, inf):
                    dist[v] = nd
                    pred[v] = edge
                    heappush(heap, (nd, v))
        return dist, pred


class LinkStateRouting:
    """Computes and installs routing tables for a set of routers."""

    def __init__(self, routers: Iterable[Router], links: Iterable[Link]) -> None:
        self.routers: List[Router] = list(routers)
        self.links: List[Link] = list(links)
        # (router name, link name) -> cost override
        self._cost_overrides: Dict[Tuple[str, str], float] = {}
        #: When set (bulk topologies; see realise()), recompute installs
        #: per-destination resolvers over a shared reverse-SPF plan
        #: instead of a full per-router Dijkstra + table install.
        self.ondemand = False
        #: Everything derived from the topology, by name — built on
        #: first use, gone when the topology changes:
        #: ``"neighbours"`` router name -> [:data:`Edge`] over the up
        #:                  links and interfaces, at the link's cost
        #: ``"prefixes"``   :data:`Prefixes`: (net addr, prefixlen) ->
        #:                  (link, attached router names), in link order
        #: ``"costed"``     the neighbour entries with the per-(router,
        #:                  link) overrides applied
        #: The first two come from one pass over the links
        #: (:meth:`_scan_links`); every reader uses them.
        self._derived: Dict[str, Any] = {}
        #: Drop every topology-derived cache.  Called from
        #: ``add_router`` / ``add_link`` and by every link (it is their
        #: topology observer) on up/down and attachment changes; safe
        #: and cheap to call by hand after out-of-band topology surgery.
        #: The dict's own ``clear``, so what the links hold is the
        #: caches and not this object: nothing in the topology refers
        #: to its routing substrate, which therefore sits outside every
        #: reference cycle and is finalised when its last holder lets
        #: go (see :meth:`close`).
        self.invalidate_topology: Callable[[], None] = self._derived.clear
        for link in self.links:
            link.add_topology_observer(self.invalidate_topology)

    # -- configuration -----------------------------------------------------

    def add_router(self, router: Router) -> None:
        self.routers.append(router)
        self.invalidate_topology()

    def add_link(self, link: Link) -> None:
        self.links.append(link)
        link.add_topology_observer(self.invalidate_topology)
        self.invalidate_topology()

    def override_cost(self, router: Router, link: Link, cost: float) -> None:
        """Make ``router`` see ``link`` at ``cost`` (asymmetry injection)."""
        if cost <= 0:
            raise ValueError(f"cost must be positive, got {cost}")
        self._cost_overrides[(router.name, link.name)] = cost
        self._forget_costs()

    def clear_overrides(self) -> None:
        self._cost_overrides.clear()
        self._forget_costs()

    def _forget_costs(self) -> None:
        """The topology view is cost-independent; what is derived from
        costs is not."""
        self._derived.pop("costed", None)

    def close(self) -> None:
        """End the topology this object routes over: withdraw what
        ``recompute`` installed in the routers' tables (providers and
        resolvers hold the links and interfaces), detach every
        interface from its link and its node (:meth:`Link.close`) and
        forget the routers and links.  Those are the cycles that tie a
        topology together, so what is left is freed by refcount.

        ``Network.close()`` calls this, and so does ``__del__``: the
        topology lives as long as its routing substrate does, so a
        caller that keeps ``network.routing`` and drops the network
        still has routers, links and tables to ``recompute`` over, and
        the topology ends when that last reference goes.  Idempotent.
        """
        for router in self.routers:
            router.table.clear()
        for link in self.links:
            link.close()
        self.routers = []
        self.links = []
        self.invalidate_topology()

    def __del__(self) -> None:
        if "invalidate_topology" in self.__dict__:  # else the constructor raised
            self.close()

    # -- cached views --------------------------------------------------------

    def _topology(self) -> Tuple[Dict[str, List[Edge]], Prefixes]:
        """The neighbour entries and the prefix map (:meth:`_scan_links`)."""
        derived = self._derived
        if "neighbours" not in derived:
            self._scan_links()
        return derived["neighbours"], derived["prefixes"]

    def link_routers(self) -> Iterable[Tuple[Link, Tuple[str, ...]]]:
        """Each link with the names of its attached routers, up or not,
        in attachment order: the prefix map's values, in link order."""
        return self._topology()[1].values()

    def _costed_adjacency(self) -> Dict[str, List[Edge]]:
        """Neighbour entries with the overrides applied: an edge costs
        what the router it leaves sees the link at."""
        derived = self._derived
        if "costed" not in derived:
            neighbours = self._topology()[0]
            overrides = self._cost_overrides
            derived["costed"] = (
                neighbours
                if not overrides
                else {
                    name: [
                        (other, overrides.get((name, link.name), cost), link, own, peer)
                        for other, cost, link, own, peer in edges
                    ]
                    for name, edges in neighbours.items()
                }
            )
        return derived["costed"]

    def _scan_links(self) -> None:
        """Derive, in one pass over the links, the neighbour entries and
        the prefix map.

        A router's entries list its up neighbours link by link, each
        link's attached routers in attachment order; the prefix map
        holds every link's attached routers, up or not.
        """
        neighbours: Dict[str, List[Edge]] = {router.name: [] for router in self.routers}
        prefixes: Prefixes = {}
        for link in self.links:
            attached = [
                (interface.node.name, interface)
                for interface in link.interfaces
                if interface.node.name in neighbours
            ]
            network = link.network
            prefixes[(network.network_address, network.prefixlen)] = (
                link,
                tuple([name for name, _ in attached]),
            )
            if link.up and len(attached) > 1:
                up = [(name, interface) for name, interface in attached if interface.up]
                cost = link.cost
                for name, interface in up:
                    edges = neighbours[name]
                    for other, peer in up:
                        if peer is not interface:
                            edges.append((other, cost, link, interface, peer))
        derived = self._derived
        derived["neighbours"] = neighbours
        derived["prefixes"] = prefixes

    # -- computation ---------------------------------------------------------

    def recompute(self) -> None:
        """Rebuild every router's routing table from current link state.

        Per-router SPF is deferred: each table gets a provider closing
        over a snapshot of the costed neighbour entries and the prefix
        map, and runs Dijkstra + route installation on first access.
        Routers whose tables are never consulted before the next
        reconvergence pay nothing, and the snapshot keeps the eager
        semantics — link flips after this call don't leak into the
        deferred results until ``recompute`` runs again.
        """
        if self.ondemand:
            self._recompute_ondemand()
            return
        adjacency = self._costed_adjacency()
        prefixes = self._topology()[1]
        compute = self._compute_for
        for router in self.routers:
            router.table.set_provider(
                lambda r=router, a=adjacency, p=prefixes: compute(r, a, p)
            )

    def _recompute_ondemand(self) -> None:
        """Install per-destination resolvers over a shared reverse plan."""
        neighbours, prefixes = self._topology()
        overrides = self._cost_overrides
        if not overrides:
            radj = neighbours
        else:
            # Reverse-costed adjacency: edge u -> v carries the cost *v*
            # (the forwarding router, one hop farther from the
            # destination) pays to cross the link, so overrides keep
            # forward semantics.
            radj = {
                name: [
                    (other, overrides.get((other, link.name), cost), link, own, peer)
                    for other, cost, link, own, peer in edges
                ]
                for name, edges in neighbours.items()
            }
        route_for = _OndemandPlan(radj, prefixes).route_for
        for router in self.routers:
            router.table.set_resolver(partial(route_for, router.name))

    @staticmethod
    def _dijkstra(
        source: Router,
        adjacency: Dict[str, List[Edge]],
    ) -> Tuple[Dict[str, float], Dict[str, Edge]]:
        """Full shortest-path scan from ``source`` over costed adjacency.

        Returns ``(dist, first_hop)``; ``first_hop`` maps each
        destination to the source's neighbour entry it is reached
        through.
        """
        dist: Dict[str, float] = {source.name: 0.0}
        first_hop: Dict[str, Edge] = {}
        visited: set = set()
        heap: List[Tuple[float, str]] = [(0.0, source.name)]
        source_name = source.name
        heappop = heapq.heappop
        heappush = heapq.heappush
        dist_get = dist.get
        inf = float("inf")

        while heap:
            d, name = heappop(heap)
            if name in visited:
                continue
            visited.add(name)
            for edge in adjacency.get(name, ()):
                neighbour = edge[0]
                nd = d + edge[1]
                if nd < dist_get(neighbour, inf):
                    dist[neighbour] = nd
                    if name == source_name:
                        first_hop[neighbour] = edge
                    else:
                        first_hop[neighbour] = first_hop[name]
                    heappush(heap, (nd, neighbour))
        return dist, first_hop

    @staticmethod
    def _compute_for(
        source: Router,
        adjacency: Dict[str, List[Edge]],
        prefixes: Prefixes,
    ) -> None:
        dist, first_hop = LinkStateRouting._dijkstra(source, adjacency)
        LinkStateRouting._install_routes(source, dist, first_hop, prefixes)

    @staticmethod
    def _install_routes(
        source: Router,
        dist: Dict[str, float],
        first_hop: Dict[str, Edge],
        prefixes: Prefixes,
    ) -> None:
        source_name = source.name
        dist_get = dist.get
        entries: List[Tuple[int, int, Route]] = []
        append = entries.append
        for (net_int, plen), (link, attached_routers) in prefixes.items():
            best_metric: Optional[float] = None
            best_attached: Optional[str] = None
            for attached in attached_routers:
                if attached == source_name:
                    break  # directly connected; handled by interface_toward()
                metric = dist_get(attached)
                if metric is None:
                    continue
                if best_metric is not None and metric >= best_metric:
                    continue
                best_metric = metric
                best_attached = attached
            else:
                if best_attached is not None:
                    edge = first_hop[best_attached]
                    append(
                        (
                            net_int,
                            plen,
                            Route(
                                prefix=link.network,
                                interface=edge[3],
                                next_hop=edge[4].address,
                                metric=best_metric,
                            ),
                        )
                    )
        source.table.replace_all(entries)
