"""Link-state routing: Dijkstra over the simulated topology.

Every router gets a full shortest-path tree over the router graph and a
route per subnet prefix.  Recomputation is triggered explicitly (tests
and failure benchmarks call :meth:`LinkStateRouting.recompute` after
flipping links), mirroring the converged-unicast-routing assumption the
CBT spec makes.

Asymmetry injection: per-(router, link) cost overrides let tests create
paths where A routes to B one way and B routes back another — the
transient-asymmetry situation §2.6 of the spec argues CBT tolerates.

Caching (see docs/PERFORMANCE.md): adjacency, the name/address router
maps, and per-router interface-by-link maps are built once and reused
by ``recompute``/``path``/``distance``.  Invalidation is explicit and
event-driven: ``add_router``/``add_link`` invalidate directly, and
every known link carries a topology observer that invalidates on
up/down flips, interface flips, and new attachments, so the caches can
never serve a stale topology.  Cost overrides drop only what is
derived from costs (adjacency is cost-independent).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.netsim.address import NETMASKS, IPv4Address
from repro.netsim.link import Link
from repro.netsim.nic import Interface
from repro.routing.table import Route, Router


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

    __slots__ = ("_radj", "_iface_by_link", "_prefix_map", "_plens", "_trees")

    def __init__(
        self,
        reverse_adjacency: Dict[str, List[Tuple[str, float, Link]]],
        iface_by_link: Dict[str, Dict[int, Interface]],
        prefix_map: Dict[Tuple[int, int], Tuple[Link, List[Tuple[str, Interface]]]],
        plens: List[int],
    ) -> None:
        self._radj = reverse_adjacency
        self._iface_by_link = iface_by_link
        self._prefix_map = prefix_map
        self._plens = plens
        # (net int, plen) -> (dist by router name, pred by router name)
        self._trees: Dict[
            Tuple[int, int],
            Tuple[Dict[str, float], Dict[str, Tuple[str, Link]]],
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
        link, _attached = hit
        own = self._iface_by_link.get(router_name)
        if own is None or id(link) in own:
            return None  # directly connected; handled by interface_toward()
        tree = self._trees.get(prefix_key)
        if tree is None:
            tree = self._trees[prefix_key] = self._reverse_tree(hit[1])
        dist, pred = tree
        hop = pred.get(router_name)
        if hop is None:
            return None  # unreachable (or an attached seed, handled above)
        nbr_name, hop_link = hop
        hop_link_id = id(hop_link)
        egress = own.get(hop_link_id)
        if egress is None:
            return None
        return Route(
            prefix=link.network,
            interface=egress,
            next_hop=self._iface_by_link[nbr_name][hop_link_id].address,
            metric=dist[router_name],
        )

    def _reverse_tree(
        self, attached: List[Tuple[str, Interface]]
    ) -> Tuple[Dict[str, float], Dict[str, Tuple[str, Link]]]:
        """Multi-source Dijkstra outward from a prefix's attached routers."""
        dist: Dict[str, float] = {}
        pred: Dict[str, Tuple[str, Link]] = {}
        visited: set = set()
        heap: List[Tuple[float, str]] = []
        for name, _iface in attached:
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
            for v, cost, link in radj_get(u, ()):
                nd = d + cost
                if nd < dist_get(v, inf):
                    dist[v] = nd
                    pred[v] = (u, link)
                    heappush(heap, (nd, v))
        return dist, pred


class LinkStateRouting:
    """Computes and installs routing tables for a set of routers."""

    def __init__(self, routers: Iterable[Router], links: Iterable[Link]) -> None:
        self.routers: List[Router] = list(routers)
        self.links: List[Link] = list(links)
        # (router name, link name) -> cost override
        self._cost_overrides: Dict[Tuple[str, str], float] = {}
        self.recompute_count = 0
        #: When set (bulk topologies; see realise()), recompute installs
        #: per-destination resolvers over a shared reverse-SPF plan
        #: instead of a full per-router Dijkstra + table install.
        self.ondemand = False
        #: Everything derived from the topology, by name — built on
        #: first use, gone when the topology changes:
        #: ``"adjacency"``  router name -> [(neighbour name, link)]
        #: ``"costed"``     the same with per-edge costs (overrides
        #:                  applied): name -> [(neighbour, cost, link)]
        #: ``"by_name"`` / ``"by_address"``  the router maps
        #: ``"iface_maps"`` (router name -> {id(link) -> interface},
        #:                  [(id(link), link, (int(net addr), prefixlen),
        #:                    [(router name, iface)])])
        #: ``"plain"``      the costed adjacency with no override applied
        #: ``"prefixes"``   ((int(net addr), prefixlen) -> (link,
        #:                  [(router name, iface)]), prefix lengths
        #:                  longest first) for the on-demand plan
        #: ``"dist"``       source router name -> Dijkstra distance map
        #: The first five come from one pass over the links
        #: (:meth:`_scan_links`).
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
        """Adjacency is cost-independent; what is derived from costs is not."""
        self._derived.pop("costed", None)
        self._derived.pop("dist", None)

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

    def routers_by_address(self) -> Dict[IPv4Address, Router]:
        derived = self._derived
        if "by_address" not in derived:
            derived["by_address"] = {
                interface.address: router
                for router in self.routers
                for interface in router.interfaces
            }
        return derived["by_address"]

    def adjacency(self) -> Dict[str, List[Tuple[str, Link]]]:
        """router name -> [(neighbour router name, connecting link)]
        over the up links and interfaces."""
        derived = self._derived
        if "adjacency" not in derived:
            self._scan_links()
        return derived["adjacency"]

    def _costed_adjacency(self) -> Dict[str, List[Tuple[str, float, Link]]]:
        """Adjacency with per-edge costs (overrides applied) baked in."""
        derived = self._derived
        if "costed" not in derived:
            overrides = self._cost_overrides
            if not overrides:
                if "plain" not in derived:
                    self._scan_links()
                derived["costed"] = derived["plain"]
            else:
                derived["costed"] = {
                    name: [
                        (neighbour, overrides.get((name, link.name), link.cost), link)
                        for neighbour, link in edges
                    ]
                    for name, edges in self.adjacency().items()
                }
        return derived["costed"]

    def _iface_maps(
        self,
    ) -> Tuple[
        Dict[str, Dict[int, Interface]],
        List[Tuple[int, Link, Tuple[int, int], List[Tuple[str, Interface]]]],
    ]:
        """Per-router {link -> interface} map and the link scan sequence."""
        derived = self._derived
        if "iface_maps" not in derived:
            self._scan_links()
        return derived["iface_maps"]

    def _scan_links(self) -> None:
        """Derive, in one pass over the links, the adjacency, the
        plain-cost adjacency, the interface maps and the prefix map.

        A router's adjacency lists its up neighbours link by link, each
        link's attached routers in attachment order; the interface map
        holds each router's interface on every link it is attached to.
        """
        by_link: Dict[str, Dict[int, Interface]] = {
            router.name: {} for router in self.routers
        }
        adjacency: Dict[str, List[Tuple[str, Link]]] = {name: [] for name in by_link}
        plain: Dict[str, List[Tuple[str, float, Link]]] = {name: [] for name in by_link}
        link_seq: List[
            Tuple[int, Link, Tuple[int, int], List[Tuple[str, Interface]]]
        ] = []
        prefix_map: Dict[Tuple[int, int], Tuple[Link, List[Tuple[str, Interface]]]] = {}
        for link in self.links:
            link_id = id(link)
            attached: List[Tuple[str, Interface]] = []
            for interface in link.interfaces:
                name = interface.node.name
                own = by_link.get(name)
                if own is not None:
                    own[link_id] = interface
                    attached.append((name, interface))
            network = link.network
            prefix_key = (int(network.network_address), network.prefixlen)
            link_seq.append((link_id, link, prefix_key, attached))
            prefix_map[prefix_key] = (link, attached)
            if link.up and len(attached) > 1:
                up = [(name, interface) for name, interface in attached if interface.up]
                cost = link.cost
                for name, interface in up:
                    edges = adjacency[name]
                    costed = plain[name]
                    for other, peer in up:
                        if peer is not interface:
                            edges.append((other, link))
                            costed.append((other, cost, link))
        derived = self._derived
        derived["adjacency"] = adjacency
        derived["plain"] = plain
        derived["iface_maps"] = (by_link, link_seq)
        derived["prefixes"] = (
            prefix_map,
            sorted({plen for _, plen in prefix_map}, reverse=True),
        )

    # -- computation ---------------------------------------------------------

    def recompute(self) -> None:
        """Rebuild every router's routing table from current link state.

        Per-router SPF is deferred: each table gets a provider closing
        over a snapshot of the costed adjacency and interface maps, and
        runs Dijkstra + route installation on first access.  Routers
        whose tables are never consulted before the next reconvergence
        pay nothing, and the snapshot keeps the eager semantics — link
        flips after this call don't leak into the deferred results
        until ``recompute`` runs again.
        """
        self.recompute_count += 1
        if self.ondemand:
            self._recompute_ondemand()
            return
        adjacency = self._costed_adjacency()
        iface_by_link, link_seq = self._iface_maps()
        compute = self._compute_for
        for router in self.routers:
            router.table.set_provider(
                lambda r=router, a=adjacency, ibl=iface_by_link, ls=link_seq: compute(
                    r, a, ibl, ls
                )
            )

    def _recompute_ondemand(self) -> None:
        """Install per-destination resolvers over a shared reverse plan."""
        iface_by_link = self._iface_maps()[0]
        derived = self._derived
        overrides = self._cost_overrides
        if not overrides:
            radj = derived["plain"]
        else:
            # Reverse-costed adjacency: edge u -> v carries the cost *v*
            # (the forwarding router, one hop farther from the
            # destination) pays to cross the link, so overrides keep
            # forward semantics.
            radj = {
                name: [
                    (neighbour, overrides.get((neighbour, link.name), link.cost), link)
                    for neighbour, link in edges
                ]
                for name, edges in self.adjacency().items()
            }
        plan = _OndemandPlan(radj, iface_by_link, *derived["prefixes"])
        route_for = plan.route_for
        for router in self.routers:
            router.table.set_resolver(
                lambda dest_int, name=router.name: route_for(name, dest_int)
            )

    @staticmethod
    def _dijkstra(
        source: Router,
        adjacency: Dict[str, List[Tuple[str, float, Link]]],
        track_first_hop: bool = False,
    ) -> Tuple[Dict[str, float], Dict[str, Tuple[Link, str]]]:
        """Full shortest-path scan from ``source`` over costed adjacency.

        Returns ``(dist, first_hop)``; ``first_hop`` maps each
        destination to ``(egress link, neighbour name)`` and is only
        populated when ``track_first_hop`` is set.
        """
        dist: Dict[str, float] = {source.name: 0.0}
        first_hop: Dict[str, Tuple[Link, str]] = {}
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
            for neighbour, cost, link in adjacency.get(name, ()):
                nd = d + cost
                if nd < dist_get(neighbour, inf):
                    dist[neighbour] = nd
                    if track_first_hop:
                        if name == source_name:
                            first_hop[neighbour] = (link, neighbour)
                        else:
                            first_hop[neighbour] = first_hop[name]
                    heappush(heap, (nd, neighbour))
        return dist, first_hop

    @staticmethod
    def _compute_for(
        source: Router,
        adjacency: Dict[str, List[Tuple[str, float, Link]]],
        iface_by_link: Dict[str, Dict[int, Interface]],
        link_seq: List[Tuple[int, Link, Tuple[int, int], List[Tuple[str, Interface]]]],
    ) -> None:
        dist, first_hop = LinkStateRouting._dijkstra(
            source, adjacency, track_first_hop=True
        )
        LinkStateRouting._install_routes(
            source, dist, first_hop, iface_by_link, link_seq
        )

    @staticmethod
    def _install_routes(
        source: Router,
        dist: Dict[str, float],
        first_hop: Dict[str, Tuple[Link, str]],
        iface_by_link: Dict[str, Dict[int, Interface]],
        link_seq: List[Tuple[int, Link, Tuple[int, int], List[Tuple[str, Interface]]]],
    ) -> None:
        source_name = source.name
        source_ifaces = iface_by_link[source_name]
        own_links = set(source_ifaces)
        dist_get = dist.get
        # Destination router -> (egress interface, next-hop address):
        # resolved once per reachable router instead of once per route.
        hop_info: Dict[str, Tuple[Interface, IPv4Address]] = {}
        for dest, (egress_link, nbr_name) in first_hop.items():
            link_id = id(egress_link)
            hop_info[dest] = (
                source_ifaces[link_id],
                iface_by_link[nbr_name][link_id].address,
            )
        entries: List[Tuple[int, int, Route]] = []
        append = entries.append
        for link_id, link, prefix_key, attached_routers in link_seq:
            if link_id in own_links:
                continue  # directly connected; handled by interface_toward()
            best_metric: Optional[float] = None
            best_attached: Optional[str] = None
            for attached, _iface in attached_routers:
                metric = dist_get(attached)
                if metric is None or attached == source_name:
                    continue
                if best_metric is not None and metric >= best_metric:
                    continue
                best_metric = metric
                best_attached = attached
            if best_attached is None:
                continue
            egress_iface, next_hop = hop_info[best_attached]
            append(
                (
                    prefix_key[0],
                    prefix_key[1],
                    Route(
                        prefix=link.network,
                        interface=egress_iface,
                        next_hop=next_hop,
                        metric=best_metric,
                    ),
                )
            )
        source.table.replace_all(entries)

    # -- analysis helpers ----------------------------------------------------

    def path(self, src: Router, dst_address: IPv4Address, max_hops: int = 64) -> List[Router]:
        """Router-level path ``src`` would forward along toward an address.

        Used by placement heuristics and tests; follows installed
        routes, so it reflects overrides and failures after recompute.
        """
        routers_by_address = self.routers_by_address()
        path = [src]
        current = src
        for _ in range(max_hops):
            if current.owns_address(dst_address) or current.interface_toward(
                dst_address
            ):
                return path
            route = current.table.lookup(dst_address)
            if route is None or route.next_hop is None:
                return path
            nxt = routers_by_address.get(route.next_hop)
            if nxt is None or nxt in path:
                return path
            path.append(nxt)
            current = nxt
        return path

    def distance(self, src: Router, dst: Router) -> float:
        """Unicast metric distance between two routers (inf if cut off).

        The self-distance is 0 by definition.  Results reflect the
        *current* adjacency and cost overrides (no ``recompute`` needed)
        and are memoized per source until the topology or an override
        changes.
        """
        if src is dst or src.name == dst.name:
            return 0.0
        derived = self._derived
        if "dist" not in derived:
            derived["dist"] = {}
        dist = derived["dist"].get(src.name)
        if dist is None:
            dist, _ = self._dijkstra(src, self._costed_adjacency())
            derived["dist"][src.name] = dist
        return dist.get(dst.name, float("inf"))
