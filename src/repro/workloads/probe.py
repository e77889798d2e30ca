"""Steady-state quality probe for workload runs.

Samples the live CBT tree at a configurable sim-time interval while a
workload (churn process or flash crowd) is running, and accumulates —
under the *identical* membership schedule — the modeled cost of the
DVMRP/MOSPF alternatives:

* **measured CBT** — tree cost and core-to-member delay stretch of the
  tree the protocol actually built (:func:`~repro.core.migration.
  protocol_tree`), cumulative control messages sent, and join-latency
  percentiles from the per-router telemetry histograms;
* **modeled MOSPF** — tree cost of the source-rooted shortest-path
  tree over the current member routers (MOSPF computes exactly this
  from its link-state database), control modeled as one
  group-membership-LSA flood (``n_routers`` messages) per membership
  change;
* **modeled DVMRP** — the same source-rooted SPT shape (RPF forwarding
  follows shortest paths), control modeled as one domain-wide flood
  (``n_routers``) when the source first transmits plus one
  graft/prune walking the member-to-source path (its hop count) per
  join/leave.

The baselines are *models*, not protocol runs: no MOSPF engine exists
in ``repro.baselines``, and flood-and-prune at n=1000 would dominate
the cell budget — docs/WORKLOADS.md states the modeling assumptions.
Everything sampled is a deterministic function of sim state, so probe
samples participate in cell fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baselines.trees import shortest_path_tree
from repro.core.migration import network_graph, protocol_tree
from repro.harness.parallel import Fingerprinted
from repro.harness.scenarios import serving_router
from repro.metrics.delay import summarise_stretch


def histogram_percentile(histograms: Sequence, quantile: float) -> float:
    """Percentile estimate over merged telemetry histograms.

    Merges the bucket counts of ``histograms`` (which must share
    bounds) and returns the upper bound of the bucket where the
    cumulative count first reaches ``quantile`` of the total — the
    standard conservative (upper-bound) estimate for cumulative-bucket
    histograms.  Observations in the overflow bucket report the last
    finite bound (the histogram cannot resolve beyond it).  Returns
    0.0 when no observations exist.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    histograms = [h for h in histograms if getattr(h, "count", 0)]
    if not histograms:
        return 0.0
    bounds = histograms[0].bounds
    merged = [0] * (len(bounds) + 1)
    total = 0
    for histogram in histograms:
        if histogram.bounds != bounds:
            raise ValueError(
                f"histogram bounds differ: {histogram.name} vs "
                f"{histograms[0].name}"
            )
        for index, count in enumerate(histogram.bucket_counts):
            merged[index] += count
        total += histogram.count
    threshold = quantile * total
    cumulative = 0
    for index, count in enumerate(merged):
        cumulative += count
        if cumulative >= threshold and count:
            return bounds[index] if index < len(bounds) else bounds[-1]
    return bounds[-1]


@dataclass(frozen=True)
class QualitySample(Fingerprinted):
    """One probe observation (all fields sim-deterministic)."""

    time: float
    members: int
    on_tree_routers: int
    tree_cost_cbt: float
    tree_cost_spt: float
    stretch_mean: float
    stretch_max: float
    control_cbt: int
    control_dvmrp_model: int
    control_mospf_model: int
    join_p50: float
    join_p95: float
    join_p99: float


@dataclass
class QualityProbe:
    """Periodic tree-quality sampler plus baseline control accounting.

    The workload driver reports membership changes through
    :meth:`note_join` / :meth:`note_leave` (which also advance the
    modeled DVMRP/MOSPF control counters) and calls :meth:`start` to
    begin periodic sampling on the domain's scheduler.
    """

    domain: object
    group: object
    source_host: str
    interval: float = 2.0
    samples: List[QualitySample] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        network = self.domain.network
        self.graph = network_graph(network)
        self._members: set = set()
        self._dvmrp_control = 0
        self._mospf_control = 0
        self._dvmrp_flooded = False
        self._n_routers = len(network.routers)
        self._timer = None
        self._stopped = False
        network.scheduler.register(self)
        self._host_router: Dict[str, Optional[str]] = {
            host: serving_router(network, host) for host in sorted(network.hosts)
        }
        self.source_router = self._host_router.get(self.source_host)
        # Hop counts from the source router (the graft/prune path
        # length in the DVMRP model), precomputed once.
        self._hops_from_source: Dict[str, int] = {}
        if self.source_router is not None:
            dist, prev = self.graph.dijkstra(self.source_router, weight="cost")
            for node in dist:
                hops, current = 0, node
                while current != self.source_router:
                    current = prev[current]
                    hops += 1
                self._hops_from_source[node] = hops

    # -- membership bookkeeping (drives the modeled baselines) ----------

    def note_join(self, host: str) -> None:
        self._members.add(host)
        self._note_change(host)

    def note_leave(self, host: str) -> None:
        self._members.discard(host)
        self._note_change(host)

    def note_first_transmit(self) -> None:
        """The source started streaming: DVMRP floods domain-wide."""
        if not self._dvmrp_flooded:
            self._dvmrp_flooded = True
            self._dvmrp_control += self._n_routers

    def _note_change(self, host: str) -> None:
        # MOSPF: every membership change floods a group-membership LSA.
        self._mospf_control += self._n_routers
        # DVMRP: a graft (join) or prune (leave) walks the path between
        # the member's router and the source.
        router = self._host_router.get(host)
        self._dvmrp_control += self._hops_from_source.get(router, 0)

    @property
    def members(self) -> List[str]:
        return sorted(self._members)

    def member_routers(self) -> List[str]:
        routers = {
            self._host_router.get(host)
            for host in self._members
        }
        routers.discard(None)
        return sorted(routers)

    # -- sampling --------------------------------------------------------

    def start(self) -> None:
        self._stopped = False
        self._schedule_next()

    def stop(self) -> None:
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _schedule_next(self) -> None:
        scheduler = self.domain.network.scheduler
        self._timer = scheduler.call_at(
            scheduler.now + self.interval, self._tick
        )

    def _tick(self) -> None:
        if self._stopped:
            return
        self.sample()
        self._schedule_next()

    def sample(self) -> QualitySample:
        """Take one observation now and append it to :attr:`samples`."""
        domain, group = self.domain, self.group
        now = domain.network.scheduler.now
        member_routers = self.member_routers()
        on_tree = len(domain.on_tree_routers(group))

        tree = protocol_tree(domain, self.graph, group)
        cost_cbt = tree.cost() if tree is not None else 0.0
        stretch_mean = stretch_max = 0.0
        if tree is not None and member_routers:
            reachable = set(tree.delay_from(tree.root))
            spanned = [r for r in member_routers if r in reachable]
            if spanned:
                stretch_mean, stretch_max = summarise_stretch(
                    self.graph, tree, [tree.root], spanned
                )

        cost_spt = 0.0
        if self.source_router is not None and member_routers:
            reachable_members = [
                r for r in member_routers if r in self._hops_from_source
            ]
            if reachable_members:
                cost_spt = shortest_path_tree(
                    self.graph, self.source_router, reachable_members
                ).cost()

        registry = domain.network.telemetry.registry
        latency_histograms = registry.histograms_matching(
            "cbt.router.*.join_latency"
        )
        sample = QualitySample(
            time=now,
            members=len(self._members),
            on_tree_routers=on_tree,
            tree_cost_cbt=cost_cbt,
            tree_cost_spt=cost_spt,
            stretch_mean=stretch_mean,
            stretch_max=stretch_max,
            control_cbt=domain.control_messages_sent(),
            control_dvmrp_model=self._dvmrp_control,
            control_mospf_model=self._mospf_control,
            join_p50=histogram_percentile(latency_histograms, 0.50),
            join_p95=histogram_percentile(latency_histograms, 0.95),
            join_p99=histogram_percentile(latency_histograms, 0.99),
        )
        self.samples.append(sample)
        return sample
