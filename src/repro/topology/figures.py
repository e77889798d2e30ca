"""The spec's example topologies.

``build_figure1`` reconstructs the Figure-1 network the spec walks
through in §2.5-§2.7 and §5.  The ASCII figure in the draft is partly
mangled, so the reconstruction is driven by the walk-throughs, which
pin down every relationship the examples rely on:

* host A on S1 behind R1; host C on S3 behind R1;
* host B on S4 with three CBT routers attached (R2, R5, R6), R6 the
  IGMP querier / D-DR, and R2 the first hop on R6's path to R4;
* R1's and R2's next hop toward R4 is R3 (they share transit LAN S2);
* R4 is the primary core, with member LANs S5/S6/S7 (hosts D, E2, F)
  and children R3 and R7 once joins complete;
* R7 serves member LAN S9 (host E);
* R8 serves S10 (host G, the data sender of §5) and S14 (host I),
  with children R9 and R12 on distinct interfaces and parent R4;
* R9 serves memberless S12 and forwards to R10, which serves member
  LANs S13 (host H) and S15 (host J);
* R12 serves member LAN S11 (host K);
* S8 is a high-cost backup path (R5-R7) so that every walk-through
  path matches the spec while failure tests have an alternate route;
* R9 is the secondary core.

``build_figure5_loop`` builds the §6.3 loop-detection topology
(Figure 5) with the transient routing inconsistency injected via
per-router cost overrides, plus helpers to pre-build the tree state
the walk-through starts from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.builder import Network

#: Hosts of figure 1 and the subnets they live on.
FIGURE1_HOSTS = {
    "A": "S1",
    "C": "S3",
    "B": "S4",
    "D": "S5",
    "E2": "S6",
    "F": "S7",
    "E": "S9",
    "G": "S10",
    "I": "S14",
    "H": "S13",
    "J": "S15",
    "K": "S11",
}

#: Group-member hosts in the §5 data-forwarding walk-through.
FIGURE1_MEMBERS = ["A", "C", "B", "D", "E2", "F", "E", "G", "I", "H", "J", "K"]


def build_figure1(trace_enabled: bool = True) -> Network:
    """Build the Figure-1 network (12 routers, 15 subnets, 12 hosts).

    The packet trace is on by default: the experiments, walkthroughs
    and trace-reading metrics use it.  Cells and explorer worlds, which
    never read it, build with ``trace_enabled=False``."""
    net = Network(trace_enabled=trace_enabled)
    routers = {name: net.add_router(name) for name in (
        "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11", "R12",
    )}

    # Member / host subnets.  Attachment order fixes address order, and
    # with it querier (= D-DR) election: the first-attached router gets
    # the lowest address on the LAN.  The spec's §2.6 walk-through has
    # R6 as S4's D-DR, so R6 attaches to S4 first.
    net.add_subnet("S1", [routers["R1"]])
    net.add_subnet("S3", [routers["R1"]])
    net.add_subnet("S4", [routers["R6"], routers["R2"], routers["R5"]])
    net.add_subnet("S5", [routers["R4"]])
    net.add_subnet("S6", [routers["R4"]])
    net.add_subnet("S7", [routers["R4"]])
    net.add_subnet("S9", [routers["R7"]])
    net.add_subnet("S10", [routers["R8"]])
    net.add_subnet("S14", [routers["R8"]])
    net.add_subnet("S12", [routers["R9"]])
    net.add_subnet("S13", [routers["R10"]])
    net.add_subnet("S15", [routers["R10"]])
    net.add_subnet("S11", [routers["R12"]])

    # Transit subnets and point-to-point links.
    net.add_subnet("S2", [routers["R1"], routers["R2"], routers["R3"]])
    # S8 is deliberately expensive: the walk-through paths must prefer
    # the R2/R3 route, but failure scenarios need an alternative.
    net.add_subnet("S8", [routers["R5"], routers["R7"], routers["R11"]], cost=5.0)
    net.add_p2p("L_R3_R4", routers["R3"], routers["R4"])
    net.add_p2p("L_R4_R7", routers["R4"], routers["R7"])
    net.add_p2p("L_R4_R8", routers["R4"], routers["R8"])
    net.add_p2p("L_R8_R9", routers["R8"], routers["R9"])
    net.add_p2p("L_R8_R12", routers["R8"], routers["R12"])
    net.add_p2p("L_R9_R10", routers["R9"], routers["R10"])

    for host_name, subnet_name in FIGURE1_HOSTS.items():
        net.add_host(host_name, net.link(subnet_name))

    net.converge()
    return net


#: Links forming the §6.3 rejoin shortcut (down while the tree builds).
FIGURE5_SHORTCUTS = ("L_R3_R6", "L_R5_R6", "L_R2_R5")


@dataclass
class Figure5:
    """The loop topology plus the staged state of the §6.3 story.

    The walk-through relies on a *transient* inconsistency: the tree
    was built along the chain R1-R2-R3-R4-R5 but, by the time R3
    rejoins, routing prefers paths through R6.  We stage this exactly:

    1. ``isolate_chain()`` — shortcut links down; build the tree
       (joins can only follow the chain).
    2. ``restore_shortcuts()`` — shortcuts come up; routing now
       prefers them, tree state unchanged.
    3. ``fail_parent_link()`` — sever R2-R3; R3's keepalives to R2
       die, triggering the REJOIN-ACTIVE via R6 that loops.
    """

    network: Network

    def isolate_chain(self) -> None:
        for name in FIGURE5_SHORTCUTS:
            self.network.fail_link(name, reconverge=False)
        self.network.converge()

    def restore_shortcuts(self) -> None:
        for name in FIGURE5_SHORTCUTS:
            self.network.restore_link(name, reconverge=False)
        self.network.converge()

    def fail_parent_link(self) -> None:
        """Sever R2-R3, the event that triggers R3's rejoin."""
        self.network.fail_link("L_R2_R3")


def build_figure5_loop() -> Figure5:
    """Figure-5 topology: R1 core, a chain R1-R2-R3-R4-R5, plus the
    R3-R6-R5 and R5-R2 shortcuts that create the rejoin loop once
    R2-R3 fails.

    Costs make the post-failure SPF yield the walk-through's paths:
    R3's best next hop to R1 is R6 (cost 4 via R6-R5-R2 vs 5 via
    R4-R5-R2), and R6's best next hop is R5.
    """
    net = Network()
    routers = {name: net.add_router(name) for name in (
        "R1", "R2", "R3", "R4", "R5", "R6",
    )}
    net.add_p2p("L_R1_R2", routers["R1"], routers["R2"], cost=1.0)
    net.add_p2p("L_R2_R3", routers["R2"], routers["R3"], cost=1.0)
    net.add_p2p("L_R3_R4", routers["R3"], routers["R4"], cost=2.0)
    net.add_p2p("L_R4_R5", routers["R4"], routers["R5"], cost=1.0)
    net.add_p2p("L_R3_R6", routers["R3"], routers["R6"], cost=1.0)
    net.add_p2p("L_R5_R6", routers["R5"], routers["R6"], cost=1.0)
    net.add_p2p("L_R2_R5", routers["R2"], routers["R5"], cost=1.0)
    # Member LANs so R3's subtree has a reason to exist.
    net.add_subnet("M3", [routers["R3"]])
    net.add_subnet("M4", [routers["R4"]])
    net.add_subnet("M5", [routers["R5"]])
    net.add_host("HM3", net.link("M3"))
    net.add_host("HM4", net.link("M4"))
    net.add_host("HM5", net.link("M5"))
    net.converge()
    return Figure5(network=net)
