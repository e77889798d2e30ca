"""Core Based Trees (CBT) multicast — a full reproduction.

Implements the CBT multicast protocol (Ballardie et al.,
draft-ietf-idmr-cbt-spec / SIGCOMM'93) on top of a deterministic
discrete-event network simulator, together with the baselines
(DVMRP-style flood-and-prune, per-source shortest-path trees, Steiner
heuristic) and the metrics needed to reproduce the paper's evaluation.

Quick start::

    from repro import CBTDomain, build_figure1, group_address

    net = build_figure1()
    domain = CBTDomain(net)
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    domain.start()
    net.run(until=3.0)
    domain.join_host("A", group)
    net.run(until=6.0)
    assert domain.protocol("R1").is_on_tree(group)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.core.bootstrap import CBTDomain
from repro.netsim.address import group_address
from repro.topology.figures import build_figure1, build_figure5_loop

__version__ = "1.0.0"

__all__ = [
    "CBTDomain",
    "build_figure1",
    "build_figure5_loop",
    "group_address",
]
