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

import importlib

__version__ = "1.0.0"

#: The package's names -> the module defining each, imported on first
#: use (the module ``__getattr__`` below), so that importing one
#: submodule (``repro.netsim.engine``) does not load the CBT, IGMP,
#: routing and topology stack behind these four.
_EXPORTS = {
    "CBTDomain": "repro.core.bootstrap",
    "build_figure1": "repro.topology.figures",
    "build_figure5_loop": "repro.topology.figures",
    "group_address": "repro.netsim.address",
}

__all__ = [
    "CBTDomain",
    "build_figure1",
    "build_figure5_loop",
    "group_address",
]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_EXPORTS[name]), name)
    return value
