"""ASCII renderings of trees and topologies."""

from __future__ import annotations

from typing import Dict, List

from repro.netsim.address import IPv4Address
from repro.netsim.link import PointToPointLink


def render_tree(domain, group: IPv4Address) -> str:
    """Draw a group's delivery tree as an indented ASCII tree.

    Roots (routers with an entry but no parent — normally just the
    primary core) come first; each child is annotated with the name of
    its member hosts' subnets where known.
    """
    children_of: Dict[str, List[str]] = {}
    roots: List[str] = []
    on_tree = set(domain.on_tree_routers(group))
    for child, parent in domain.tree_edges(group):
        children_of.setdefault(parent, []).append(child)
    with_parent = {child for child, _ in domain.tree_edges(group)}
    for name in sorted(on_tree):
        if name not in with_parent:
            roots.append(name)

    member_vifs = {
        name: sorted(
            domain.protocol(name).igmp.database.interfaces_with(group)
        )
        for name in on_tree
    }

    lines: List[str] = [f"group {group}"]

    def walk(node: str, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("`-- " if is_last else "|-- ")
        annotation = ""
        if member_vifs.get(node):
            vifs = ",".join(str(v) for v in member_vifs[node])
            annotation = f"  [member vifs: {vifs}]"
        role = ""
        protocol = domain.protocols.get(node)
        if protocol is not None and protocol.is_primary_core_for(group):
            role = " (primary core)"
        elif protocol is not None and protocol.is_core_for(group):
            role = " (core)"
        lines.append(f"{prefix}{connector}{node}{role}{annotation}")
        kids = sorted(children_of.get(node, []))
        child_prefix = prefix + ("" if is_root else ("    " if is_last else "|   "))
        for index, kid in enumerate(kids):
            walk(kid, child_prefix, index == len(kids) - 1, is_root=False)

    if not roots:
        lines.append("  (no on-tree routers)")
    for root in roots:
        walk(root, "", is_last=True, is_root=True)
    return "\n".join(lines)


def render_topology(network) -> str:
    """Inventory of routers, hosts, and links of a Network."""
    lines: List[str] = [
        f"network: {len(network.routers)} routers, {len(network.hosts)} hosts, "
        f"{len(network.links)} links"
    ]
    for name in sorted(network.links):
        link = network.links[name]
        kind = "p2p" if isinstance(link, PointToPointLink) else "lan"
        attached = ", ".join(
            sorted(interface.node.name for interface in link.interfaces)
        )
        status = "" if link.up else "  [DOWN]"
        lines.append(
            f"  {name:12s} {kind}  {str(link.network):18s} cost={link.cost:g} "
            f"delay={link.delay * 1000:g}ms  [{attached}]{status}"
        )
    return "\n".join(lines)
