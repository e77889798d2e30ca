"""Management views: an SNMP-MIB-style snapshot of a CBT router/domain.

Operators of a real CBT deployment would watch counters and gauges;
this module collects everything observable about a protocol instance
into one plain dictionary — handy for dashboards, debugging dumps, and
as a stable machine-readable surface over otherwise internal state.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.router import CBTProtocol


def router_mib(protocol: CBTProtocol) -> Dict[str, Any]:
    """One router's management view."""
    fib_entries = []
    for entry in protocol.fib:
        fib_entries.append(
            {
                "group": str(entry.group),
                "parent": str(entry.parent_address)
                if entry.parent_address
                else None,
                "parent_vif": entry.parent_vif,
                "children": sorted(str(a) for a in entry.children),
            }
        )
    data = protocol.data_plane.stats
    return {
        "name": protocol.router.name,
        "address": str(protocol.address),
        "mode": protocol.mode,
        "groups_on_tree": len(protocol.fib),
        "fib": fib_entries,
        "pending_joins": sorted(str(g) for g in protocol.pending),
        "rejoining": sorted(str(g) for g in protocol.rejoins),
        "known_core_maps": len(protocol.group_cores),
        "control_sent": dict(protocol.stats.sent),
        "control_received": dict(protocol.stats.received),
        "decode_errors": protocol.decode_errors,
        "data_plane": {
            "native_forwards": data.native_forwards,
            "cbt_unicasts": data.cbt_unicasts,
            "cbt_multicasts": data.cbt_multicasts,
            "member_deliveries": data.member_deliveries,
            "encapsulations": data.encapsulations,
            "decapsulations": data.decapsulations,
            "nonmember_originations": data.nonmember_originations,
            "intercepts": data.intercepts,
            "discards_offtree": data.discards_offtree,
            "discards_ttl": data.discards_ttl,
            "discards_not_local": data.discards_not_local,
            "discards_no_mapping": data.discards_no_mapping,
        },
        "igmp": {
            "queries_sent": protocol.igmp.queries_sent,
            "member_groups_per_vif": {
                str(vif): sorted(
                    str(g)
                    for g in protocol.igmp.database.groups_on(
                        protocol.router.interface_for_vif(vif)
                    )
                )
                for vif in range(len(protocol.router.interfaces))
            },
        },
        "events": len(protocol.events),
        # Raw registry counters for this router — the machine-readable
        # face of everything above.
        "counters": protocol.telemetry.registry.matching(
            f"cbt.router.{protocol.router.name}.*"
        ),
    }


def domain_mib(domain) -> Dict[str, Any]:
    """Management view of a whole CBT domain."""
    routers = {
        name: router_mib(protocol) for name, protocol in domain.protocols.items()
    }
    return {
        "routers": routers,
        "totals": {
            "routers": len(routers),
            "groups_known": len(domain.coordinator.groups()),
            "fib_entries": sum(r["groups_on_tree"] for r in routers.values()),
            "fib_state": domain.total_fib_state(),
            "control_sent": domain.control_messages_sent(),
            "member_deliveries": sum(
                r["data_plane"]["member_deliveries"] for r in routers.values()
            ),
            "wire_packets": int(domain.telemetry.registry.total(
                "netsim.link.*.tx_packets"
            )),
            "wire_bytes": int(domain.telemetry.registry.total(
                "netsim.link.*.tx_bytes"
            )),
        },
    }
