#!/usr/bin/env python
"""Quickstart: build the spec's Figure-1 network, join a group, send data.

Walks the exact §2.5/§2.6 story of the CBT spec:

1. stand up the Figure-1 topology with CBT on every router;
2. create a group with primary core R4 and secondary core R9;
3. host A joins -> the branch R1-R3-R4 forms;
4. host B joins -> R2 terminates the join with a §2.6 proxy-ack and
   becomes the group-specific DR for S4;
5. host G multicasts a packet -> every member receives exactly one copy.

Run:  python examples/quickstart.py
"""

from repro import CBTDomain, build_figure1, group_address
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, send_data


def main() -> None:
    net = build_figure1()
    domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])

    domain.start()
    net.run(until=3.0)  # let IGMP querier / D-DR elections settle
    print(f"group {group}: primary core R4, secondary core R9")

    print("\n-- host A joins (spec §2.5) --")
    domain.join_host("A", group)
    net.run(until=6.0)
    print(f"on-tree routers: {', '.join(domain.on_tree_routers(group))}")
    for child, parent in domain.tree_edges(group):
        print(f"  branch: {child} -> {parent}")

    print("\n-- host B joins via the multi-router LAN S4 (spec §2.6) --")
    domain.join_host("B", group)
    net.run(until=9.0)
    print(f"on-tree routers: {', '.join(domain.on_tree_routers(group))}")
    r6_events = [e.kind for e in net.telemetry.bus.records("protocol") if e.router == "R6"]
    print(f"R6 (the D-DR) events: {r6_events}  <- proxy-acked, keeps no state")
    print(f"R2 is the G-DR, parent: present={domain.protocol('R2').is_on_tree(group)}")

    print("\n-- member hosts G and H join, then G sends data (spec §5) --")
    for member in ("G", "H"):
        domain.join_host(member, group)
    net.run(until=12.0)
    uid = send_data(net, "G", group, count=1)[0]
    for member in ("A", "B", "H"):
        copies = sum(1 for d in net.host(member).delivered if d.uid == uid)
        print(f"  {member}: received {copies} copy(ies)")

    domain.assert_tree_consistent(group)
    print("\ntree consistency check passed")


if __name__ == "__main__":
    main()
