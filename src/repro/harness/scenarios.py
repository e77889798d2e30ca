"""Shared scenario builders: the one stand-up behind every cell and
every explorer world, and the tests, examples and benchmarks.

All scenario helpers are deterministic given a seed, join members at
staggered times (so DR elections and HELLOs settle first), and run the
event loop to a quiescent point before returning.  Cells and explorer
scenarios stand their protocol up through the one protocol table,
:data:`repro.harness.campaign.LEGS`, whose rows call the
``build_*_group`` functions here (an explorer spec passes its own
``settle_time`` and ``join_spacing``); an explorer window's ``send``
is :func:`send_one`, the probe's own send.
Delivery is judged in one place, :func:`judge_delivery`.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.bootstrap import CBTDomain
from repro.core.timers import CBTTimers
from repro.baselines.dvmrp import DVMRPDomain
from repro.baselines.hpimdm import HPIMDMDomain
from repro.igmp.router_side import IGMPConfig
from repro.netsim.address import IPv4Address, group_address
from repro.netsim.packet import DEFAULT_TTL, IPDatagram, PROTO_UDP, UDPDatagram
from repro.topology.builder import Network

#: Time (s) given to querier/DR elections and HELLOs before joins start.
SETTLE_TIME = 3.0

#: Fast timer profile for simulations that exercise many groups: the
#: spec ratios are preserved (x0.1) so behaviour is unchanged, only
#: quicker.
FAST_TIMERS = CBTTimers().scaled(0.1)

#: IGMP tuned for quick leave detection in scenario scripts.
FAST_IGMP = IGMPConfig(
    query_interval=30.0,
    query_response_interval=3.0,
    startup_query_interval=0.5,
    last_member_query_interval=0.5,
)


def pick_members(network: Network, count: int, seed: int = 0) -> List[str]:
    """Deterministically choose ``count`` member hosts of a realised net."""
    hosts = sorted(network.hosts)
    if count > len(hosts):
        raise ValueError(f"asked for {count} members, only {len(hosts)} hosts")
    rng = random.Random(seed)
    return sorted(rng.sample(hosts, count))


def serving_router(network: Network, host_name: str) -> Optional[str]:
    """The router serving ``host_name``: the lowest-named router on its
    LAN (deterministic on multi-router LANs), None when it has none."""
    link = network.host(host_name).interface.link
    return min(
        (
            interface.node.name
            for interface in (link.interfaces if link is not None else ())
            if interface.node.name in network.routers
        ),
        default=None,
    )


def settle(network: Network, until: float = SETTLE_TIME) -> None:
    """Run elections/HELLOs for ``until`` seconds of simulated time."""
    network.run(until=until)


def build_cbt_group(
    network: Network,
    members: Sequence[str],
    cores: Sequence[str],
    group: Optional[IPv4Address] = None,
    settle_time: float = SETTLE_TIME,
    join_spacing: float = 0.05,
    domain: Optional[CBTDomain] = None,
) -> Tuple[CBTDomain, IPv4Address]:
    """Stand up a CBT domain, join ``members``, and quiesce.

    Returns the (domain, group address) pair.  Pass an existing
    ``domain`` to add another group to a running domain.
    """
    make = partial(CBTDomain, network, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    return _stand_up(domain, make, members, group, settle_time, join_spacing, cores)


def build_dvmrp_group(
    network: Network,
    members: Sequence[str],
    group: Optional[IPv4Address] = None,
    prune_lifetime: float = 120.0,
    settle_time: float = SETTLE_TIME,
    join_spacing: float = 0.05,
    domain: Optional[DVMRPDomain] = None,
) -> Tuple[DVMRPDomain, IPv4Address]:
    """Stand up a DVMRP domain and join ``members`` (no cores needed)."""
    make = partial(
        DVMRPDomain, network, prune_lifetime=prune_lifetime, igmp_config=FAST_IGMP
    )
    return _stand_up(domain, make, members, group, settle_time, join_spacing)


def build_hpimdm_group(
    network: Network,
    members: Sequence[str],
    group: Optional[IPv4Address] = None,
    hello_interval: float = 1.0,
    neighbour_hold: float = 3.5,
    rtx_interval: float = 0.5,
    settle_time: float = SETTLE_TIME,
    join_spacing: float = 0.05,
    domain: Optional[HPIMDMDomain] = None,
) -> Tuple[HPIMDMDomain, IPv4Address]:
    """Stand up a hard-state HPIM-DM domain and join ``members``.

    The default timers are scenario-fast (1 s hellos) so neighbour
    discovery completes inside the standard settle window; tree state
    itself is hard and never expires, so no further scaling is needed.
    """
    make = partial(
        HPIMDMDomain,
        network,
        hello_interval=hello_interval,
        neighbour_hold=neighbour_hold,
        rtx_interval=rtx_interval,
        igmp_config=FAST_IGMP,
    )
    return _stand_up(domain, make, members, group, settle_time, join_spacing)


def _stand_up(domain, make, members, group, settle_time, join_spacing=0.05, cores=None):
    """The one start / settle / staggered-join / run loop: when no
    ``domain`` is given, ``make()`` one, start it and settle; announce
    ``cores`` for the group when given (CBT); join ``members``
    ``join_spacing`` apart and run 2 s past the last join.  At a zero
    spacing the members join now, in this call, not as events."""
    if group is None:
        group = group_address(0)
    if domain is None:
        domain = make()
        domain.start()
        settle(domain.network, until=settle_time)
    network = domain.network
    if cores is not None:
        domain.create_group(group, cores=list(cores))
    start = network.scheduler.now
    for offset, member in enumerate(members):
        if join_spacing:
            network.scheduler.call_at(
                start + offset * join_spacing, domain.join_host, member, group
            )
        else:
            domain.join_host(member, group)
    network.run(until=start + len(members) * join_spacing + 2.0)
    return domain, group


def send_data(
    network: Network,
    sender_host: str,
    group: IPv4Address,
    count: int = 1,
    spacing: float = 0.01,
) -> List[int]:
    """Have a host multicast ``count`` data packets; returns their uids."""
    host = network.host(sender_host)
    uids: List[int] = []
    start = network.scheduler.now
    for i in range(count):
        network.scheduler.call_at(
            start + i * spacing, send_one, host, group, DEFAULT_TTL, uids
        )
    network.run(until=start + count * spacing + 2.0)
    return uids


class Delivery(NamedTuple):
    """:func:`judge_delivery`'s verdict: the eligible ``members``, the
    ``(member, uid)`` pairs ``missed`` and ``duplicated`` (a copy back
    to the sender is one), and the exactly-once ``fraction`` of the
    members' (member, probe) pairs."""

    members: Tuple[str, ...]
    missed: Tuple[Tuple[str, int], ...]
    duplicated: Tuple[Tuple[str, int], ...]
    fraction: float

    @property
    def served(self) -> Tuple[str, ...]:
        """Members that got every probe at least once."""
        short = {member for member, _ in self.missed}
        return tuple(member for member in self.members if member not in short)

    def findings(self, label: str) -> List[str]:
        """A ``label`` line per member that missed or duplicated a probe."""
        return [
            f"{label}: {member} {verb} {len(list(pairs))} probe(s)"
            for verb, judged in (("missed", self.missed), ("got duplicates of", self.duplicated))
            for member, pairs in groupby(judged, key=itemgetter(0))
        ]


def joined_hosts(network: Network, group: IPv4Address) -> List[str]:
    """The group's members now, by the hosts' own IGMP state."""
    return [name for name, host in sorted(network.hosts.items()) if group in host.joined_groups]


def judge_delivery(
    network: Network, group: IPv4Address, sender: str, uids: Sequence[int]
) -> Delivery:
    """The one delivery oracle: each probe in ``uids`` (what
    :func:`send_data` sent from ``sender``) must reach every member of
    ``group`` but the sender exactly once, the members being the hosts
    joined when it judges; the sender must get no copy back.  A log is
    counted by a plain loop into a ``defaultdict``: ``Counter(d.uid for
    d in ...)`` costs six calls and a generator resumption per datagram
    (``calls_per_event``)."""
    members = tuple(name for name in joined_hosts(network, group) if name != sender)
    missed: List[Tuple[str, int]] = []
    duplicated: List[Tuple[str, int]] = []
    for member in members:
        copies: Dict[int, int] = defaultdict(int)
        for datagram in network.host(member).delivered:
            copies[datagram.uid] += 1
        for uid in uids:
            if copies[uid] != 1:
                (duplicated if copies[uid] else missed).append((member, uid))
    pairs = len(members) * len(uids)
    fraction = (pairs - len(missed) - len(duplicated)) / pairs if pairs else 1.0
    echoed = {datagram.uid for datagram in network.host(sender).delivered}
    duplicated += [(sender, uid) for uid in uids if uid in echoed]
    return Delivery(members, tuple(missed), tuple(duplicated), fraction)


def send_one(host, group: IPv4Address, ttl: int, uids: List[int]) -> None:
    """Have ``host`` multicast one 64-byte UDP datagram to ``group``
    now, appending its uid to ``uids``."""
    datagram = IPDatagram(
        src=host.interface.address,
        dst=group,
        proto=PROTO_UDP,
        payload=UDPDatagram(sport=40000, dport=5000, payload=b"x" * 64),
        ttl=ttl,
    )
    uids.append(datagram.uid)
    host.originate(datagram)
