"""Shared scenario builders used by tests, examples, and benchmarks.

All scenario helpers are deterministic given a seed, join members at
staggered times (so DR elections and HELLOs settle first), and run the
event loop to a quiescent point before returning.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bootstrap import CBTDomain
from repro.core.timers import CBTTimers
from repro.baselines.dvmrp import DVMRPDomain
from repro.baselines.hpimdm import HPIMDMDomain
from repro.igmp.router_side import IGMPConfig
from repro.netsim.address import IPv4Address, group_address
from repro.netsim.packet import IPDatagram, PROTO_UDP, UDPDatagram
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


def settle(network: Network, until: float = SETTLE_TIME) -> None:
    """Run elections/HELLOs for ``until`` seconds of simulated time."""
    network.run(until=until)


def build_cbt_group(
    network: Network,
    members: Sequence[str],
    cores: Sequence[str],
    group: Optional[IPv4Address] = None,
    timers: CBTTimers = FAST_TIMERS,
    mode: str = "cbt",
    settle_time: float = SETTLE_TIME,
    join_spacing: float = 0.05,
    domain: Optional[CBTDomain] = None,
) -> Tuple[CBTDomain, IPv4Address]:
    """Stand up a CBT domain, join ``members``, and quiesce.

    Returns the (domain, group address) pair.  Pass an existing
    ``domain`` to add another group to a running domain.
    """
    make = partial(CBTDomain, network, timers=timers, mode=mode, igmp_config=FAST_IGMP)
    return _stand_up(domain, make, members, group, settle_time, join_spacing, cores)


def build_dvmrp_group(
    network: Network,
    members: Sequence[str],
    group: Optional[IPv4Address] = None,
    prune_lifetime: float = 120.0,
    settle_time: float = SETTLE_TIME,
    domain: Optional[DVMRPDomain] = None,
) -> Tuple[DVMRPDomain, IPv4Address]:
    """Stand up a DVMRP domain and join ``members`` (no cores needed)."""
    make = partial(
        DVMRPDomain, network, prune_lifetime=prune_lifetime, igmp_config=FAST_IGMP
    )
    return _stand_up(domain, make, members, group, settle_time)


def build_hpimdm_group(
    network: Network,
    members: Sequence[str],
    group: Optional[IPv4Address] = None,
    hello_interval: float = 1.0,
    neighbour_hold: float = 3.5,
    rtx_interval: float = 0.5,
    settle_time: float = SETTLE_TIME,
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
    return _stand_up(domain, make, members, group, settle_time)


def _stand_up(domain, make, members, group, settle_time, join_spacing=0.05, cores=None):
    """The one start / settle / staggered-join / run loop: when no
    ``domain`` is given, ``make()`` one, start it and settle; announce
    ``cores`` for the group when given (CBT); join ``members``
    ``join_spacing`` apart and run 2 s past the last join."""
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
        network.scheduler.call_at(
            start + offset * join_spacing, domain.join_host, member, group
        )
    network.run(until=start + len(members) * join_spacing + 2.0)
    return domain, group


def send_data(
    network: Network,
    sender_host: str,
    group: IPv4Address,
    count: int = 1,
    spacing: float = 0.01,
    ttl: int = 64,
) -> List[int]:
    """Have a host multicast ``count`` data packets; returns their uids."""
    host = network.host(sender_host)
    uids: List[int] = []
    start = network.scheduler.now
    for i in range(count):
        network.scheduler.call_at(
            start + i * spacing, _send_one, host, group, ttl, uids
        )
    network.run(until=start + count * spacing + 2.0)
    return uids


def delivered_copies(network: Network, host_name: str) -> Dict[int, int]:
    """Datagram uid -> copies of it ``host_name`` was delivered (0 for
    a uid it never saw): one pass over the host's log, however many
    probes are then looked up.  A plain loop into a ``defaultdict``
    and not ``Counter(d.uid for d in ...)``: that is six calls and a
    generator resumption per datagram where this is none, on a path
    every chaos cell takes per receiver (``calls_per_event``)."""
    copies: Dict[int, int] = defaultdict(int)
    for datagram in network.host(host_name).delivered:
        copies[datagram.uid] += 1
    return copies


def _send_one(host, group: IPv4Address, ttl: int, uids: List[int]) -> None:
    datagram = IPDatagram(
        src=host.interface.address,
        dst=group,
        proto=PROTO_UDP,
        payload=UDPDatagram(sport=40000, dport=5000, payload=b"x" * 64),
        ttl=ttl,
    )
    uids.append(datagram.uid)
    host.originate(datagram)
