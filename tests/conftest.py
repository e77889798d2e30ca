"""Shared fixtures for the CBT reproduction test suite."""

from __future__ import annotations

import gc

import pytest

from repro import CBTDomain, build_figure1, group_address
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
from repro.topology.figures import FIGURE1_MEMBERS


@pytest.fixture(autouse=True)
def collector_handed_back():
    """``Scheduler.run`` pauses the cyclic collector; a pause that leaks
    fails the test that leaked it, not a slow test three files later."""
    yield
    leaked = not gc.isenabled()
    gc.enable()
    assert not leaked, "test left the cyclic collector disabled"


@pytest.fixture
def figure1_network():
    """A fresh Figure-1 network with converged routing."""
    return build_figure1()


@pytest.fixture
def figure1_domain(figure1_network):
    """Figure-1 network with CBT started on every router and the
    walk-through group created (cores R4 primary, R9 secondary)."""
    domain = CBTDomain(
        figure1_network, timers=FAST_TIMERS, igmp_config=FAST_IGMP
    )
    group = group_address(0)
    domain.create_group(group, cores=["R4", "R9"])
    domain.start()
    figure1_network.run(until=3.0)
    return domain, group


def join_members(network, domain, group, members, spacing=0.05, settle=2.0):
    """Schedule staggered joins and run until quiescent."""
    start = network.scheduler.now
    for index, member in enumerate(members):
        network.scheduler.call_at(
            start + index * spacing,
            (lambda m: (lambda: domain.join_host(m, group)))(member),
        )
    network.run(until=start + len(members) * spacing + settle)


@pytest.fixture
def figure1_full_tree(figure1_domain, figure1_network):
    """Figure-1 with every member host joined (the §5 data scenario)."""
    domain, group = figure1_domain
    join_members(figure1_network, domain, group, FIGURE1_MEMBERS)
    return domain, group
