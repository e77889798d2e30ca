"""What the telemetry registry answers, pinned by digest on two worlds.

Every read of the attribute families — the snapshot, the
``netsim.link.*`` statistics ``repro stats --match`` prints, the
conservation laws — must give the same bytes however the registry
holds its families (docs/OBSERVABILITY.md, "Attribute families").  The
expected digests were taken before the families went per class, and a
closed world must answer as it did while open.
"""

import contextlib
import hashlib
import io
import json

import pytest

from repro.chaos.scenarios import SCENARIOS
from repro.cli import main
from repro.core.bootstrap import CBTDomain
from repro.harness.campaign import leg_run, run_scenario
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
from repro.telemetry.conservation import check_conservation
from repro.topology.generators import waxman_network


def _digest(values):
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


def _figure1_chaos_cell():
    """A ``link_flap`` cell on Figure 1, seed 0: its network closed by
    the cell runner, with the conservation result taken while open."""
    with leg_run("cbt", "figure1", 0, SCENARIOS["link_flap"]) as run:
        run.domain.auditor.stop()
        network = run.network
        open_snapshot = network.telemetry.registry.snapshot()
        violations = check_conservation(network, run.domain)
    assert run_scenario("link_flap", "figure1", 0).telemetry == open_snapshot
    return network, open_snapshot, violations


def _started_waxman_600():
    """``waxman_network(600, alpha=0.02, seed=5)``, a started
    ``CBTDomain``, one simulated second, then closed."""
    network = waxman_network(600, alpha=0.02, seed=5)
    domain = CBTDomain(network, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
    domain.start()
    network.run(until=1.0)
    open_snapshot = network.telemetry.registry.snapshot()
    violations = check_conservation(network, domain)
    network.close()
    return network, open_snapshot, violations


#: world -> (snapshot digest, its entries, ``netsim.link.*`` digest).
PINS = {
    "figure1_chaos_cell": (_figure1_chaos_cell, "3a8bb611c5ace01b", 649, "3ffd652fbe37ab7e"),
    "waxman600": (_started_waxman_600, "e804ffd8bd6fccea", 33065, "a2fe8946f443bc2e"),
}


@pytest.mark.parametrize("world", sorted(PINS))
def test_family_reads_are_pinned(world):
    build, snapshot_digest, entries, links_digest = PINS[world]
    network, open_snapshot, violations = build()
    registry = network.telemetry.registry
    assert violations == []
    assert (_digest(open_snapshot), len(open_snapshot)) == (snapshot_digest, entries)
    assert registry.snapshot() == open_snapshot  # closed, it reads the same
    assert _digest(registry.matching("netsim.link.*")) == links_digest
    assert registry.matching("netsim.link.*") == {
        name: value for name, value in open_snapshot.items() if name.startswith("netsim.link.")
    }


def test_repro_stats_link_output_is_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["stats", "--match", "netsim.link.*"]) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 129
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == "7178ce1b2cb005fd"
