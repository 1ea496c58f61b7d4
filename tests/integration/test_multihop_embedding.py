"""Integration: virtual links that ride multi-hop physical paths.

VINI's flexible-topology promise (Section 3.1) includes virtual links
between nodes with no direct physical connection: the tunnel rides the
underlying IP network through intermediate VINI nodes. These tests pin
that behavior down, including fate sharing: the underlay's routes are
static, so a physical failure on the path is not masked from the
experiment.
"""

import pytest

from repro.core import VINI, Experiment
from repro.tools import Ping


def build_line_with_shortcut():
    """Physical line p0-p1-p2-p3; virtual topology has a DIRECT v0=v3
    link that physically rides all three hops."""
    vini = VINI(seed=77)
    for i in range(4):
        vini.add_node(f"p{i}")
    for i in range(3):
        vini.connect(f"p{i}", f"p{i + 1}", delay=0.004)
    vini.install_underlay_routes()
    exp = Experiment(vini, "iias", realtime=True)
    exp.add_node("v0", "p0")
    exp.add_node("v3", "p3")
    exp.connect("v0", "v3", map_physical=False)
    exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
    return vini, exp


def test_virtual_link_rides_multihop_underlay():
    vini, exp = build_line_with_shortcut()
    exp.run(until=20.0)
    v0 = exp.network.nodes["v0"]
    v3 = exp.network.nodes["v3"]
    # One virtual hop...
    route = v0.xorp.rib.lookup(v3.tap_addr)
    assert route.metric == pytest.approx(1.0)
    # ...but three physical propagation delays each way.
    ping = Ping(v0.phys_node, v3.tap_addr, sliver=v0.sliver,
                interval=0.5, count=5).start()
    vini.run(until=25.0)
    stats = ping.stats()
    assert stats.received == 5
    assert stats.avg_rtt > 0.024  # 6 x 4ms propagation


def test_middle_physical_failure_breaks_the_virtual_link():
    """Fate sharing: with static underlay routes, a physical failure
    anywhere on the path kills the tunnel and OSPF notices."""
    vini, exp = build_line_with_shortcut()
    exp.run(until=20.0)
    vini.link_between("p1", "p2").fail()
    vini.run(until=40.0)
    v0 = exp.network.nodes["v0"]
    v3 = exp.network.nodes["v3"]
    assert v0.xorp.rib.lookup(v3.tap_addr) is None
    assert v0.xorp.ospf.neighbor_states() == {}
