"""Unit-level checks on the OpenVPN ingress mechanics."""

import pytest

from repro.core import VINI, Experiment
from repro.net.packet import IPv4Header, OpaquePayload, Packet, PROTO_UDP, UDPHeader
from repro.overlay import IIAS
from repro.overlay.ingress import VPN_OVERHEAD


@pytest.fixture
def world():
    vini = VINI(seed=66)
    vini.add_node("pop")
    vini.add_node("host")
    vini.connect("host", "pop", delay=0.002)
    vini.install_underlay_routes()
    exp = Experiment(vini, "iias", realtime=True)
    exp.add_node("v", "pop")
    exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
    iias = IIAS(exp)
    server = iias.add_openvpn_server("v")
    iias.start()
    vini.run(until=5.0)
    return vini, exp, iias, server


def test_vpn_frames_carry_real_overhead(world):
    """The encapsulated datagram is inner + VPN framing on the wire."""
    vini, exp, iias, server = world
    client = iias.opt_in(vini.nodes["host"], "v")
    vini.run(until=6.0)
    link = vini.nodes["host"].interfaces["eth0"].link
    bytes_before = link.stats()["tx_bytes"]
    inner = Packet(
        IPv4Header(server.address_of(client), exp.network.nodes["v"].tap_addr, PROTO_UDP),
        UDPHeader(1000, 2000),
        payload=OpaquePayload(100),
    )
    expected_wire = inner.wire_len + VPN_OVERHEAD
    client.send(inner)
    vini.run(until=7.0)
    assert link.stats()["tx_bytes"] - bytes_before == expected_wire


def test_leases_are_deterministic_per_connect_order(world):
    vini, exp, iias, server = world
    c1 = iias.opt_in(vini.nodes["host"], "v")
    vini.run(until=6.0)
    first = server.address_of(c1)
    assert first == next(iter(server.client_pool.hosts()))


def test_lease_trace_recorded(world):
    vini, exp, iias, server = world
    iias.opt_in(vini.nodes["host"], "v")
    vini.run(until=6.0)
    assert vini.sim.trace.count("vpn_lease", server="v") == 1


def test_client_pool_advertised_into_ospf(world):
    vini, exp, iias, server = world
    ospf = exp.network.nodes["v"].xorp.ospf
    assert any(p == server.client_pool for p, _cost in ospf.stub_prefixes)
