"""Integration tests for virtual networks over the physical substrate."""

import pytest

from repro.core import VINI, Experiment
from repro.faults import FaultPlan
from repro.net.addr import Prefix, ip
from repro.net.packet import (
    ICMP_ECHO_REQUEST,
    ICMPHeader,
    IPv4Header,
    OpaquePayload,
    Packet,
    PROTO_ICMP,
    PROTO_UDP,
    UDPHeader,
)


def build_line(n=3, realtime=True):
    """n physical nodes in a line, one virtual node on each, virtual
    topology mirroring the physical line."""
    vini = VINI(seed=7)
    names = [f"p{i}" for i in range(n)]
    for name in names:
        vini.add_node(name)
    for a, b in zip(names, names[1:]):
        vini.connect(a, b, bandwidth=1e9, delay=0.002)
    vini.install_underlay_routes()
    exp = Experiment(vini, "iias", realtime=realtime)
    for i, name in enumerate(names):
        exp.add_node(f"v{i}", name)
    for i in range(n - 1):
        exp.connect(f"v{i}", f"v{i + 1}")
    exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
    return vini, exp



@pytest.mark.parametrize("cost", [-3, 0, 1.5, float("nan"), 65536, True])
def test_an_ospf_cost_outside_rfc_2328s_range_is_refused(cost):
    """An interface cost is an integer in 1..65535 (RFC 2328, C.3)."""
    vini, exp = build_line(3)
    with pytest.raises(ValueError, match="cost"):
        exp.connect("v0", "v2", cost=cost)
    exp.connect("v0", "v2", cost=65535)

def fib_next_hop(vnode, addr):
    """(gw, output port) of the Click FIB's longest match, or None."""
    found = vnode.lookup._trie.lookup_entry(addr)
    return None if found is None else found[1]


def peer(exp, a, b):
    """``b``'s address on the virtual link from ``a``: ``a``'s next hop."""
    return exp.network.nodes[b].interfaces[f"to_{a}"].address


def overlay_udp(exp, src_name, dst_name, port=7000, payload=100):
    """Send a UDP datagram across the overlay; returns received list."""
    vini = exp.vini
    src = exp.network.nodes[src_name]
    dst = exp.network.nodes[dst_name]
    received = []
    app_dst = dst.sliver.create_process("app")
    sock_dst = dst.phys_node.udp_socket(
        app_dst, port=port, local_addr=dst.tap_addr
    )
    sock_dst.on_receive = lambda pkt, addr, sport: received.append(
        (pkt.payload.size, str(addr))
    )
    app_src = src.sliver.create_process("app")
    sock_src = src.phys_node.udp_socket(
        app_src, port=port + 1, local_addr=src.tap_addr
    )
    sock_src.sendto(payload, dst.tap_addr, port)
    return received


class TestOverlayConvergence:
    def test_ospf_adjacencies_form_over_tunnels(self):
        vini, exp = build_line(3)
        exp.run(until=30.0)
        v1 = exp.network.nodes["v1"]
        states = v1.xorp.ospf.neighbor_states()
        assert sorted(states.values()) == ["Full", "Full"]

    def test_fib_programmed_with_remote_taps(self):
        vini, exp = build_line(3)
        exp.run(until=30.0)
        v0 = exp.network.nodes["v0"]
        v2 = exp.network.nodes["v2"]
        entry = fib_next_hop(v0, v2.tap_addr)
        assert entry is not None
        gw, port = entry
        assert port == 0  # forward via encap

    def test_udp_delivery_across_overlay(self):
        vini, exp = build_line(3)
        exp.run(until=30.0)
        received = overlay_udp(exp, "v0", "v2")
        vini.run(until=35.0)
        assert len(received) == 1
        size, src_addr = received[0]
        assert size == 100
        assert src_addr == str(exp.network.nodes["v0"].tap_addr)

    def test_overlay_icmp_echo_roundtrip(self):
        vini, exp = build_line(3)
        exp.run(until=30.0)
        v0 = exp.network.nodes["v0"]
        v2 = exp.network.nodes["v2"]
        replies = []
        v0.phys_node.icmp_register(
            ident=9, callback=lambda pkt: replies.append(vini.sim.now),
            sliver_name=exp.slice.name,
        )
        request = Packet(
            IPv4Header(v0.tap_addr, v2.tap_addr, PROTO_ICMP),
            ICMPHeader(ICMP_ECHO_REQUEST, ident=9, seq=1),
            payload=OpaquePayload(56),
        )
        v0.phys_node.ip_output(request, sliver=v0.sliver)
        vini.run(until=35.0)
        assert len(replies) == 1

    def test_ttl_expiry_generates_overlay_icmp_error(self):
        vini, exp = build_line(3)
        exp.run(until=30.0)
        v0 = exp.network.nodes["v0"]
        v1 = exp.network.nodes["v1"]
        v2 = exp.network.nodes["v2"]
        errors = []
        v0.phys_node.icmp_errors_to(lambda pkt: errors.append(str(pkt.ip.src)))
        # ttl=2: the local Click is virtual hop 1, v1's Click is hop 2.
        probe = Packet(
            IPv4Header(v0.tap_addr, v2.tap_addr, PROTO_ICMP, ttl=2),
            ICMPHeader(ICMP_ECHO_REQUEST, ident=1, seq=1),
            payload=OpaquePayload(56),
        )
        v0.phys_node.ip_output(probe, sliver=v0.sliver)
        vini.run(until=35.0)
        # The error comes from the intermediate *virtual* node's address.
        assert errors == [str(v1.tap_addr)]

    def test_fib_rebuilt_from_the_rib_equals_the_one_deltas_built(self):
        vini, exp = build_line(3)
        exp.run(until=30.0)
        v0 = exp.network.nodes["v0"]
        before = sorted(map(str, v0.lookup._trie.items()))
        programmed = {route.prefix for route in v0.xorp.rib.routes()}
        v0.fea.clear()
        left = {pfx for pfx, _entry in v0.lookup._trie.items()}
        assert programmed and not programmed & left
        # The wiring-time tap entry lives outside the RIB and stays.
        assert Prefix(v0.tap_addr, 32) in left
        v0.xorp.rib.rebuild_fib()
        assert sorted(map(str, v0.lookup._trie.items())) == before

    def test_control_plane_unicast_enters_the_fib_path(self):
        """Control-plane output off the interface subnet goes down
        through the UML switch, charged to Click, and is forwarded like
        data (Section 4.2.1)."""
        vini, exp = build_line(3)
        exp.run(until=30.0)
        v0 = exp.network.nodes["v0"]
        v2 = exp.network.nodes["v2"]
        received = []
        app = v2.sliver.create_process("app")
        sock = v2.phys_node.udp_socket(app, port=7000, local_addr=v2.tap_addr)
        sock.on_receive = lambda pkt, addr, sport: received.append(str(addr))
        busy = v0.click_process.cpu_used
        injected = []
        inject = v0.uml.inject
        v0.uml.inject = lambda packet: (injected.append(packet), inject(packet))
        v0.send(v0.interfaces["to_v1"], Packet(
            IPv4Header(v0.tap_addr, v2.tap_addr, PROTO_UDP), UDPHeader(7001, 7000),
            payload=OpaquePayload(10),
        ))
        vini.run(until=31.0)
        assert len(injected) == 1
        assert v0.click_process.cpu_used > busy
        assert received == [str(v0.tap_addr)]


class TestVirtualLinkFailure:
    def build_square(self):
        vini = VINI(seed=8)
        for name in ("pa", "pb", "pc", "pd"):
            vini.add_node(name)
        vini.connect("pa", "pb", delay=0.002)
        vini.connect("pb", "pd", delay=0.002)
        vini.connect("pa", "pc", delay=0.002)
        vini.connect("pc", "pd", delay=0.002)
        vini.install_underlay_routes()
        exp = Experiment(vini, "iias", realtime=True)
        for v, p in (("a", "pa"), ("b", "pb"), ("c", "pc"), ("d", "pd")):
            exp.add_node(v, p)
        exp.connect("a", "b")
        exp.connect("b", "d")
        exp.connect("a", "c", cost=3)
        exp.connect("c", "d", cost=3)
        exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
        return vini, exp

    def test_click_level_failure_reroutes(self):
        vini, exp = self.build_square()
        exp.run(until=30.0)
        a = exp.network.nodes["a"]
        d = exp.network.nodes["d"]
        gw_before, _ = fib_next_hop(a, d.tap_addr)
        assert gw_before == peer(exp, "a", "b")
        exp.network.fail_link("a", "b")
        vini.run(until=60.0)
        found = fib_next_hop(a, d.tap_addr)
        assert found is not None
        assert found[0] == peer(exp, "a", "c")

    def test_recovery_restores_path(self):
        vini, exp = self.build_square()
        exp.run(until=30.0)
        exp.network.fail_link("a", "b")
        vini.run(until=60.0)
        exp.network.recover_link("a", "b")
        vini.run(until=100.0)
        a = exp.network.nodes["a"]
        d = exp.network.nodes["d"]
        gw, _ = fib_next_hop(a, d.tap_addr)
        assert gw == peer(exp, "a", "b")

    def test_experiment_timetable(self):
        vini, exp = self.build_square()
        exp.apply_faults(FaultPlan().fail_link(10.0, "a", "b", duration=24.0))
        assert exp.timetable() == [
            (10.0, "fail a=b"),
            (34.0, "recover a=b"),
        ]

    def test_physical_failure_breaks_virtual_link(self):
        """Fate sharing: the tunnel rides the physical link 1:1."""
        vini, exp = self.build_square()
        exp.run(until=30.0)
        vini.link_between("pa", "pb").fail()
        vini.run(until=60.0)
        a = exp.network.nodes["a"]
        d = exp.network.nodes["d"]
        found = fib_next_hop(a, d.tap_addr)
        assert found[0] == peer(exp, "a", "c")

    def test_upcalls_accelerate_physical_failure_detection(self):
        vini, exp = self.build_square()
        exp.enable_upcalls()
        exp.run(until=30.0)
        vini.link_between("pa", "pb").fail()
        # Well under the 6 s dead interval.
        vini.run(until=31.5)
        a = exp.network.nodes["a"]
        d = exp.network.nodes["d"]
        found = fib_next_hop(a, d.tap_addr)
        assert found is not None
        assert found[0] == peer(exp, "a", "c")
        assert vini.sim.trace.count("upcall", up=False) >= 1


class TestSimultaneousExperiments:
    def test_two_slices_same_substrate_different_topologies(self):
        vini = VINI(seed=9)
        for name in ("p0", "p1", "p2"):
            vini.add_node(name)
        vini.connect("p0", "p1", delay=0.002)
        vini.connect("p1", "p2", delay=0.002)
        vini.install_underlay_routes()
        exp1 = Experiment(vini, "one", realtime=True)
        exp2 = Experiment(vini, "two", realtime=True)
        for exp in (exp1, exp2):
            for i in range(3):
                exp.add_node(f"v{i}", f"p{i}")
        # exp1 is a line; exp2 adds a direct v0--v2 virtual link that
        # does not exist physically.
        exp1.connect("v0", "v1")
        exp1.connect("v1", "v2")
        exp2.connect("v0", "v1")
        exp2.connect("v1", "v2")
        exp2.connect("v0", "v2", map_physical=False)
        exp1.configure_ospf(hello_interval=2.0, dead_interval=6.0)
        exp2.configure_ospf(hello_interval=2.0, dead_interval=6.0)
        exp1.start()
        exp2.start()
        vini.run(until=40.0)
        # exp2's v0 reaches v2 in one hop; exp1's v0 needs two.
        v0_1 = exp1.network.nodes["v0"]
        v0_2 = exp2.network.nodes["v0"]
        v2_1 = exp1.network.nodes["v2"]
        v2_2 = exp2.network.nodes["v2"]
        r1 = v0_1.xorp.rib.lookup(v2_1.tap_addr)
        r2 = v0_2.xorp.rib.lookup(v2_2.tap_addr)
        assert r1.metric == pytest.approx(2.0)
        assert r2.metric == pytest.approx(1.0)

    def test_slices_use_distinct_tunnel_ports(self):
        vini = VINI(seed=10)
        vini.add_node("p0")
        vini.add_node("p1")
        vini.connect("p0", "p1", delay=0.002)
        vini.install_underlay_routes()
        exp1 = Experiment(vini, "one")
        exp2 = Experiment(vini, "two")
        for exp in (exp1, exp2):
            exp.add_node("a", "p0")
            exp.add_node("b", "p1")
            exp.connect("a", "b")
            exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
        exp1.start()
        exp2.start()  # would raise PortConflictError if ports collided
        vini.run(until=20.0)
        assert exp1.network.nodes["a"].xorp.ospf.neighbor_states()
        assert exp2.network.nodes["a"].xorp.ospf.neighbor_states()
