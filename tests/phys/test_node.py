"""Unit/integration tests for PhysicalNode: kernel stack, sockets, taps."""

import pytest

from repro.net.addr import ip, prefix
from repro.net.packet import (
    ICMP_ECHO_REQUEST,
    ICMPHeader,
    IPv4Header,
    OpaquePayload,
    Packet,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCPHeader,
    UDPHeader,
)
from repro.net.tcp import TCPStack
from repro.phys.node import PhysicalNode, connect
from repro.phys.process import Process
from repro.phys.vnet import PortConflictError
from repro.phys.vserver import Slice
from repro.sim import Simulator
from tests.conftest import DropWatch


def datagram(dst, dport=7000, proto=PROTO_UDP, src="192.0.2.1"):
    transport = {PROTO_UDP: UDPHeader, PROTO_TCP: TCPHeader}.get(proto)
    return Packet(IPv4Header(src, dst, proto),
                  transport(6000, dport) if transport else None, OpaquePayload(100))


def two_nodes():
    sim = Simulator()
    a = PhysicalNode(sim, "a")
    b = PhysicalNode(sim, "b")
    connect(sim, a, b, bandwidth=1e9, delay=0.001, subnet="192.0.2.0/30")
    return sim, a, b


def three_nodes_line():
    """a -- f -- b with static routes through f."""
    sim = Simulator()
    a = PhysicalNode(sim, "a")
    f = PhysicalNode(sim, "f")
    b = PhysicalNode(sim, "b")
    connect(sim, a, f, bandwidth=1e9, delay=0.001, subnet="10.1.1.0/30")
    connect(sim, f, b, bandwidth=1e9, delay=0.001, subnet="10.1.2.0/30")
    a.add_route("10.1.2.0/30", interface="eth0")
    b.add_route("10.1.1.0/30", interface="eth0")
    return sim, a, f, b


class TestConfiguration:
    def test_connect_assigns_subnet_addresses(self):
        sim, a, b = two_nodes()
        assert str(a.interfaces["eth0"].address) == "192.0.2.1"
        assert str(b.interfaces["eth0"].address) == "192.0.2.2"
        assert a.is_local("192.0.2.1")
        assert not a.is_local("192.0.2.2")

    def test_connected_route_installed(self):
        sim, a, b = two_nodes()
        found = a.routes.lookup_entry(ip("192.0.2.2"))
        assert found is not None
        assert found[1].interface.name == "eth0"

    def test_duplicate_interface_rejected(self):
        sim = Simulator()
        node = PhysicalNode(sim, "x")
        node.add_interface("eth0")
        with pytest.raises(ValueError):
            node.add_interface("eth0")

    def test_primary_address(self):
        sim, a, b = two_nodes()
        assert str(a.address) == "192.0.2.1"

    def test_no_address_raises(self):
        sim = Simulator()
        node = PhysicalNode(sim, "x")
        with pytest.raises(RuntimeError):
            _ = node.address

    def test_readdressing_an_interface_forgets_the_old_address(self):
        sim, a, b = two_nodes()
        a.interfaces["eth0"].configure("198.51.100.1", 24)
        assert a.is_local("198.51.100.1")
        assert not a.is_local("192.0.2.1")

    def test_a_removed_route_no_longer_matches(self):
        sim, a, f, b = three_nodes_line()
        assert a.routes.lookup_entry(ip("10.1.2.2")) is not None
        a.remove_route("10.1.2.0/30")
        assert a.routes.lookup_entry(ip("10.1.2.2")) is None


class TestUDPDelivery:
    def test_udp_end_to_end(self):
        sim, a, b = two_nodes()
        sender = a.create_sliver(Slice("exp")).create_process("app")
        receiver_sliver = b.create_sliver(Slice("exp2"))
        receiver = receiver_sliver.create_process("app")
        sock_b = b.udp_socket(receiver, port=7000)
        got = []
        sock_b.on_receive = lambda pkt, src, sport: got.append(
            (pkt.payload.size, str(src), sport)
        )
        sock_a = a.udp_socket(sender, port=6000)
        sock_a.sendto(100, "192.0.2.2", 7000)
        sim.run()
        assert got == [(100, "192.0.2.1", 6000)]

    def test_udp_unreachable_port_dropped(self):
        sim, a, b = two_nodes()
        watch = DropWatch(sim)
        sender = a.create_sliver(Slice("exp")).create_process("app")
        sock_a = a.udp_socket(sender, port=6000)
        sock_a.sendto(100, "192.0.2.2", 7777)
        a.ip_output(watch.track(datagram("192.0.2.2", 7777)))
        sim.run()
        assert watch.drops() == [("b", "udp_port_unreachable")] * 2
        assert watch.open_flights == {}

    def test_port_conflict_across_slices(self):
        sim, a, b = two_nodes()
        p1 = a.create_sliver(Slice("one")).create_process("app")
        p2 = a.create_sliver(Slice("two")).create_process("app")
        a.udp_socket(p1, port=6000)
        with pytest.raises(PortConflictError):
            a.udp_socket(p2, port=6000)

    def test_close_releases_port(self):
        sim, a, b = two_nodes()
        proc = a.create_sliver(Slice("one")).create_process("app")
        sock = a.udp_socket(proc, port=6000)
        sock.close()
        a.udp_socket(proc, port=6000)  # rebinding succeeds

    def test_socket_buffer_overflow_drops(self):
        sim, a, b = two_nodes()
        sender = a.create_sliver(Slice("s")).create_process("app")
        slow_owner = b.create_sliver(Slice("r")).create_process("app")
        # Receiver needs 10 ms CPU per datagram, buffer fits ~2 packets.
        sock_b = b.udp_socket(
            slow_owner, port=7000, rcvbuf=2500, recv_cost=lambda p: 0.010
        )
        got = []
        sock_b.on_receive = lambda pkt, src, sport: got.append(pkt)
        sock_a = a.udp_socket(sender, port=6000)
        watch = DropWatch(sim)
        for _ in range(10):
            sock_a.sendto(1000, "192.0.2.2", 7000)
        sim.run()
        drops = sim.trace.count("drop", where="b", reason="sock_overflow")
        assert drops > 0
        assert len(got) + drops == 10
        assert len(watch.drops()) == drops

    def test_loopback_delivery(self):
        sim, a, b = two_nodes()
        proc = a.create_sliver(Slice("s")).create_process("app")
        sock1 = a.udp_socket(proc, port=5000)
        sock2 = a.udp_socket(proc, port=5001)
        got = []
        sock2.on_receive = lambda pkt, src, sport: got.append(pkt.payload.size)
        sock1.sendto(42, "192.0.2.1", 5001)
        sim.run()
        assert got == [42]


class TestDrops:
    """Each place the kernel loses a packet writes one drop record, and
    closes the flight of a tracked packet."""

    def lose(self, send, where, reason):
        sim, a, b = two_nodes()
        watch = DropWatch(sim)
        send(a, b, watch.track)
        sim.run()
        assert watch.drops() == [(where, reason)]
        assert watch.open_flights == {}

    def test_tcp_without_a_stack(self):
        self.lose(lambda a, b, track: a.ip_output(track(datagram("192.0.2.2", proto=PROTO_TCP))),
                  "b", "no_tcp")

    def test_a_protocol_the_kernel_does_not_speak(self):
        self.lose(lambda a, b, track: a.ip_output(track(datagram("192.0.2.2", proto=47))),
                  "b", "proto_47")

    def test_no_route(self):
        self.lose(lambda a, b, track: a.ip_output(track(datagram("203.0.113.9"))),
                  "a", "no_route")

    def test_a_closed_socket(self):
        def send(a, b, track):
            sock = b.udp_socket(b.create_sliver(Slice("r")).create_process("app"), port=7000)
            sock.close()
            assert sock.enqueue(track(datagram("192.0.2.2"))) is False

        self.lose(send, "b", "sock_closed")

    def test_a_closed_raw_intercept(self):
        def send(a, b, track):
            owner = b.create_sliver(Slice("r")).create_process("app")
            intercept = b.raw_intercept(owner, PROTO_UDP, 7000, lambda packet: None)
            intercept.close()
            assert intercept.enqueue(track(datagram("192.0.2.2"))) is False

        self.lose(send, "b", "sock_closed")

    def test_a_socket_closed_while_its_read_is_queued(self):
        def send(a, b, track):
            owner = b.create_sliver(Slice("r")).create_process("app")
            sock = b.udp_socket(owner, port=7000, recv_cost=lambda packet: 0.01)
            sock.on_receive = lambda *args: pytest.fail("delivered after close")
            a.ip_output(track(datagram("192.0.2.2")))
            a.sim.schedule(0.005, sock.close)

        self.lose(send, "b", "sock_closed")

    def test_an_intercept_closed_while_its_read_is_queued(self):
        def send(a, b, track):
            owner = b.create_sliver(Slice("r")).create_process("app")
            intercept = b.raw_intercept(
                owner, PROTO_UDP, 7000, lambda packet: pytest.fail("delivered after close"),
                recv_cost=lambda packet: 0.01)
            a.ip_output(track(datagram("192.0.2.2")))
            a.sim.schedule(0.005, intercept.close)

        self.lose(send, "b", "sock_closed")

    def test_a_down_interface_receiving(self):
        def send(a, b, track):
            b.interfaces["eth0"].up = False
            a.ip_output(track(datagram("192.0.2.2")))

        self.lose(send, "b", "iface_down")

    def test_a_down_interface_transmitting(self):
        def send(a, b, track):
            a.interfaces["eth0"].up = False
            assert a.ip_output(track(datagram("192.0.2.2"))) is False

        self.lose(send, "a", "iface_down")


class TestForwarding:
    def test_kernel_forwarding_through_middle_node(self):
        sim, a, f, b = three_nodes_line()
        sender = a.create_sliver(Slice("s")).create_process("app")
        receiver = b.create_sliver(Slice("r")).create_process("app")
        sock_b = b.udp_socket(receiver, port=7000)
        got = []
        sock_b.on_receive = lambda pkt, src, sport: got.append(pkt.ip.ttl)
        sock_a = a.udp_socket(sender, port=6000)
        sim.trace.enable("fwd")
        sock_a.sendto(100, "10.1.2.2", 7000)
        sim.run()
        assert len(got) == 1
        assert got[0] == 63  # one hop decremented TTL
        assert sim.trace.count("fwd", node="f") == 1

    def test_ttl_expiry_generates_icmp(self):
        sim, a, f, b = three_nodes_line()
        sender_sliver = a.create_sliver(Slice("s"))
        sender = sender_sliver.create_process("app")
        errors = []
        a.icmp_errors_to(lambda pkt: errors.append(str(pkt.ip.src)))
        sock_a = a.udp_socket(sender, port=6000)
        a.ip_output(Packet(
            IPv4Header(sock_a.local_addr, "10.1.2.2", PROTO_UDP, ttl=1),
            UDPHeader(6000, 7000), OpaquePayload(100)))
        sim.run()
        assert errors == ["10.1.1.2"]  # f's interface toward a
        assert sim.trace.count("icmp_error", node="f") == 1

    def test_no_route_generates_unreachable(self):
        sim, a, f, b = three_nodes_line()
        sender = a.create_sliver(Slice("s")).create_process("app")
        errors = []
        a.icmp_errors_to(lambda pkt: errors.append(pkt.icmp.type))
        sock_a = a.udp_socket(sender, port=6000)
        a.add_route("203.0.113.0/24", interface="eth0")
        sock_a.sendto(100, "203.0.113.5", 7000)
        sim.run()
        assert errors == [3]  # destination unreachable from f


class TestICMPEcho:
    def test_kernel_answers_echo(self):
        sim, a, b = two_nodes()
        replies = []
        a.icmp_register(ident=55, callback=lambda pkt: replies.append(sim.now))
        request = Packet(
            IPv4Header("192.0.2.1", "192.0.2.2", PROTO_ICMP),
            ICMPHeader(ICMP_ECHO_REQUEST, ident=55, seq=1),
            payload=OpaquePayload(56),
        )
        a.ip_output(request)
        sim.run()
        assert len(replies) == 1
        assert replies[0] > 0.002  # two propagation delays


class TestTapDevice:
    def make_tap_world(self):
        sim, a, b = two_nodes()
        slice_ = Slice("overlay")
        sliver = a.create_sliver(slice_)
        tap = sliver.create_tap("10.2.0.1", route_prefix="10.2.0.0/16")
        click = sliver.create_process("click")
        return sim, a, sliver, tap, click

    def test_tap_reader_gets_overlay_traffic(self):
        sim, a, sliver, tap, click = self.make_tap_world()
        seen = []
        tap.set_reader(click, lambda pkt: seen.append(str(pkt.ip.dst)))
        app = sliver.create_process("app")
        sock = a.udp_socket(app, port=9000, local_addr="10.2.0.1")
        sock.sendto(10, "10.2.5.5", 9001)  # inside tap prefix, not tap addr
        sim.run()
        assert seen == ["10.2.5.5"]

    def test_tap_write_delivers_to_local_app(self):
        sim, a, sliver, tap, click = self.make_tap_world()
        app = sliver.create_process("app")
        sock = a.udp_socket(app, port=9000, local_addr="10.2.0.1")
        got = []
        sock.on_receive = lambda pkt, src, sport: got.append(str(src))
        from repro.net.packet import PROTO_UDP, UDPHeader

        pkt = Packet(
            IPv4Header("10.2.5.5", "10.2.0.1", PROTO_UDP),
            UDPHeader(9001, 9000),
            payload=OpaquePayload(10),
        )
        tap.write(pkt)
        sim.run()
        assert got == ["10.2.5.5"]

    def test_tap_without_reader_drops(self):
        sim, a, sliver, tap, click = self.make_tap_world()
        watch = DropWatch(sim)
        app = sliver.create_process("app")
        sock = a.udp_socket(app, port=9000, local_addr="10.2.0.1")
        sock.sendto(10, "10.2.5.5", 9001)
        a.ip_output(watch.track(datagram("10.2.5.5", src="10.2.0.1")), sliver=sliver)
        sim.run()
        assert watch.drops() == [("a", "tap_no_reader")] * 2
        assert watch.open_flights == {}

    def test_sliver_private_port_space(self):
        """Two slices can bind the same port in their own tap spaces."""
        sim, a, b = two_nodes()
        s1 = a.create_sliver(Slice("one"))
        s2 = a.create_sliver(Slice("two"))
        s1.create_tap("10.2.0.1", route_prefix="10.0.0.0/8")
        s2.create_tap("10.3.0.1", route_prefix="10.0.0.0/8")
        p1 = s1.create_process("app")
        p2 = s2.create_process("app")
        a.udp_socket(p1, port=9000, local_addr="10.2.0.1")
        a.udp_socket(p2, port=9000, local_addr="10.3.0.1")  # no conflict

    def test_close_releases_a_sliver_private_port(self):
        sim, a, sliver, tap, click = self.make_tap_world()
        app = sliver.create_process("app")
        sock = a.udp_socket(app, port=9000, local_addr="10.2.0.1")
        assert a.vnet.lookup(PROTO_UDP, 9000, "overlay") is sock
        sock.close()
        assert a.vnet.lookup(PROTO_UDP, 9000, "overlay") is None
        a.udp_socket(app, port=9000, local_addr="10.2.0.1")  # rebinding succeeds

    def test_a_tap_space_port_out_of_range_is_rejected(self):
        sim, a, sliver, tap, click = self.make_tap_world()
        app = sliver.create_process("app")
        with pytest.raises(ValueError):
            a.udp_socket(app, port=70000, local_addr="10.2.0.1")

    def test_each_address_space_delivers_to_its_own_endpoint(self):
        """Two slices and the node bind the same UDP and TCP ports; a
        datagram or a SYN to each address reaches exactly its owner."""
        sim, a, b = two_nodes()
        b.add_route("10.0.0.0/8", "eth0")
        owners = {"192.0.2.1": Process(a, "node-app")}
        for name, tap_addr in (("one", "10.2.0.1"), ("two", "10.3.0.1")):
            sliver = a.create_sliver(Slice(name))
            sliver.create_tap(tap_addr, route_prefix="10.0.0.0/8")
            owners[tap_addr] = sliver.create_process("app")
        datagrams = {addr: [] for addr in owners}
        accepted = {addr: [] for addr in owners}
        for addr, owner in owners.items():
            sock = a.udp_socket(owner, port=9000, local_addr=addr)
            sock.on_receive = (
                lambda pkt, src, sport, got=datagrams[addr]: got.append(pkt.payload.size)
            )
            TCPStack.of(a).listen(owner, 5001, local_addr=addr,
                                  on_accept=accepted[addr].append)
        sender = b.create_sliver(Slice("sender")).create_process("app")
        out = b.udp_socket(sender, port=6000)
        conns = {}
        for size, addr in enumerate(owners, start=100):
            out.sendto(size, addr, 9000)
            conns[addr] = TCPStack.of(b).connect(sender, addr, 5001)
        sim.run(until=1.0)
        assert datagrams == {"192.0.2.1": [100], "10.2.0.1": [101], "10.3.0.1": [102]}
        for addr, (server,) in accepted.items():
            assert str(server.laddr) == addr
            assert server.sliver is owners[addr].sliver
            assert server.state == conns[addr].state == "ESTABLISHED"

    def test_multiple_taps_per_sliver(self):
        """A sliver can hold several taps (one per virtual router);
        `sliver.tap` keeps pointing at the first."""
        sim, a, sliver, tap, click = self.make_tap_world()
        second = sliver.create_tap("10.9.0.1")
        assert sliver.taps == [tap, second]
        assert sliver.tap is tap
        assert second.name == "tap1"
