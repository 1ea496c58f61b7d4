"""Unit tests for the Click element library."""

import pytest
from hypothesis import given, strategies as st

from repro.click import (
    CheckIPHeader,
    Counter,
    DecIPTTL,
    Discard,
    Element,
    EncapTable,
    IPClassifier,
    LinearIPLookup,
    LossElement,
    Paint,
    Queue,
    RadixIPLookup,
    Shaper,
    Tee,
)
from repro.net.packet import (
    IPv4Header,
    OpaquePayload,
    Packet,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCPHeader,
    UDPHeader,
)
from tests.click.conftest import Sink, StubRouter
from tests.conftest import battery


def make_packet(dst="10.1.2.3", proto=PROTO_UDP, ttl=64, sport=5000, dport=6000, size=100):
    headers = [IPv4Header("10.1.1.1", dst, proto, ttl=ttl)]
    if proto == PROTO_UDP:
        headers.append(UDPHeader(sport, dport))
    elif proto == PROTO_TCP:
        headers.append(TCPHeader(sport, dport))
    return Packet(headers=headers, payload=OpaquePayload(size))


class TestBasicElements:
    def test_counter_counts_and_passes(self, world):
        sim, node, sliver, router = world
        counter = router.add("c", Counter())
        sink = router.add("s", Sink())
        router.connect("c", "s")
        counter.push(0, make_packet(size=100))
        counter.push(0, make_packet(size=200))
        assert counter.packets == 2
        assert counter.bytes == (128 + 228)
        assert len(sink.packets) == 2
        counter.reset()
        assert counter.packets == 0

    def test_discard_counts(self, world):
        sim, node, sliver, router = world
        discard = router.add("d", Discard())
        discard.push(0, make_packet())
        assert discard.packets == 1

    def test_tee_duplicates(self, world):
        sim, node, sliver, router = world
        tee = router.add("t", Tee(3))
        sinks = [router.add(f"s{i}", Sink()) for i in range(3)]
        for i in range(3):
            router.connect("t", f"s{i}", out_port=i)
        original = make_packet()
        tee.push(0, original)
        assert all(len(s.packets) == 1 for s in sinks)
        # Port 0 keeps the original; others are copies.
        assert sinks[0].packets[0] is original
        assert sinks[1].packets[0] is not original
        assert sinks[1].packets[0].wire_len == original.wire_len

    def test_unconnected_port_drops_with_trace(self, world):
        sim, node, sliver, router = world
        counter = router.add("c", Counter())
        counter.push(0, make_packet())
        assert router.drops == 1
        assert sim.trace.count("click_drop") == 1


class TestCheckIPAndTTL:
    def test_checkip_passes_valid(self, world):
        sim, node, sliver, router = world
        check = router.add("check", CheckIPHeader())
        sink = router.add("sink", Sink())
        router.connect("check", "sink")
        check.push(0, make_packet())
        assert len(sink.packets) == 1

    def test_checkip_drops_non_ip(self, world):
        sim, node, sliver, router = world
        check = router.add("check", CheckIPHeader())
        sink = router.add("sink", Sink())
        router.connect("check", "sink")
        check.push(0, Packet(payload=OpaquePayload(10)))
        assert check.drops == 1
        assert sink.packets == []

    def test_decttl_decrements(self, world):
        sim, node, sliver, router = world
        dec = router.add("dec", DecIPTTL())
        sink = router.add("sink", Sink())
        router.connect("dec", "sink")
        pkt = make_packet(ttl=10)
        dec.push(0, pkt)
        assert pkt.ip.ttl == 9
        assert len(sink.packets) == 1

    def test_decttl_expires_to_port1(self, world):
        sim, node, sliver, router = world
        dec = router.add("dec", DecIPTTL())
        ok, expired = router.add("ok", Sink()), router.add("exp", Sink())
        router.connect("dec", "ok", out_port=0)
        router.connect("dec", "exp", out_port=1)
        dec.push(0, make_packet(ttl=1))
        assert dec.expired == 1
        assert len(expired.packets) == 1
        assert ok.packets == []

    def test_decttl_expired_dropped_without_port1(self, world):
        sim, node, sliver, router = world
        dec = router.add("dec", DecIPTTL())
        ok = router.add("ok", Sink())
        router.connect("dec", "ok", out_port=0)
        dec.push(0, make_packet(ttl=0))
        assert router.drops == 1


@pytest.mark.parametrize("lookup_cls", [RadixIPLookup, LinearIPLookup])
class TestLookup:
    def test_longest_match_and_annotation(self, world, lookup_cls):
        sim, node, sliver, router = world
        lookup = router.add("rt", lookup_cls(n_outputs=2))
        s0, s1 = router.add("s0", Sink()), router.add("s1", Sink())
        router.connect("rt", "s0", out_port=0)
        router.connect("rt", "s1", out_port=1)
        lookup.add_route("10.0.0.0/8", "10.9.9.1", 0)
        lookup.add_route("10.1.0.0/16", "10.9.9.2", 1)
        lookup.push(0, make_packet(dst="10.1.2.3"))
        lookup.push(0, make_packet(dst="10.200.0.1"))
        assert str(s1.packets[0].meta["gw"]) == "10.9.9.2"
        assert str(s0.packets[0].meta["gw"]) == "10.9.9.1"

    def test_null_gw_uses_destination(self, world, lookup_cls):
        sim, node, sliver, router = world
        lookup = router.add("rt", lookup_cls())
        sink = router.add("s", Sink())
        router.connect("rt", "s")
        lookup.add_route("10.0.0.0/8", None, 0)
        lookup.push(0, make_packet(dst="10.4.5.6"))
        assert str(sink.packets[0].meta["gw"]) == "10.4.5.6"

    def test_miss_drops_by_default(self, world, lookup_cls):
        sim, node, sliver, router = world
        lookup = router.add("rt", lookup_cls())
        sink = router.add("s", Sink())
        router.connect("rt", "s")
        lookup.push(0, make_packet(dst="192.0.2.1"))
        assert lookup.misses == 1
        assert router.drops == 1

    def test_miss_to_no_route_port(self, world, lookup_cls):
        sim, node, sliver, router = world
        lookup = router.add("rt", lookup_cls(n_outputs=2, no_route_port=1))
        ok, miss = router.add("ok", Sink()), router.add("miss", Sink())
        router.connect("rt", "ok", out_port=0)
        router.connect("rt", "miss", out_port=1)
        lookup.push(0, make_packet(dst="192.0.2.1"))
        assert len(miss.packets) == 1

    def test_replace_and_remove(self, world, lookup_cls):
        sim, node, sliver, router = world
        lookup = router.add("rt", lookup_cls())
        sink = router.add("s", Sink())
        router.connect("rt", "s")
        lookup.add_route("10.0.0.0/8", "10.9.9.1", 0)
        lookup.add_route("10.0.0.0/8", "10.9.9.9", 0)
        assert len(lookup) == 1
        lookup.push(0, make_packet(dst="10.1.1.1"))
        assert str(sink.packets[0].meta["gw"]) == "10.9.9.9"
        lookup.remove_route("10.0.0.0/8")
        assert len(lookup) == 0
        with pytest.raises(KeyError):
            lookup.remove_route("10.0.0.0/8")

    def test_routes_listing_and_clear(self, world, lookup_cls):
        sim, node, sliver, router = world
        lookup = router.add("rt", lookup_cls())
        lookup.add_route("10.0.0.0/8", "10.9.9.1", 0)
        lookup.add_route("172.16.0.0/12", None, 0)
        assert len(lookup.routes()) == 2
        lookup.clear()
        assert len(lookup) == 0


class TestClassifier:
    def test_proto_and_port_patterns(self, world):
        sim, node, sliver, router = world
        classifier = router.add(
            "cl", IPClassifier("udp dport 6000", "proto tcp", "icmp", "-")
        )
        sinks = [router.add(f"s{i}", Sink()) for i in range(4)]
        for i in range(4):
            router.connect("cl", f"s{i}", out_port=i)
        classifier.push(0, make_packet(proto=PROTO_UDP, dport=6000))
        classifier.push(0, make_packet(proto=PROTO_TCP))
        classifier.push(0, make_packet(proto=PROTO_ICMP))
        classifier.push(0, make_packet(proto=PROTO_UDP, dport=7000))
        assert [len(s.packets) for s in sinks] == [1, 1, 1, 1]

    def test_dst_prefix_pattern(self, world):
        sim, node, sliver, router = world
        classifier = router.add("cl", IPClassifier("dst 10.0.0.0/8", "-"))
        inside, outside = router.add("in", Sink()), router.add("out", Sink())
        router.connect("cl", "in", out_port=0)
        router.connect("cl", "out", out_port=1)
        classifier.push(0, make_packet(dst="10.1.1.1"))
        classifier.push(0, make_packet(dst="192.0.2.1"))
        assert len(inside.packets) == 1
        assert len(outside.packets) == 1

    def test_combined_clauses(self, world):
        sim, node, sliver, router = world
        classifier = router.add(
            "cl", IPClassifier("proto udp dst 10.0.0.0/8", "-")
        )
        match, rest = router.add("m", Sink()), router.add("r", Sink())
        router.connect("cl", "m", out_port=0)
        router.connect("cl", "r", out_port=1)
        classifier.push(0, make_packet(proto=PROTO_UDP, dst="10.1.1.1"))
        classifier.push(0, make_packet(proto=PROTO_TCP, dst="10.1.1.1"))
        assert len(match.packets) == 1
        assert len(rest.packets) == 1

    def test_unmatched_dropped(self, world):
        sim, node, sliver, router = world
        classifier = router.add("cl", IPClassifier("proto tcp"))
        sink = router.add("s", Sink())
        router.connect("cl", "s")
        classifier.push(0, make_packet(proto=PROTO_UDP))
        assert classifier.unmatched == 1

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            IPClassifier("bogus nonsense")
        with pytest.raises(ValueError):
            IPClassifier()

    @pytest.mark.parametrize("pattern, complaint", [
        ("proto", "'proto' needs an operand"),
        ("dst", "'dst' needs an operand"),
        ("proto udp src", "'src' needs an operand"),
        ("udp dport", "'udp dport' needs an operand"),
        ("tcp sport", "'tcp sport' needs an operand"),
        ("proto 300", "proto '300' is not in 0..255"),
        ("proto x", "proto 'x' is not in 0..255"),
        ("tcp dport 70000", "tcp dport '70000' is not in 0..65535"),
        ("udp sport -1", "udp sport '-1' is not in 0..65535"),
        ("icmp dport 7", "icmp has no dport"),
    ])
    def test_malformed_operand_rejected_at_construction(self, pattern, complaint):
        # Each of these used to raise a bare IndexError, blame the wrong
        # token, or build a classifier whose pattern could never match.
        with pytest.raises(ValueError) as caught:
            IPClassifier("-", pattern)
        assert repr(pattern) in str(caught.value)
        assert complaint in str(caught.value)

    def test_operand_limits_are_inclusive(self):
        IPClassifier("proto 0", "proto 255", "tcp dport 0", "udp sport 65535")


class TestLoss:
    def test_fail_blackholes(self, world):
        sim, node, sliver, router = world
        loss = router.add("loss", LossElement())
        sink = router.add("s", Sink())
        router.connect("loss", "s")
        loss.push(0, make_packet())
        loss.fail()
        loss.push(0, make_packet())
        loss.push(0, make_packet())
        loss.recover()
        loss.push(0, make_packet())
        assert len(sink.packets) == 2
        assert loss.dropped == 2

    def test_probabilistic_loss(self, world):
        sim, node, sliver, router = world
        loss = router.add("loss", LossElement(drop_prob=0.5))
        sink = router.add("s", Sink())
        router.connect("loss", "s")
        for _ in range(1000):
            loss.push(0, make_packet())
        assert 350 < len(sink.packets) < 650

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            LossElement(drop_prob=1.5)


class TestQueueShaper:
    def test_queue_fifo_and_overflow(self, world):
        sim, node, sliver, router = world
        queue = router.add("q", Queue(capacity=2))
        first, second = make_packet(), make_packet()
        queue.push(0, first)
        queue.push(0, second)
        queue.push(0, make_packet())
        assert queue.drops == 1
        assert queue.pop() is first
        assert queue.pop() is second
        assert queue.pop() is None

    def test_shaper_paces_to_rate(self, world):
        sim, node, sliver, router = world
        shaper = router.add("sh", Shaper(rate=800_000, burst_bytes=128))
        arrival_times = []

        class TimedSink(Sink):
            def push(self, port, packet):
                arrival_times.append(sim.now)

        router.add("s", TimedSink())
        router.connect("sh", "s")
        for _ in range(5):
            shaper.push(0, make_packet(size=72))  # 100B wire
        sim.run()
        assert len(arrival_times) == 5
        # 100 bytes at 800 kb/s = 1 ms spacing after the burst.
        gaps = [b - a for a, b in zip(arrival_times, arrival_times[1:])]
        assert all(gap == pytest.approx(0.001, rel=0.1) for gap in gaps[1:])

    def test_shaper_burst_passes_immediately(self, world):
        sim, node, sliver, router = world
        shaper = router.add("sh", Shaper(rate=8_000, burst_bytes=1000))
        sink = router.add("s", Sink())
        router.connect("sh", "s")
        shaper.push(0, make_packet(size=472))  # 500B <= burst
        assert len(sink.packets) == 1  # no simulation time needed

    def test_shaper_overflow_drops(self, world):
        sim, node, sliver, router = world
        shaper = router.add("sh", Shaper(rate=8_000, burst_bytes=100, queue_bytes=300))
        sink = router.add("s", Sink())
        router.connect("sh", "s")
        for _ in range(10):
            shaper.push(0, make_packet(size=100))
        assert shaper.drops > 0
        sim.run()

    def test_validation(self):
        with pytest.raises(ValueError):
            Queue(capacity=0)
        with pytest.raises(ValueError):
            Shaper(rate=0)

    def test_reconfiguration_invalidates_memos(self, world):
        # The per-length hot-path memos must not survive a parameter
        # change: rate/burst_bytes and the router cost params are
        # properties that rebuild or clear them on assignment.
        sim, node, sliver, router = world
        shaper = router.add("sh", Shaper(rate=8_000, burst_bytes=100))
        shaper._need(make_packet(size=100))
        assert shaper._need_cache
        shaper.burst_bytes = 50
        assert not shaper._need_cache
        assert shaper._burst_f == 50.0
        shaper.rate = 16_000
        assert shaper._rate_bytes == 2_000.0
        with pytest.raises(ValueError):
            shaper.rate = 0
        pkt = make_packet(size=100)
        baseline = router.per_packet_cost(pkt)
        assert router._cost_cache
        router.copy_cost_per_byte = 0.0
        assert not router._cost_cache
        assert router.per_packet_cost(pkt) < baseline
        router.syscall_cost = 0.0
        assert not router._cost_cache
        router.syscalls_per_packet = 7
        assert not router._cost_cache
        assert router.per_packet_cost(pkt) == 0.0


class TestEncapTable:
    def test_maps_gw_to_port(self, world):
        sim, node, sliver, router = world
        encap = router.add("enc", EncapTable(n_outputs=2))
        s0, s1 = router.add("s0", Sink()), router.add("s1", Sink())
        router.connect("enc", "s0", out_port=0)
        router.connect("enc", "s1", out_port=1)
        encap.add_mapping("10.9.9.1", 0)
        encap.add_mapping("10.9.9.2", 1)
        pkt = make_packet()
        pkt.meta["gw"] = __import__("repro.net.addr", fromlist=["ip"]).ip("10.9.9.2")
        encap.push(0, pkt)
        assert len(s1.packets) == 1

    def test_missing_annotation_or_entry_drops(self, world):
        sim, node, sliver, router = world
        encap = router.add("enc", EncapTable(n_outputs=1))
        sink = router.add("s", Sink())
        router.connect("enc", "s")
        encap.push(0, make_packet())  # no gw annotation
        pkt = make_packet()
        from repro.net.addr import ip
        pkt.meta["gw"] = ip("10.8.8.8")
        encap.push(0, pkt)  # no mapping
        assert router.drops == 2

    def test_port_range_validated(self, world):
        sim, node, sliver, router = world
        encap = router.add("enc", EncapTable(n_outputs=1))
        with pytest.raises(ValueError):
            encap.add_mapping("10.9.9.1", 5)


class TestCopyOnWrite:
    def test_decttl_on_shared_copies_writes_private_headers(self, world):
        # Tee hands port 1 a copy-on-write clone; each DecIPTTL must
        # fault its own headers apart before the write, so both branches
        # see 64 -> 63 once and the clone's TTL is not decremented twice.
        sim, node, sliver, router = world
        tee = router.add("tee", Tee(2))
        sinks = []
        for index in range(2):
            router.add(f"dec{index}", DecIPTTL())
            sinks.append(router.add(f"s{index}", Sink()))
            router.connect("tee", f"dec{index}", out_port=index)
            router.connect(f"dec{index}", f"s{index}")
        untouched = make_packet(ttl=64)
        tee.push(0, untouched.copy())
        assert [s.packets[0].ip.ttl for s in sinks] == [63, 63]
        assert sinks[0].packets[0].ip is not sinks[1].packets[0].ip
        assert untouched.ip.ttl == 64


# ---------------------------------------------------------------------
# Dispatch: ports bound at wiring time against the Port they replaced
# ---------------------------------------------------------------------
class ReferencePort:
    """``repro.click.element.Port`` at 8715f4b, verbatim (renamed): the
    target is looked up on every push, and a rewire is two assignments."""

    __slots__ = ("element", "index", "target", "target_port")

    def __init__(self, element: "Element", index: int):
        self.element = element
        self.index = index
        self.target = None
        self.target_port = 0

    def connect(self, target: "Element", target_port: int = 0) -> None:
        if self.target is not None:
            raise ValueError(
                f"{self.element.name}[{self.index}] is already connected"
            )
        self.target = target
        self.target_port = target_port

    def push(self, packet: Packet) -> None:
        if self.target is None:
            # Unconnected port: Click would fail at config time; we drop
            # and trace so misconfigurations are visible in tests.
            self.element.router.trace_drop(packet, f"{self.element.name}[{self.index}] unconnected")
            return
        self.target.push(self.target_port, packet)


class PortSink(Sink):
    """Records which packet arrived on which input port."""

    def push(self, port, packet):
        self.packets.append((port, packet.meta["id"]))


MAKERS = {"tee2": lambda: Tee(2), "tee3": lambda: Tee(3), "counter": Counter,
          "paint": lambda: Paint("x"), "sink": PortSink}


@st.composite
def graphs(draw):
    """A random DAG of pass-through elements and sinks: ``kinds`` per
    node; ``wires[node][port]`` is ``(later node, input port)`` or
    None (left unconnected); then the edits made between two bursts."""
    count = draw(st.integers(min_value=2, max_value=7))
    kinds = [draw(st.sampled_from(["tee2", "tee3", "counter", "paint"]))] + [
        draw(st.sampled_from(["tee2", "tee3", "counter", "paint", "sink"]))
        for _ in range(count - 2)] + ["sink"]
    arity = {"tee2": 2, "tee3": 3, "counter": 1, "paint": 1, "sink": 0}

    def later(node):
        return st.none() | st.tuples(st.integers(node + 1, count - 1), st.integers(0, 2))

    wires = [[draw(later(node)) for _ in range(arity[kind])]
             for node, kind in enumerate(kinds)]
    tees = [node for node, kind in enumerate(kinds) if kind.startswith("tee")]
    grown = [(node, draw(later(node))) for node in draw(st.lists(
        st.sampled_from(tees), max_size=2))] if tees else []
    movers = [node for node, kind in enumerate(kinds[:-1]) if arity[kind]]
    rewired = draw(st.lists(st.sampled_from(movers).flatmap(
        lambda node: st.tuples(st.just(node), st.integers(0, arity[kinds[node]] - 1),
                               st.tuples(st.integers(node + 1, count - 1), st.integers(0, 2)))),
        max_size=3))
    bursts = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    return kinds, wires, grown, rewired, bursts


def run_graph(scenario, port_cls):
    kinds, wires, grown, rewired, bursts = scenario
    log = StubRouter()
    elements = []
    for node, kind in enumerate(kinds):
        element = MAKERS[kind]()
        element.name, element.router = f"e{node}", log
        if port_cls is not None:
            element.outputs = [port_cls(element, i) for i in range(len(element.outputs))]
        elements.append(element)
    for node, ports in enumerate(wires):
        for index, wire in enumerate(ports):
            if wire is not None:
                elements[node].connect(elements[wire[0]], index, wire[1])
    ids = iter(range(100))

    def burst(size):
        for _ in range(size):
            packet = make_packet()
            packet.meta["id"] = next(ids)
            elements[0].push(0, packet)

    burst(bursts[0])
    for node, wire in grown:  # add_output after wiring, as _attach_end does
        if port_cls is None:
            index = elements[node].add_output()
        else:
            index = len(elements[node].outputs)
            elements[node].outputs.append(port_cls(elements[node], index))
        if wire is not None:
            elements[node].connect(elements[wire[0]], index, wire[1])
    for node, index, (target, in_port) in rewired:  # a mid-run rewire
        port = elements[node].outputs[index]
        if port_cls is None:
            port.connect(elements[target], in_port, replace=True)
        else:  # what overlay.egress / overlay.ingress did at 8715f4b
            port.target = elements[target]
            port.target_port = in_port
    burst(bursts[1])
    arrivals = [element.packets for element in elements if isinstance(element, PortSink)]
    return arrivals, [(packet.meta["id"], reason) for packet, reason in log.dropped]


@given(graphs())
@battery(300)
def test_dispatch_equals_the_port_it_replaced(scenario):
    want_arrivals, want_drops = run_graph(scenario, ReferencePort)
    got_arrivals, got_drops = run_graph(scenario, None)
    assert got_arrivals == want_arrivals
    assert got_drops == want_drops
    assert sum(map(len, got_arrivals)) + len(got_drops) >= sum(scenario[4])
