"""Unit tests for the Click element library."""

import pytest
from hypothesis import given, strategies as st

from repro.click import (
    CheckIPHeader,
    DecIPTTL,
    Discard,
    Element,
    EncapTable,
    IPClassifier,
    LossElement,
    Paint,
    RadixIPLookup,
    Shaper,
)
from repro.click.elements import queue
from repro.click.router import COPY_COST_PER_BYTE
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
from tests.click.conftest import Count, FanOut, Sink, StubRouter
from tests.conftest import battery


def make_packet(dst="10.1.2.3", proto=PROTO_UDP, ttl=64, sport=5000, dport=6000, size=100):
    kind = {PROTO_UDP: UDPHeader, PROTO_TCP: TCPHeader}.get(proto)
    transport = kind(sport, dport) if kind is not None else None
    return Packet(IPv4Header("10.1.1.1", dst, proto, ttl=ttl), transport, OpaquePayload(size))


def click_drops(router, reason=None):
    """The drop records ``router`` wrote: all of them, or for one reason."""
    match = {} if reason is None else {"reason": reason}
    return router.sim.trace.count("drop", where=router.name, **match)


class TestBasicElements:
    def test_discard_swallows_without_a_drop_record(self, world):
        sim, node, sliver, router = world
        discard = router.add("d", Discard())
        discard.push(0, make_packet())
        assert click_drops(router) == 0

    def test_unconnected_port_drops_with_trace(self, world):
        sim, node, sliver, router = world
        paint = router.add("p", Paint("x"))
        paint.push(0, make_packet())
        assert click_drops(router, "p[0] unconnected") == 1
        assert click_drops(router) == 1


class TestCheckIPAndTTL:
    def test_checkip_passes_valid(self, world):
        sim, node, sliver, router = world
        check = router.add("check", CheckIPHeader())
        sink = router.add("sink", Sink())
        router["check"].connect(router["sink"])
        check.push(0, make_packet())
        assert len(sink.packets) == 1

    def test_checkip_drops_non_ip(self, world):
        sim, node, sliver, router = world
        check = router.add("check", CheckIPHeader())
        sink = router.add("sink", Sink())
        router["check"].connect(router["sink"])
        check.push(0, Packet(None, payload=OpaquePayload(10)))
        assert click_drops(router, "bad_ip_header") == 1
        assert sink.packets == []

    def test_decttl_decrements(self, world):
        sim, node, sliver, router = world
        dec = router.add("dec", DecIPTTL())
        sink = router.add("sink", Sink())
        router["dec"].connect(router["sink"])
        pkt = make_packet(ttl=10)
        dec.push(0, pkt)
        assert pkt.ip.ttl == 9
        assert len(sink.packets) == 1

    def test_decttl_expires_to_port1(self, world):
        sim, node, sliver, router = world
        dec = router.add("dec", DecIPTTL())
        ok, expired = router.add("ok", Sink()), router.add("exp", Sink())
        router["dec"].connect(router["ok"], out_port=0)
        router["dec"].connect(router["exp"], out_port=1)
        dec.push(0, make_packet(ttl=1))
        assert len(expired.packets) == 1
        assert ok.packets == []
        assert click_drops(router) == 0

    def test_decttl_expired_dropped_without_port1(self, world):
        sim, node, sliver, router = world
        dec = router.add("dec", DecIPTTL())
        ok = router.add("ok", Sink())
        router["dec"].connect(router["ok"], out_port=0)
        dec.push(0, make_packet(ttl=0))
        assert ok.packets == []
        assert click_drops(router, "ttl_expired") == 1


@pytest.mark.parametrize("lookup_cls", [RadixIPLookup])
class TestLookup:
    def test_longest_match_and_annotation(self, world, lookup_cls):
        sim, node, sliver, router = world
        lookup = router.add("rt", lookup_cls())
        s0, s1 = router.add("s0", Sink()), router.add("s1", Sink())
        router["rt"].connect(router["s0"], out_port=0)
        router["rt"].connect(router["s1"], out_port=1)
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
        router["rt"].connect(router["s"])
        lookup.add_route("10.0.0.0/8", None, 0)
        lookup.push(0, make_packet(dst="10.4.5.6"))
        assert str(sink.packets[0].meta["gw"]) == "10.4.5.6"

    def test_miss_drops_by_default(self, world, lookup_cls):
        sim, node, sliver, router = world
        lookup = router.add("rt", lookup_cls())
        sink = router.add("s", Sink())
        router["rt"].connect(router["s"])
        lookup.push(0, make_packet(dst="192.0.2.1"))
        assert sink.packets == []
        assert click_drops(router, "no_route") == 1

    def test_replace_and_remove(self, world, lookup_cls):
        sim, node, sliver, router = world
        lookup = router.add("rt", lookup_cls())
        sink = router.add("s", Sink())
        router["rt"].connect(router["s"])
        lookup.add_route("10.0.0.0/8", "10.9.9.1", 0)
        lookup.add_route("10.0.0.0/8", "10.9.9.9", 0)
        assert len(lookup._trie) == 1
        lookup.push(0, make_packet(dst="10.1.1.1"))
        assert str(sink.packets[0].meta["gw"]) == "10.9.9.9"
        lookup.remove_route("10.0.0.0/8")
        assert len(lookup._trie) == 0
        with pytest.raises(KeyError):
            lookup.remove_route("10.0.0.0/8")


class TestClassifier:
    def test_proto_and_port_patterns(self, world):
        sim, node, sliver, router = world
        classifier = router.add(
            "cl", IPClassifier("udp dport 6000", "proto tcp", "icmp", "-")
        )
        sinks = [router.add(f"s{i}", Sink()) for i in range(4)]
        for i in range(4):
            router["cl"].connect(router[f"s{i}"], out_port=i)
        classifier.push(0, make_packet(proto=PROTO_UDP, dport=6000))
        classifier.push(0, make_packet(proto=PROTO_TCP))
        classifier.push(0, make_packet(proto=PROTO_ICMP))
        classifier.push(0, make_packet(proto=PROTO_UDP, dport=7000))
        assert [len(s.packets) for s in sinks] == [1, 1, 1, 1]

    def test_dst_prefix_pattern(self, world):
        sim, node, sliver, router = world
        classifier = router.add("cl", IPClassifier("dst 10.0.0.0/8", "-"))
        inside, outside = router.add("in", Sink()), router.add("out", Sink())
        router["cl"].connect(router["in"], out_port=0)
        router["cl"].connect(router["out"], out_port=1)
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
        router["cl"].connect(router["m"], out_port=0)
        router["cl"].connect(router["r"], out_port=1)
        classifier.push(0, make_packet(proto=PROTO_UDP, dst="10.1.1.1"))
        classifier.push(0, make_packet(proto=PROTO_TCP, dst="10.1.1.1"))
        assert len(match.packets) == 1
        assert len(rest.packets) == 1

    def test_unmatched_dropped(self, world):
        sim, node, sliver, router = world
        classifier = router.add("cl", IPClassifier("proto tcp"))
        sink = router.add("s", Sink())
        router["cl"].connect(router["s"])
        classifier.push(0, make_packet(proto=PROTO_UDP))
        assert sink.packets == []
        assert click_drops(router, "classifier_unmatched") == 1

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
        router["loss"].connect(router["s"])
        loss.push(0, make_packet())
        loss.fail()
        loss.push(0, make_packet())
        loss.push(0, make_packet())
        loss.recover()
        loss.push(0, make_packet())
        assert len(sink.packets) == 2
        assert click_drops(router, "failed") == 2 == click_drops(router)

    def test_probabilistic_loss(self, world):
        sim, node, sliver, router = world
        loss = router.add("loss", LossElement())
        loss.set_drop_prob(0.5)
        sink = router.add("s", Sink())
        router["loss"].connect(router["s"])
        for _ in range(1000):
            loss.push(0, make_packet())
        assert 350 < len(sink.packets) < 650
        assert 1000 - len(sink.packets) == click_drops(router, "loss_prob")

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            LossElement().set_drop_prob(1.5)


class TestQueueShaper:
    def test_shaper_paces_to_rate(self, world, monkeypatch):
        sim, node, sliver, router = world
        monkeypatch.setattr(queue, "BURST_BYTES", 128)
        shaper = router.add("sh", Shaper(rate=800_000))
        arrival_times = []

        class TimedSink(Sink):
            def push(self, port, packet):
                arrival_times.append(sim.now)

        router.add("s", TimedSink())
        router["sh"].connect(router["s"])
        for _ in range(5):
            shaper.push(0, make_packet(size=72))  # 100B wire
        sim.run()
        assert len(arrival_times) == 5
        # 100 bytes at 800 kb/s = 1 ms spacing after the burst.
        gaps = [b - a for a, b in zip(arrival_times, arrival_times[1:])]
        assert all(gap == pytest.approx(0.001, rel=0.1) for gap in gaps[1:])

    def test_shaper_burst_passes_immediately(self, world, monkeypatch):
        sim, node, sliver, router = world
        monkeypatch.setattr(queue, "BURST_BYTES", 1000)
        shaper = router.add("sh", Shaper(rate=8_000))
        sink = router.add("s", Sink())
        router["sh"].connect(router["s"])
        shaper.push(0, make_packet(size=472))  # 500B <= burst
        assert len(sink.packets) == 1  # no simulation time needed

    def test_shaper_overflow_drops(self, world, monkeypatch):
        sim, node, sliver, router = world
        monkeypatch.setattr(queue, "BURST_BYTES", 100)
        monkeypatch.setattr(queue, "QUEUE_BYTES", 300)
        shaper = router.add("sh", Shaper(rate=8_000))
        sink = router.add("s", Sink())
        router["sh"].connect(router["s"])
        for _ in range(10):
            shaper.push(0, make_packet(size=100))
        assert shaper.drops > 0
        sim.run()

    def test_validation(self):
        with pytest.raises(ValueError):
            Shaper(rate=0)

    def test_reconfiguration_invalidates_memos(self, world):
        # The per-length cost memo must not survive a parameter change:
        # the router's syscall cost (the syscall_cost ablation sweeps
        # it) is a property that clears it on assignment.
        sim, node, sliver, router = world
        pkt = make_packet(size=100)
        baseline = router.per_packet_cost(pkt)
        assert router._cost_cache
        router.syscall_cost = 0.0
        assert not router._cost_cache
        assert router.per_packet_cost(pkt) == COPY_COST_PER_BYTE * pkt.wire_len
        assert router.per_packet_cost(pkt) < baseline


class TestEncapTable:
    def test_maps_gw_to_port(self, world):
        sim, node, sliver, router = world
        encap = router.add("enc", EncapTable())
        encap.add_output()
        encap.add_output()
        s0, s1 = router.add("s0", Sink()), router.add("s1", Sink())
        router["enc"].connect(router["s0"], out_port=0)
        router["enc"].connect(router["s1"], out_port=1)
        encap.add_mapping("10.9.9.1", 0)
        encap.add_mapping("10.9.9.2", 1)
        pkt = make_packet()
        pkt.meta["gw"] = __import__("repro.net.addr", fromlist=["ip"]).ip("10.9.9.2")
        encap.push(0, pkt)
        assert len(s1.packets) == 1

    def test_missing_annotation_or_entry_drops(self, world):
        sim, node, sliver, router = world
        encap = router.add("enc", EncapTable())
        encap.add_output()
        sink = router.add("s", Sink())
        router["enc"].connect(router["s"])
        encap.push(0, make_packet())  # no gw annotation
        pkt = make_packet()
        from repro.net.addr import ip
        pkt.meta["gw"] = ip("10.8.8.8")
        encap.push(0, pkt)  # no mapping
        assert sink.packets == []
        assert click_drops(router) == 2

    def test_port_range_validated(self, world):
        sim, node, sliver, router = world
        encap = router.add("enc", EncapTable())
        encap.add_output()
        with pytest.raises(ValueError):
            encap.add_mapping("10.9.9.1", 5)


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
            router = self.element.router
            router.sim.trace.drop(
                packet, f"{self.element.name}[{self.index}] unconnected", router.name)
            return
        self.target.push(self.target_port, packet)


class PortSink(Sink):
    """Records which packet arrived on which input port."""

    def push(self, port, packet):
        self.packets.append((port, packet.meta["id"]))


MAKERS = {"fan2": lambda: FanOut(2), "fan3": lambda: FanOut(3), "count": Count,
          "paint": lambda: Paint("x"), "sink": PortSink}


@st.composite
def graphs(draw):
    """A random DAG of pass-through elements and sinks: ``kinds`` per
    node; ``wires[node][port]`` is ``(later node, input port)`` or
    None (left unconnected); then the edits made between two bursts."""
    count = draw(st.integers(min_value=2, max_value=7))
    kinds = [draw(st.sampled_from(["fan2", "fan3", "count", "paint"]))] + [
        draw(st.sampled_from(["fan2", "fan3", "count", "paint", "sink"]))
        for _ in range(count - 2)] + ["sink"]
    arity = {"fan2": 2, "fan3": 3, "count": 1, "paint": 1, "sink": 0}

    def later(node):
        return st.none() | st.tuples(st.integers(node + 1, count - 1), st.integers(0, 2))

    wires = [[draw(later(node)) for _ in range(arity[kind])]
             for node, kind in enumerate(kinds)]
    fans = [node for node, kind in enumerate(kinds) if kind.startswith("fan")]
    grown = [(node, draw(later(node))) for node in draw(st.lists(
        st.sampled_from(fans), max_size=2))] if fans else []
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
