"""Unit tests for the physical link model."""

import pytest

from repro.net.packet import IPv4Header, OpaquePayload, Packet, PROTO_UDP
from repro.phys.link import Link
from repro.sim import Simulator
from tests.conftest import DropWatch


class FakeNode:
    def __init__(self, name):
        self.name = name


class FakeInterface:
    """Endpoint stub that records deliveries."""

    def __init__(self, name):
        self.node = FakeNode(name)
        self.received = []

    def receive(self, packet):
        self.received.append((packet, packet.uid))


def make_packet(size=1000):
    return Packet(
        IPv4Header("10.0.0.1", "10.0.0.2", PROTO_UDP),
        payload=OpaquePayload(size - 20),
    )


def make_link(sim, bandwidth=8_000_000, delay=0.010, queue_bytes=4000):
    a, b = FakeInterface("a"), FakeInterface("b")
    link = Link(sim, bandwidth=bandwidth, delay=delay, queue_bytes=queue_bytes)
    link.attach(a)
    link.attach(b)
    return link, a, b


def test_delivery_after_tx_plus_propagation():
    sim = Simulator()
    link, a, b = make_link(sim)  # 8 Mb/s, 10 ms
    pkt = make_packet(1000)  # 8000 bits -> 1 ms serialization
    times = []
    sim.at(0.0, lambda: link.transmit(a, pkt))
    sim.trace.subscribe("x", lambda r: None)
    sim.run()
    assert len(b.received) == 1
    assert sim.now == pytest.approx(0.011)


def test_serialization_queues_back_to_back():
    sim = Simulator()
    link, a, b = make_link(sim, queue_bytes=100000)
    for _ in range(3):
        link.transmit(a, make_packet(1000))
    deliveries = []
    original = b.receive

    def recording(pkt):
        deliveries.append(sim.now)
        original(pkt)

    b.receive = recording
    sim.run()
    assert deliveries == [
        pytest.approx(0.011),
        pytest.approx(0.012),
        pytest.approx(0.013),
    ]


def test_queue_overflow_drops():
    sim = Simulator()
    # Queue holds 4000 bytes = 4 packets; 1 transmitting + 4 queued.
    link, a, b = make_link(sim)
    sim.trace.enable("drop")
    results = [link.transmit(a, make_packet(1000)) for _ in range(8)]
    assert results[:5] == [True] * 5
    assert results[5:] == [False] * 3
    sim.run()
    assert len(b.received) == 5
    assert link.stats()["drops"] == 3
    assert sim.trace.count("drop", where=link.name, reason="queue_overflow") == 3


def test_duplex_directions_independent():
    sim = Simulator()
    link, a, b = make_link(sim)
    link.transmit(a, make_packet(1000))
    link.transmit(b, make_packet(1000))
    sim.run()
    assert len(b.received) == 1
    assert len(a.received) == 1


def test_fail_drops_queued_and_in_flight():
    sim = Simulator()
    link, a, b = make_link(sim, queue_bytes=100000)
    for _ in range(3):
        link.transmit(a, make_packet(1000))
    # Fail at 5 ms: first packet is in flight, others queued.
    sim.at(0.005, link.fail)
    sim.run()
    assert b.received == []
    assert not link.up


def test_fail_accounts_every_dropped_packet():
    """The drop counter and the per-packet ``drop`` trace records must
    agree after ``fail()`` flushes queued and in-flight packets, and
    each lost packet's flight is closed."""
    sim = Simulator()
    link, a, b = make_link(sim, queue_bytes=100000)
    watch = DropWatch(sim)
    packets = [watch.track(make_packet(1000)) for _ in range(4)]
    for pkt in packets:
        link.transmit(a, pkt)
    sim.at(0.0005, link.fail)  # first packet mid-serialization, 3 queued
    sim.run()
    assert link.stats()["drops"] == 4
    records = list(sim.trace.select("drop", reason="link_failed"))
    assert len(records) == 4
    # Ids come from this simulator: the four packets are its first named.
    assert sorted(r["uid"] for r in records) == sorted(
        pkt.uid for pkt in packets
    ) == [1, 2, 3, 4]
    assert all(r["where"] == link.name for r in records)
    assert watch.open_flights == {}


def test_offered_delivered_conservation():
    """offered == delivered + drops + queued + in-flight, always."""
    sim = Simulator()
    link, a, b = make_link(sim)  # queue holds 4: 5 accepted, 3 overflow
    sim.trace.enable("drop")
    for _ in range(8):
        link.transmit(a, make_packet(1000))
    stats = link.stats()
    in_transit = sum(len(c.in_flight) for c in link._channels.values())
    assert stats["offered"] == 8
    assert stats["offered"] == (
        stats["delivered"] + stats["drops"] + in_transit
    )
    sim.at(0.0025, link.fail)  # strand the rest mid-delivery
    sim.run()
    stats = link.stats()
    assert stats["offered"] == stats["delivered"] + stats["drops"]
    assert stats["drops"] == sim.trace.count("drop", where=link.name)


def test_down_link_rejects_sends():
    sim = Simulator()
    link, a, b = make_link(sim)
    watch = DropWatch(sim)
    link.fail()
    assert link.transmit(a, watch.track(make_packet())) is False
    sim.run()
    assert b.received == []
    assert watch.drops() == [(link.name, "link_down")]
    assert watch.open_flights == {}


def test_recover_restores_service():
    sim = Simulator()
    link, a, b = make_link(sim)
    link.fail()
    link.recover()
    assert link.up
    link.transmit(a, make_packet(1000))
    sim.run()
    assert len(b.received) == 1


def test_observers_notified_with_state():
    sim = Simulator()
    link, a, b = make_link(sim)
    events = []
    link.observe(lambda lk, up: events.append((lk.name, up)))
    link.fail()
    link.fail()  # idempotent: no duplicate notification
    link.recover()
    assert events == [("a--b", False), ("a--b", True)]


def test_state_changes_traced():
    sim = Simulator()
    link, a, b = make_link(sim)
    link.fail()
    link.recover()
    states = [r["up"] for r in sim.trace.select("link_state")]
    assert states == [False, True]


def test_stats_count_tx():
    sim = Simulator()
    link, a, b = make_link(sim)
    link.transmit(a, make_packet(1000))
    sim.run()
    stats = link.stats()
    assert stats["tx_packets"] == 1
    assert stats["tx_bytes"] == 1000


def test_other_end():
    sim = Simulator()
    link, a, b = make_link(sim)
    assert link.other_end(a) is b
    assert link.other_end(b) is a
    with pytest.raises(ValueError):
        link.other_end(FakeInterface("c"))


def test_attach_limit():
    sim = Simulator()
    link, a, b = make_link(sim)
    with pytest.raises(ValueError):
        link.attach(FakeInterface("c"))


def test_parameter_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, bandwidth=0)
    with pytest.raises(ValueError):
        Link(sim, delay=-1)


def test_bandwidth_reconfiguration_invalidates_tx_memo():
    # The per-channel serialization-time memo is keyed only by wire
    # length; the bandwidth setter must clear it so a reconfigured
    # link never serves times computed for the old rate.
    sim = Simulator()
    link, a, b = make_link(sim, bandwidth=8_000_000, delay=0.0)
    sim.at(0.0, lambda: link.transmit(a, make_packet(1000)))
    sim.run()
    assert sim.now == pytest.approx(0.001)  # 8000 bits at 8 Mb/s
    link.bandwidth = 16_000_000
    start = sim.now
    sim.at(0.0, lambda: link.transmit(a, make_packet(1000)))
    sim.run()
    assert sim.now - start == pytest.approx(0.0005)
    with pytest.raises(ValueError):
        link.bandwidth = 0
