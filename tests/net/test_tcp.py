"""Tests for TCP Reno: handshake, transfer, loss recovery, close."""

import pytest

from repro.net.packet import IPv4Header, OpaquePayload, Packet, PROTO_TCP, TCPHeader
from repro.net.tcp import ESTABLISHED, MSS, TCPStack
from repro.phys.node import PhysicalNode, connect
from repro.phys.vserver import Slice
from repro.sim import Simulator
from tests.conftest import DropWatch


def make_pair(bandwidth=10_000_000, delay=0.010, queue_bytes=64 * 1024):
    sim = Simulator(seed=21)
    a = PhysicalNode(sim, "a")
    b = PhysicalNode(sim, "b")
    connect(sim, a, b, bandwidth=bandwidth, delay=delay,
            subnet="192.0.2.0/30", queue_bytes=queue_bytes)
    stack_a = TCPStack.of(a)
    stack_b = TCPStack.of(b)
    pa = a.create_sliver(Slice("sa")).create_process("app")
    pb = b.create_sliver(Slice("sb")).create_process("app")
    return sim, a, b, stack_a, stack_b, pa, pb


def test_handshake_establishes_both_sides():
    sim, a, b, sa, sb, pa, pb = make_pair()
    server_conns = []
    sb.listen(pb, 5001, on_accept=server_conns.append)
    connected = []
    conn = sa.connect(pa, "192.0.2.2", 5001)
    conn.on_connect = lambda: connected.append(sim.now)
    sim.run(until=1.0)
    assert conn.state == ESTABLISHED
    assert len(server_conns) == 1
    assert server_conns[0].state == ESTABLISHED
    assert connected and connected[0] >= 0.020  # at least one RTT


def test_bulk_transfer_delivers_all_bytes():
    sim, a, b, sa, sb, pa, pb = make_pair()
    received = []
    def on_accept(conn):
        conn.on_data = received.append
    sb.listen(pb, 5001, on_accept=on_accept)
    conn = sa.connect(pa, "192.0.2.2", 5001, rcvbuf=64 * 1024)
    total = 500_000
    remaining = [total]

    def pump():
        if remaining[0] > 0:
            remaining[0] -= conn.send(remaining[0])

    conn.on_connect = pump
    conn.on_writable = pump
    sim.run(until=30.0)
    assert sum(received) == total


def test_throughput_limited_by_receiver_window():
    """rwnd/RTT is the ceiling: 16 KB at 40 ms RTT is ~3.3 Mb/s."""
    sim, a, b, sa, sb, pa, pb = make_pair(bandwidth=100_000_000, delay=0.020)
    got = []
    def on_accept(conn):
        conn.on_data = got.append
    sb.listen(pb, 5001, on_accept=on_accept, rcvbuf=16 * 1024)
    conn = sa.connect(pa, "192.0.2.2", 5001)

    def keep_sending():
        conn.send(64 * 1024)
        sim.at(0.05, keep_sending)

    conn.on_connect = keep_sending
    sim.run(until=10.0)
    rate = sum(got) * 8 / 10.0
    ceiling = 16 * 1024 * 8 / 0.040
    assert rate <= ceiling * 1.1
    assert rate >= ceiling * 0.5


def test_fast_retransmit_recovers_from_single_loss():
    sim, a, b, sa, sb, pa, pb = make_pair(bandwidth=50_000_000, delay=0.005)
    got = []
    def on_accept(conn):
        conn.on_data = got.append
    sb.listen(pb, 5001, on_accept=on_accept, rcvbuf=128 * 1024)
    conn = sa.connect(pa, "192.0.2.2", 5001)
    total = 200_000
    conn.on_connect = lambda: conn.send(total)

    # Drop exactly one data segment in flight by failing the link
    # for an instant mid-transfer.
    link = a.interfaces["eth0"].link
    dropped = []

    def drop_once():
        original = link.transmit

        def lossy(sender, packet):
            if not dropped and packet.payload.tag == "data" and packet.payload.size == MSS:
                dropped.append(packet.uid)
                return False
            return original(sender, packet)

        link.transmit = lossy

    sim.at(0.05, drop_once)
    sim.run(until=20.0)
    assert dropped, "test did not drop anything"
    assert sum(got) == total
    assert sa.total_retransmits >= 1
    # Fast retransmit means few or no RTO firings.
    assert sa.total_timeouts <= 1


def test_outage_causes_timeout_backoff_and_recovery():
    """The Fig. 9 mechanism: stall during outage, slow-start restart."""
    sim, a, b, sa, sb, pa, pb = make_pair(bandwidth=10_000_000, delay=0.010)
    got = []
    times = []
    def on_accept(conn):
        conn.on_data = lambda n: (got.append(n), times.append(sim.now))
    sb.listen(pb, 5001, on_accept=on_accept, rcvbuf=32 * 1024)
    conn = sa.connect(pa, "192.0.2.2", 5001)

    def keep_sending():
        conn.send(32 * 1024)
        sim.at(0.05, keep_sending)

    conn.on_connect = keep_sending
    link = a.interfaces["eth0"].link
    sim.at(2.0, link.fail)
    sim.at(6.0, link.recover)
    sim.run(until=12.0)
    assert sa.total_timeouts >= 1
    # Delivery gap spans the outage.
    gaps = [t2 - t1 for t1, t2 in zip(times, times[1:])]
    assert max(gaps) > 3.5
    # And traffic resumed afterwards.
    assert times[-1] > 6.5
    # cwnd collapsed to one segment at some point (slow-start restart).
    assert conn.ssthresh < 32 * 1024


def test_graceful_close_tears_down_both_ends():
    sim, a, b, sa, sb, pa, pb = make_pair()
    server = []
    def on_accept(conn):
        server.append(conn)
        conn.on_close = lambda: conn.close()
    sb.listen(pb, 5001, on_accept=on_accept)
    conn = sa.connect(pa, "192.0.2.2", 5001)
    closed = []
    conn.on_close = lambda: closed.append(sim.now)

    def send_then_close():
        conn.send(10_000)
        conn.close()

    conn.on_connect = send_then_close
    sim.run(until=10.0)
    assert closed
    assert conn.state == "CLOSED"
    assert server[0].state == "CLOSED"


def test_listener_port_conflict():
    sim, a, b, sa, sb, pa, pb = make_pair()
    sb.listen(pb, 5001)
    with pytest.raises(ValueError):
        sb.listen(pb, 5001)


def make_tap_owner():
    """Node ``a`` of a pair, with a sliver whose tap holds 10.2.0.1."""
    sim, a, b, sa, sb, pa, pb = make_pair()
    pa.sliver.create_tap("10.2.0.1", route_prefix="10.0.0.0/8")
    return sa, pa


def test_a_tap_space_listener_rejects_port_zero():
    sa, pa = make_tap_owner()
    with pytest.raises(ValueError):
        sa.listen(pa, 0, local_addr="10.2.0.1")


def test_a_tap_space_connect_skips_the_ports_of_tap_listeners():
    sa, pa = make_tap_owner()
    sa.listen(pa, 32768, local_addr="10.2.0.1")
    conn = sa.connect(pa, "10.9.0.1", 5001)
    assert str(conn.laddr) == "10.2.0.1"
    assert conn.lport == 32769


def test_a_closed_listener_accepts_nothing_and_frees_its_port():
    sim, a, b, sa, sb, pa, pb = make_pair()
    accepted = []
    sb.listen(pb, 5001, on_accept=accepted.append).close()
    conn = sa.connect(pa, "192.0.2.2", 5001)
    sim.run(until=2.0)
    assert conn.state == "SYN_SENT" and accepted == []
    sb.listen(pb, 5001)  # the port is free again


def test_syn_to_closed_port_ignored():
    sim, a, b, sa, sb, pa, pb = make_pair()
    sim.trace.enable("drop")
    conn = sa.connect(pa, "192.0.2.2", 4444)
    sim.run(until=2.0)
    assert conn.state == "SYN_SENT"
    assert sim.trace.count("drop", where="b", reason="no_connection") >= 1


def test_a_segment_for_no_connection_is_one_drop():
    sim, a, b, sa, sb, pa, pb = make_pair()
    watch = DropWatch(sim)
    segment = Packet(IPv4Header("192.0.2.1", "192.0.2.2", PROTO_TCP),
                     TCPHeader(6000, 4444), OpaquePayload(100))
    a.ip_output(watch.track(segment))
    sim.run()
    assert watch.drops() == [("b", "no_connection")]
    assert watch.open_flights == {}


def test_rtt_estimation_converges():
    sim, a, b, sa, sb, pa, pb = make_pair(delay=0.025)
    def on_accept(conn):
        conn.on_data = lambda n: None
    sb.listen(pb, 5001, on_accept=on_accept)
    conn = sa.connect(pa, "192.0.2.2", 5001)

    def keep_sending():
        conn.send(16 * 1024)
        sim.at(0.1, keep_sending)

    conn.on_connect = keep_sending
    sim.run(until=5.0)
    assert conn.srtt is not None
    assert conn.srtt == pytest.approx(0.050, rel=0.3)
    assert conn.rto >= 0.2  # clamped to Linux minimum


def test_send_before_established_buffers():
    sim, a, b, sa, sb, pa, pb = make_pair()
    got = []
    def on_accept(conn):
        conn.on_data = got.append
    sb.listen(pb, 5001, on_accept=on_accept)
    conn = sa.connect(pa, "192.0.2.2", 5001)
    accepted = conn.send(5000)  # before handshake completes
    assert accepted == 5000
    sim.run(until=5.0)
    assert sum(got) == 5000


def test_send_buffer_limit():
    sim, a, b, sa, sb, pa, pb = make_pair()
    conn = sa.connect(pa, "192.0.2.2", 5001)
    accepted = conn.send(10_000_000)
    assert accepted == conn.snd_buf_limit
