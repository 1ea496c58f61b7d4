"""Property tests for TCP: reliable, in-order, exactly-once delivery.

Whatever the loss pattern, a TCP transfer must deliver exactly the
bytes sent, in order, or stall trying — never duplicate or reorder.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.tcp import TCPStack
from repro.phys.node import PhysicalNode, connect
from repro.phys.vserver import Slice
from repro.sim import Simulator


def run_transfer(total, drop_seeds, drop_rate, bandwidth=20e6, delay=0.005):
    """Transfer ``total`` bytes over a lossy link; return delivered."""
    sim = Simulator(seed=99)
    a = PhysicalNode(sim, "a")
    b = PhysicalNode(sim, "b")
    connect(sim, a, b, bandwidth=bandwidth, delay=delay,
            subnet="192.0.2.0/30", queue_bytes=128 * 1024)
    stack_a, stack_b = TCPStack.of(a), TCPStack.of(b)
    pa = a.create_sliver(Slice("sa")).create_process("app")
    pb = b.create_sliver(Slice("sb")).create_process("app")
    delivered = []
    def on_accept(conn):
        conn.on_data = delivered.append
    stack_b.listen(pb, 5001, on_accept=on_accept, rcvbuf=64 * 1024)
    conn = stack_a.connect(pa, "192.0.2.2", 5001)
    remaining = [total]

    def pump():
        if remaining[0] > 0:
            remaining[0] -= conn.send(remaining[0])

    conn.on_connect = pump
    conn.on_writable = pump
    # Random loss on the link, both directions.
    import random

    rng = random.Random(drop_seeds)
    link = a.interfaces["eth0"].link
    original = link.transmit

    def lossy(sender, packet):
        if rng.random() < drop_rate:
            return False
        return original(sender, packet)

    link.transmit = lossy
    sim.run(until=120.0)
    return sum(delivered), conn


@settings(max_examples=10, deadline=None)
@given(
    total=st.integers(min_value=1, max_value=120_000),
    drop_seed=st.integers(min_value=0, max_value=10_000),
    drop_rate=st.sampled_from([0.0, 0.01, 0.05, 0.15]),
)
def test_all_bytes_delivered_exactly_once(total, drop_seed, drop_rate):
    delivered, conn = run_transfer(total, drop_seed, drop_rate)
    assert delivered == total
    # Receiver-side accounting agrees (no duplicates counted).
    assert conn.snd_una - 1 >= total  # all data acked (+1 for SYN)


def test_heavy_loss_still_completes_eventually():
    delivered, conn = run_transfer(30_000, drop_seeds=7, drop_rate=0.30)
    assert delivered == 30_000
    assert conn.stack.total_retransmits > 0


def test_zero_loss_has_no_retransmits():
    delivered, conn = run_transfer(100_000, drop_seeds=1, drop_rate=0.0)
    assert delivered == 100_000
    assert conn.stack.total_retransmits == 0
    assert conn.stack.total_timeouts == 0
