"""Shared fixtures for Click element tests."""

import pytest

from repro.click import ClickRouter, Element
from repro.phys.node import PhysicalNode, connect
from repro.phys.vserver import Slice
from repro.sim import Simulator


class Sink(Element):
    """Test sink that records pushed packets."""

    def __init__(self):
        super().__init__(n_outputs=0)
        self.packets = []

    def push(self, port, packet):
        self.packets.append(packet)


class StubRouter:
    """What an element needs of its router to drop a packet: for
    property tests that build hundreds of graphs without a simulator."""

    def __init__(self):
        self.dropped = []  # (packet, reason)

    def trace_drop(self, packet, reason):
        self.dropped.append((packet, reason))


@pytest.fixture
def world():
    """One node with a Click router in a slice; returns helpers."""
    sim = Simulator(seed=11)
    node = PhysicalNode(sim, "n0")
    node.add_interface("eth0").configure("198.51.100.1", 24)
    sliver = node.create_sliver(Slice("exp"))
    process = sliver.create_process("click", realtime=True)
    router = ClickRouter(node, process)
    return sim, node, sliver, router


@pytest.fixture
def pair():
    """Two connected nodes, each with a Click router."""
    sim = Simulator(seed=12)
    a = PhysicalNode(sim, "a")
    b = PhysicalNode(sim, "b")
    connect(sim, a, b, bandwidth=1e9, delay=0.005, subnet="198.51.100.0/30")
    slice_ = Slice("exp")
    router_a = ClickRouter(a, a.create_sliver(slice_).create_process("click", realtime=True))
    router_b = ClickRouter(b, b.create_sliver(slice_).create_process("click", realtime=True))
    return sim, a, b, router_a, router_b
