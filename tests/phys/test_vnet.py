"""Unit tests for VNET port reservation and preallocation."""

import pytest

from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.phys.node import PhysicalNode
from repro.phys import vnet
from repro.phys.vnet import PortConflictError, VNet
from repro.phys.vserver import Slice
from repro.sim import Simulator


@pytest.fixture
def node():
    sim = Simulator()
    node = PhysicalNode(sim, "n")
    node.add_interface("eth0").configure("192.0.2.1", 24)
    return node


def test_reserve_and_release(node):
    entry = object()
    node.vnet.reserve(PROTO_UDP, 5000, entry)
    assert node.vnet.lookup(PROTO_UDP, 5000) is entry
    node.vnet.release(PROTO_UDP, 5000, entry)
    assert node.vnet.lookup(PROTO_UDP, 5000) is None


def test_release_wrong_entry_is_noop(node):
    entry, other = object(), object()
    node.vnet.reserve(PROTO_UDP, 5000, entry)
    node.vnet.release(PROTO_UDP, 5000, other)
    assert node.vnet.lookup(PROTO_UDP, 5000) is entry


def test_conflict_names_owning_slice(node):
    sliver = node.create_sliver(Slice("owner-slice"))
    proc = sliver.create_process("app")
    node.udp_socket(proc, port=5000)
    with pytest.raises(PortConflictError) as err:
        node.vnet.reserve(PROTO_UDP, 5000, object())
    assert "owner-slice" in str(err.value)


def test_proto_spaces_are_independent(node):
    node.vnet.reserve(PROTO_UDP, 5000, object())
    node.vnet.reserve(PROTO_TCP, 5000, object())  # no conflict


def test_invalid_port_rejected(node):
    with pytest.raises(ValueError):
        node.vnet.reserve(PROTO_UDP, 0, object())
    with pytest.raises(ValueError):
        node.vnet.reserve(PROTO_UDP, 70000, object())


def test_free_port_skips_reserved_and_preallocated(node, monkeypatch):
    monkeypatch.setattr(vnet, "TUNNEL_PORT_BASE", 32769)
    node.vnet.reserve(PROTO_UDP, 32768, object())
    preallocated = node.vnet.preallocate(PROTO_UDP)
    assert preallocated == 32769
    assert node.vnet.free_port(PROTO_UDP) == 32770


def test_preallocate_is_monotone_per_node(node):
    first = node.vnet.preallocate(PROTO_UDP)
    second = node.vnet.preallocate(PROTO_UDP)
    assert first == 33000
    assert second == 33001


def test_preallocated_port_can_be_bound(node):
    sliver = node.create_sliver(Slice("s"))
    proc = sliver.create_process("app")
    port = node.vnet.preallocate(PROTO_UDP)
    node.udp_socket(proc, port=port)  # bind succeeds


def test_ports_of_slice(node):
    """A slice's bound ports are entered in the node's table, each owned
    by that slice."""
    sliver = node.create_sliver(Slice("mine"))
    proc = sliver.create_process("app")
    socks = [node.udp_socket(proc, port=port) for port in (5000, 5001)]
    vnet = node.vnet
    assert [vnet.lookup(PROTO_UDP, port) for port in (5000, 5001)] == socks
    assert [vnet._owner_slice(sock) for sock in socks] == ["mine", "mine"]
