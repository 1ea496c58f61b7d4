"""Unit tests for the packet model."""

import pytest

from repro.net import (
    IPv4Header,
    OpaquePayload,
    Packet,
    TCPHeader,
    UDPHeader,
    ip,
)
from repro.net.packet import PROTO_UDP, TCP_ACK, TCP_SYN


def make_udp_packet(payload=64):
    return Packet(
        headers=[
            IPv4Header("10.1.1.2", "10.1.2.3", PROTO_UDP),
            UDPHeader(5000, 5001),
        ],
        payload=OpaquePayload(payload),
    )


class TestHeaderStack:
    def test_wire_len_accounts_for_all_layers(self):
        pkt = make_udp_packet(payload=1430)
        assert pkt.wire_len == 20 + 8 + 1430

    def test_encap_decap(self):
        pkt = make_udp_packet()
        inner_ip = pkt.ip
        # Tunnel encapsulation: outer IP + UDP (as IIAS UDP tunnels do).
        pkt.encap(UDPHeader(33000, 33001))
        pkt.encap(IPv4Header("198.32.154.170", "198.32.154.250", PROTO_UDP))
        assert pkt.wire_len == 20 + 8 + 20 + 8 + 64
        assert str(pkt.ip.dst) == "198.32.154.250"  # outermost IP
        assert pkt.inner_ip is inner_ip
        pkt.decap()
        pkt.decap()
        assert pkt.ip is inner_ip

    def test_decap_empty_raises(self):
        with pytest.raises(IndexError):
            Packet().decap()

    def test_find_nth(self):
        pkt = make_udp_packet()
        pkt.encap(IPv4Header("1.1.1.1", "2.2.2.2", PROTO_UDP))
        assert str(pkt.find(IPv4Header, 0).src) == "1.1.1.1"
        assert str(pkt.find(IPv4Header, 1).src) == "10.1.1.2"
        assert pkt.find(IPv4Header, 2) is None
        assert pkt.find(TCPHeader) is None

    def test_copy_isolates_header_writes_and_meta(self):
        pkt = make_udp_packet()
        pkt.meta["annotation"] = "x"
        clone = pkt.copy()
        clone.writable(IPv4Header).ttl = 1
        clone.meta["annotation"] = "y"
        assert pkt.ip.ttl == 64
        assert pkt.meta["annotation"] == "x"
        assert clone.uid != pkt.uid

    def test_copy_is_copy_on_write(self):
        pkt = make_udp_packet()
        clone = pkt.copy()
        # Headers are shared until someone writes ...
        assert clone.ip is pkt.ip
        assert clone.udp is pkt.udp
        # ... then the writer materializes private copies, once.
        header = clone.writable(IPv4Header)
        assert header is not pkt.ip
        assert header is clone.writable(IPv4Header)
        header.ttl = 9
        assert pkt.ip.ttl == 64
        # The original's view is unchanged by the clone's write.
        assert clone.ip.ttl == 9

    def test_original_write_does_not_leak_into_clone(self):
        pkt = make_udp_packet()
        clone = pkt.copy()
        pkt.writable(IPv4Header).ttl = 3
        assert clone.ip.ttl == 64

    def test_copy_stacks_are_independent(self):
        pkt = make_udp_packet()
        clone = pkt.copy()
        clone.encap(IPv4Header("1.1.1.1", "2.2.2.2", PROTO_UDP))
        assert len(pkt.headers) == 2
        assert len(clone.headers) == 3
        clone.decap()
        clone.decap()
        assert len(pkt.headers) == 2

    def test_deep_copy_still_available(self):
        pkt = make_udp_packet()
        clone = pkt.copy().uniqueify()
        assert clone.ip is not pkt.ip
        clone.ip.ttl = 1  # direct mutation is fine on private headers
        assert pkt.ip.ttl == 64

    def test_payload_data_travels(self):
        pkt = Packet(payload=OpaquePayload(100, data={"t": 1.5}, tag="ping"))
        assert pkt.payload.data == {"t": 1.5}
        assert pkt.copy().payload.data == {"t": 1.5}

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            OpaquePayload(-1)


class TestTCPFlags:
    def test_flag_string(self):
        assert TCPHeader(1, 2, flags=TCP_SYN).flag_string() == "S"
        assert "." in TCPHeader(1, 2, flags=TCP_ACK).flag_string()
        assert TCPHeader(1, 2).flag_string() == "-"
