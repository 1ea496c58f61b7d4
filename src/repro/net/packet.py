"""Packet model.

A :class:`Packet` is an IPv4 header, at most one transport header (UDP,
TCP or ICMP) and a payload. The simulation manipulates header objects
directly and never serializes. Encapsulation is a packet in a packet: a
tunnel's outer datagram carries the inner :class:`Packet` as its
payload's ``data`` and its size.

Headers carry only the fields the reproduction exercises, but sizes on
the wire are the real ones, so encapsulation overhead (IP-in-UDP
tunnels, Fig. 2's life of a packet) is byte-accurate.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.net.addr import IPv4Address, ip

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_OSPF = 89


class Header:
    """Base class for protocol headers."""

    __slots__ = ()
    length: int = 0  # bytes on the wire; overridden per header


class IPv4Header(Header):
    """IPv4 header, no options (20 bytes)."""

    __slots__ = ("src", "dst", "proto", "ttl")
    length = 20

    def __init__(
        self,
        src: Union[int, str, IPv4Address],
        dst: Union[int, str, IPv4Address],
        proto: int,
        ttl: int = 64,
    ):
        self.src = ip(src)
        self.dst = ip(dst)
        self.proto = proto
        self.ttl = ttl

    def __repr__(self) -> str:
        return f"IP({self.src} > {self.dst} proto={self.proto} ttl={self.ttl})"


class UDPHeader(Header):
    """UDP header (8 bytes)."""

    __slots__ = ("sport", "dport")
    length = 8

    def __init__(self, sport: int, dport: int):
        self.sport = sport
        self.dport = dport

    def __repr__(self) -> str:
        return f"UDP({self.sport} > {self.dport})"


TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


class TCPHeader(Header):
    """TCP header, no options (20 bytes)."""

    __slots__ = ("sport", "dport", "seq", "ack", "flags", "window")
    length = 20

    def __init__(
        self,
        sport: int,
        dport: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = 0,
        window: int = 65535,
    ):
        self.sport = sport
        self.dport = dport
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window

    @property
    def syn(self) -> bool:
        return bool(self.flags & TCP_SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & TCP_FIN)

    @property
    def ack_flag(self) -> bool:
        return bool(self.flags & TCP_ACK)

    def flag_string(self) -> str:
        parts = []
        for bit, letter in ((TCP_SYN, "S"), (TCP_FIN, "F"), (TCP_RST, "R"), (TCP_PSH, "P"), (TCP_ACK, ".")):
            if self.flags & bit:
                parts.append(letter)
        return "".join(parts) or "-"

    def __repr__(self) -> str:
        return (
            f"TCP({self.sport} > {self.dport} [{self.flag_string()}] "
            f"seq={self.seq} ack={self.ack} win={self.window})"
        )


ICMP_ECHO_REPLY = 0
ICMP_DEST_UNREACHABLE = 3
ICMP_ECHO_REQUEST = 8
ICMP_TIME_EXCEEDED = 11


class ICMPHeader(Header):
    """ICMP header (8 bytes, echo-style layout)."""

    __slots__ = ("type", "ident", "seq")
    length = 8

    def __init__(self, type: int, ident: int = 0, seq: int = 0):
        self.type = type
        self.ident = ident
        self.seq = seq

    def __repr__(self) -> str:
        return f"ICMP(type={self.type} id={self.ident} seq={self.seq})"


class OpaquePayload:
    """Application payload represented by size, not bytes.

    Simulated traffic generators move megabytes; materializing them
    would dominate memory for no fidelity gain. ``data`` may carry a
    small control blob (e.g. a routing message object or a ping
    timestamp) that travels with the payload.
    """

    __slots__ = ("size", "data", "tag")

    def __init__(self, size: int, data: Any = None, tag: str = ""):
        if size < 0:
            raise ValueError(f"negative payload size {size}")
        self.size = size
        self.data = data
        self.tag = tag

    def copy(self) -> "OpaquePayload":
        return OpaquePayload(self.size, self.data, self.tag)

    def __repr__(self) -> str:
        suffix = f" tag={self.tag}" if self.tag else ""
        return f"Payload({self.size}B{suffix})"


class Packet:
    """A packet: an IPv4 header, one transport header, a payload, annotations.

    ``ip``, ``udp``, ``tcp``, ``icmp`` and ``wire_len`` are plain slots
    set once here: the transport header lands in the slot its class
    names, the others stay None. A tunnel carries a whole inner
    :class:`Packet` in the outer datagram's ``payload.data``.

    ``meta`` is the equivalent of Click's packet annotations: elements
    stamp it (e.g. the destination annotation set by the lookup element
    and consumed by the encapsulation table).
    """

    __slots__ = ("ip", "udp", "tcp", "icmp", "payload", "meta", "uid",
                 "span", "wire_len")

    def __init__(
        self,
        ip: Optional[IPv4Header],
        transport: Optional[Header] = None,
        payload: Optional[OpaquePayload] = None,
    ):
        self.ip = ip
        self.udp = self.tcp = self.icmp = None
        length = 0 if ip is None else ip.length
        if transport is not None:
            kind = transport.__class__
            if kind is UDPHeader:
                self.udp = transport
            elif kind is TCPHeader:
                self.tcp = transport
            elif kind is ICMPHeader:
                self.icmp = transport
            else:
                raise TypeError(f"not a transport header: {transport!r}")
            length += transport.length
        self.payload = payload if payload is not None else OpaquePayload(0)
        self.meta: Dict[str, Any] = {}
        self.uid = 0  # until a record names it (Simulator.uid)
        # Flight-recorder span context (repro.obs.spans.SpanContext), or
        # None for untracked packets. Shared by reference with the
        # tunnel's outer packet and the echo reply: the context *is*
        # the flight's identity.
        self.span = None
        self.wire_len = length + self.payload.size  # bytes on the wire

    def __repr__(self) -> str:
        headers = (self.ip, self.udp or self.tcp or self.icmp)
        stack = " | ".join(repr(h) for h in headers if h is not None)
        return f"<Packet #{self.uid} [{stack}] {self.payload!r}>"
