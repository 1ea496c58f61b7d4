"""Packet model.

A :class:`Packet` is a stack of typed headers (outermost first) plus a
payload. The simulation hot path manipulates header objects directly and
never serializes; ``pack()``/``unpack()`` produce real wire bytes (with
valid checksums) for tests and for the tcpdump tool.

Headers carry only the fields the reproduction exercises, but sizes on
the wire are the real ones, so encapsulation overhead (IP-in-UDP
tunnels, Fig. 2's life of a packet) is byte-accurate.
"""

from __future__ import annotations

import itertools
import struct
from typing import Any, Dict, List, Optional, Type, TypeVar, Union

from repro.net.addr import IPv4Address, ip
from repro.net.checksum import internet_checksum, pseudo_header_sum

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_OSPF = 89

ETHERTYPE_IPV4 = 0x0800

_packet_ids = itertools.count(1)

H = TypeVar("H", bound="Header")


class Header:
    """Base class for protocol headers."""

    __slots__ = ()
    length: int = 0  # bytes on the wire; overridden per header

    def pack(self) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    def copy(self) -> "Header":
        cls = type(self)
        clone = cls.__new__(cls)
        for name in _all_slots(cls):
            setattr(clone, name, getattr(self, name))
        return clone


def _all_slots(cls: type) -> List[str]:
    names: List[str] = []
    for klass in cls.__mro__:
        names.extend(getattr(klass, "__slots__", ()))
    return names


class EthernetHeader(Header):
    """Ethernet II header (14 bytes).

    MACs are plain ints; the UML switch and tap devices use them only
    for local delivery, so there is no ARP in the fast path (interfaces
    learn their peer's MAC when the link comes up, as a /30 point-to-
    point link would).
    """

    __slots__ = ("src", "dst", "ethertype")
    length = 14

    def __init__(self, src: int = 0, dst: int = 0, ethertype: int = ETHERTYPE_IPV4):
        self.src = src
        self.dst = dst
        self.ethertype = ethertype

    def pack(self) -> bytes:
        return (
            self.dst.to_bytes(6, "big")
            + self.src.to_bytes(6, "big")
            + struct.pack("!H", self.ethertype)
        )

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        dst = int.from_bytes(data[0:6], "big")
        src = int.from_bytes(data[6:12], "big")
        (ethertype,) = struct.unpack("!H", data[12:14])
        return cls(src=src, dst=dst, ethertype=ethertype)

    def __repr__(self) -> str:
        return f"Eth(src={self.src:012x}, dst={self.dst:012x})"


class IPv4Header(Header):
    """IPv4 header, no options (20 bytes)."""

    __slots__ = ("src", "dst", "proto", "ttl", "tos", "ident", "total_length")
    length = 20

    def __init__(
        self,
        src: Union[int, str, IPv4Address],
        dst: Union[int, str, IPv4Address],
        proto: int,
        ttl: int = 64,
        tos: int = 0,
        ident: int = 0,
        total_length: int = 0,
    ):
        self.src = ip(src)
        self.dst = ip(dst)
        self.proto = proto
        self.ttl = ttl
        self.tos = tos
        self.ident = ident
        self.total_length = total_length  # filled in by pack()/Packet

    def pack(self, payload_length: int = 0, total_length: Optional[int] = None) -> bytes:
        if total_length is not None:
            total = total_length
        else:
            total = self.total_length or (self.length + payload_length)
        head = struct.pack(
            "!BBHHHBBH4s4s",
            (4 << 4) | 5,  # version, IHL
            self.tos,
            total,
            self.ident,
            0,  # flags/fragment offset: fragmentation not modeled
            self.ttl,
            self.proto,
            0,  # checksum placeholder
            self.src.to_bytes4(),
            self.dst.to_bytes4(),
        )
        checksum = internet_checksum(head)
        return head[:10] + struct.pack("!H", checksum) + head[12:]

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4Header":
        (
            ver_ihl,
            tos,
            total,
            ident,
            _flags,
            ttl,
            proto,
            _checksum,
            src,
            dst,
        ) = struct.unpack("!BBHHHBBH4s4s", data[:20])
        if ver_ihl >> 4 != 4:
            raise ValueError(f"not an IPv4 header (version={ver_ihl >> 4})")
        header = cls(
            src=IPv4Address.from_bytes4(src),
            dst=IPv4Address.from_bytes4(dst),
            proto=proto,
            ttl=ttl,
            tos=tos,
            ident=ident,
            total_length=total,
        )
        return header

    def __repr__(self) -> str:
        return f"IP({self.src} > {self.dst} proto={self.proto} ttl={self.ttl})"


class UDPHeader(Header):
    """UDP header (8 bytes)."""

    __slots__ = ("sport", "dport")
    length = 8

    def __init__(self, sport: int, dport: int):
        self.sport = sport
        self.dport = dport

    def pack(
        self,
        payload: bytes = b"",
        src: int = 0,
        dst: int = 0,
    ) -> bytes:
        total = self.length + len(payload)
        head = struct.pack("!HHHH", self.sport, self.dport, total, 0)
        pseudo = pseudo_header_sum(src, dst, PROTO_UDP, total)
        checksum = internet_checksum(head + payload, initial=pseudo)
        return head[:6] + struct.pack("!H", checksum or 0xFFFF)

    @classmethod
    def unpack(cls, data: bytes) -> "UDPHeader":
        sport, dport, _length, _checksum = struct.unpack("!HHHH", data[:8])
        return cls(sport=sport, dport=dport)

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

    def pack(self, payload: bytes = b"", src: int = 0, dst: int = 0) -> bytes:
        head = struct.pack(
            "!HHIIBBHHH",
            self.sport,
            self.dport,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            5 << 4,  # data offset
            self.flags,
            self.window,
            0,  # checksum placeholder
            0,  # urgent pointer
        )
        pseudo = pseudo_header_sum(src, dst, PROTO_TCP, len(head) + len(payload))
        checksum = internet_checksum(head + payload, initial=pseudo)
        return head[:16] + struct.pack("!H", checksum) + head[18:]

    @classmethod
    def unpack(cls, data: bytes) -> "TCPHeader":
        sport, dport, seq, ack, _offset, flags, window, _csum, _urg = struct.unpack(
            "!HHIIBBHHH", data[:20]
        )
        return cls(sport=sport, dport=dport, seq=seq, ack=ack, flags=flags, window=window)

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

    __slots__ = ("type", "code", "ident", "seq")
    length = 8

    def __init__(self, type: int, code: int = 0, ident: int = 0, seq: int = 0):
        self.type = type
        self.code = code
        self.ident = ident
        self.seq = seq

    def pack(self, payload: bytes = b"") -> bytes:
        head = struct.pack("!BBHHH", self.type, self.code, 0, self.ident, self.seq)
        checksum = internet_checksum(head + payload)
        return head[:2] + struct.pack("!H", checksum) + head[4:]

    @classmethod
    def unpack(cls, data: bytes) -> "ICMPHeader":
        type_, code, _csum, ident, seq = struct.unpack("!BBHHH", data[:8])
        return cls(type=type_, code=code, ident=ident, seq=seq)

    def __repr__(self) -> str:
        return f"ICMP(type={self.type} code={self.code} id={self.ident} seq={self.seq})"


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

    @property
    def length(self) -> int:
        return self.size

    def copy(self) -> "OpaquePayload":
        return OpaquePayload(self.size, self.data, self.tag)

    def __repr__(self) -> str:
        suffix = f" tag={self.tag}" if self.tag else ""
        return f"Payload({self.size}B{suffix})"


def _outermost(header_type: Type[H]) -> property:
    """A read-only property: the first ``header_type`` in the stack, or None."""

    def get(self: "Packet") -> Optional[H]:
        for header in self.headers:
            if isinstance(header, header_type):
                return header
        return None

    return property(get, doc=f"The outermost {header_type.__name__}, or None.")


class Packet:
    """A packet: header stack (outermost first) + payload + annotations.

    ``meta`` is the equivalent of Click's packet annotations: elements
    stamp it (e.g. the destination annotation set by the lookup element
    and consumed by the encapsulation table).
    """

    __slots__ = ("headers", "payload", "meta", "uid", "created_at", "span",
                 "_wire_len", "_cow")

    def __init__(
        self,
        headers: Optional[List[Header]] = None,
        payload: Optional[OpaquePayload] = None,
        meta: Optional[Dict[str, Any]] = None,
        created_at: float = 0.0,
    ):
        self.headers: List[Header] = headers if headers is not None else []
        self.payload = payload if payload is not None else OpaquePayload(0)
        self.meta: Dict[str, Any] = meta if meta is not None else {}
        self.uid = next(_packet_ids)
        self.created_at = created_at
        # Flight-recorder span context (repro.obs.spans.SpanContext), or
        # None for untracked packets. Shared by reference across copies
        # and encapsulations: the context *is* the flight's identity.
        self.span = None
        self._wire_len: Optional[int] = None  # cache; see wire_len
        self._cow = False  # headers may be shared with another packet

    # ------------------------------------------------------------------
    # Header stack manipulation
    # ------------------------------------------------------------------
    def encap(self, header: Header) -> "Packet":
        """Push ``header`` onto the outside of the stack."""
        self.headers.insert(0, header)
        self._wire_len = None
        return self

    def decap(self) -> Header:
        """Pop and return the outermost header."""
        if not self.headers:
            raise IndexError("decap on empty header stack")
        self._wire_len = None
        return self.headers.pop(0)

    def find(self, header_type: Type[H], nth: int = 0) -> Optional[H]:
        """The ``nth`` header of ``header_type`` from the outside in."""
        seen = 0
        for header in self.headers:
            if isinstance(header, header_type):
                if seen == nth:
                    return header
                seen += 1
        return None

    # Convenience accessors for the common case (innermost wins is NOT
    # what forwarding wants — the outermost header of a type is the one
    # currently being routed on). Each is one frame: the per-packet path
    # reads them at every element.
    eth = _outermost(EthernetHeader)
    ip = _outermost(IPv4Header)
    udp = _outermost(UDPHeader)
    tcp = _outermost(TCPHeader)
    icmp = _outermost(ICMPHeader)

    @property
    def inner_ip(self) -> Optional[IPv4Header]:
        """The innermost IPv4 header (the original packet in a tunnel)."""
        result = None
        for header in self.headers:
            if isinstance(header, IPv4Header):
                result = header
        return result

    # ------------------------------------------------------------------
    # Size and copying
    # ------------------------------------------------------------------
    @property
    def wire_len(self) -> int:
        """Total bytes on the wire (cached; invalidated by encap/decap)."""
        length = self._wire_len
        if length is None:
            length = sum(h.length for h in self.headers) + self.payload.size
            self._wire_len = length
        return length

    def copy(self) -> "Packet":
        """Clone the packet.

        The clone is copy-on-write, mirroring Click's packet sharing:
        it shares the header objects (and the payload) with the
        original, and whichever side first *mutates* a header
        materializes private copies via :meth:`writable` /
        :meth:`uniqueify`. Per-hop fan-out (Tee, tcpdump taps) therefore
        never deep-copies headers it only reads;
        ``copy().uniqueify()`` forces private headers at once.

        The header *stacks* are independent either way: ``encap`` /
        ``decap`` on one side never affect the other.
        """
        clone = Packet.__new__(Packet)
        clone.headers = list(self.headers)
        clone.payload = self.payload
        clone.meta = dict(self.meta) if self.meta else {}
        clone.uid = next(_packet_ids)
        clone.created_at = self.created_at
        clone.span = self.span
        clone._wire_len = self._wire_len
        clone._cow = True
        self._cow = True
        return clone

    def uniqueify(self) -> "Packet":
        """Ensure this packet's headers are private (Click's uniqueify).

        A no-op unless the packet shares headers with a copy-on-write
        sibling; then every header is materialized once.
        """
        if self._cow:
            self.headers = [h.copy() for h in self.headers]
            self._cow = False
        return self

    def writable(self, header_type: Type[H], nth: int = 0) -> Optional[H]:
        """The ``nth`` header of ``header_type``, safe to mutate.

        Reading through :meth:`find` (or ``.ip``/``.tcp``/...) on a
        shared packet is free; any code that *writes* a header field
        must fetch it through here so the mutate-on-write fault can
        materialize private copies first.
        """
        if self._cow:
            self.uniqueify()
        return self.find(header_type, nth)

    # ------------------------------------------------------------------
    # Wire format (tests, tcpdump)
    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        """Serialize to real bytes with valid checksums, inside out."""
        data = b"\x00" * self.payload.size
        for header in reversed(self.headers):
            if isinstance(header, IPv4Header):
                # Pass the total explicitly instead of stamping it on the
                # header: the header object may be shared copy-on-write.
                data = header.pack(payload_length=len(data),
                                   total_length=header.length + len(data)) + data
            elif isinstance(header, (UDPHeader, TCPHeader)):
                enclosing = self._enclosing_ip(header)
                src = int(enclosing.src) if enclosing else 0
                dst = int(enclosing.dst) if enclosing else 0
                data = header.pack(data, src=src, dst=dst) + data
            elif isinstance(header, ICMPHeader):
                data = header.pack(data) + data
            else:
                data = header.pack() + data
        return data

    def _enclosing_ip(self, transport: Header) -> Optional[IPv4Header]:
        """The IPv4 header immediately outside ``transport``."""
        previous: Optional[IPv4Header] = None
        for header in self.headers:
            if header is transport:
                return previous
            if isinstance(header, IPv4Header):
                previous = header
        return previous

    def __repr__(self) -> str:
        stack = " | ".join(repr(h) for h in self.headers)
        return f"<Packet #{self.uid} [{stack}] {self.payload!r}>"
