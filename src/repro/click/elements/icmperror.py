"""ICMP error generation inside the overlay data plane.

When a DecIPTTL expires a packet (a traceroute probe walking the
overlay), Click itself answers with an ICMP time-exceeded sourced from
the virtual node's address — the overlay behaves like a chain of real
routers, which is what makes `tools.traceroute` show virtual hops.
"""

from __future__ import annotations

from typing import Union

from repro.click.element import Element
from repro.net.addr import IPv4Address, ip
from repro.net.packet import (
    ICMPHeader,
    IPv4Header,
    OpaquePayload,
    Packet,
    PROTO_ICMP,
)


class ICMPErrorElement(Element):
    """Builds an ICMP error for each offending packet pushed in."""

    def __init__(self, src: Union[str, IPv4Address], icmp_type: int):
        super().__init__(n_outputs=1)
        self.src = ip(src)
        self.icmp_type = icmp_type

    def push(self, port: int, packet: Packet) -> None:
        header = packet.ip
        if header is None:
            return
        error = Packet(
            IPv4Header(self.src, header.src, PROTO_ICMP, ttl=64),
            ICMPHeader(self.icmp_type),
            payload=OpaquePayload(28, data=packet, tag="icmp-error"),
        )
        self.outputs[0].push(error)
