"""IP header sanity and TTL handling elements."""

from __future__ import annotations

from repro.click.element import Element
from repro.net.packet import IPv4Header, Packet


class CheckIPHeader(Element):
    """Drops packets without a (structurally valid) IPv4 header."""

    def __init__(self):
        super().__init__(n_outputs=1)
        self.drops = 0

    def push(self, port: int, packet: Packet) -> None:
        header = packet.ip
        if header is None or not 0 < header.ttl <= 255:
            self.drops += 1
            self.router.trace_drop(packet, "bad_ip_header")
            return
        self.outputs[0].push(packet)


class DecIPTTL(Element):
    """Decrements TTL; expired packets leave on port 1 (for ICMPError).

    If port 1 is unconnected, expired packets are dropped, as Click
    does with a one-output DecIPTTL.
    """

    def __init__(self):
        super().__init__(n_outputs=2)
        self.expired = 0

    def push(self, port: int, packet: Packet) -> None:
        header = packet.ip
        if header.ttl <= 1:
            self.expired += 1
            if self.outputs[1].target is not None:
                self.outputs[1].push(packet)
            else:
                self.router.trace_drop(packet, "ttl_expired")
            return
        trace = self.router.sim.trace
        if trace.wants("fwd"):
            trace.log(
                "fwd", node=self.router.name, uid=packet.uid, ttl=header.ttl
            )
        packet.writable(IPv4Header).ttl -= 1
        self.outputs[0].push(packet)
