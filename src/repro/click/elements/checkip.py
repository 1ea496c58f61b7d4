"""IP header sanity and TTL handling elements."""

from __future__ import annotations

from repro.click.element import Element
from repro.net.packet import Packet


class CheckIPHeader(Element):
    """Drops packets without a (structurally valid) IPv4 header."""

    def __init__(self):
        super().__init__(n_outputs=1)

    def push(self, port: int, packet: Packet) -> None:
        header = packet.ip
        if header is None or not 0 < header.ttl <= 255:
            self.router.sim.trace.drop(packet, "bad_ip_header", self.router.name)
            return
        self.outputs[0].push(packet)


class DecIPTTL(Element):
    """Decrements TTL; expired packets leave on port 1 (for ICMPError).

    If port 1 is unconnected, expired packets are dropped, as Click
    does with a one-output DecIPTTL.
    """

    def __init__(self):
        super().__init__(n_outputs=2)

    def push(self, port: int, packet: Packet) -> None:
        header = packet.ip
        if header.ttl <= 1:
            if self.outputs[1].target is not None:
                self.outputs[1].push(packet)
            else:
                self.router.sim.trace.drop(packet, "ttl_expired", self.router.name)
            return
        sim = self.router.sim
        if sim.trace.wants("fwd"):
            sim.trace.log("fwd", node=self.router.name, uid=sim.uid(packet), ttl=header.ttl)
        header.ttl -= 1
        self.outputs[0].push(packet)
