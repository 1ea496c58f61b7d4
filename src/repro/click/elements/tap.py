"""Tap device elements: the local ingress/egress of an IIAS node.

"Click reads and writes Ethernet packets to PL-VINI's local tap0
interface. Packets sent by local applications to a 10.0.0.0/8
destination are forwarded by the kernel to tap0 and are received by
Click. Likewise, Click writes packets destined for tap0's IP address to
the interface, injecting the packets into the kernel which delivers
them to the proper application" (Section 4.2.1).
"""

from __future__ import annotations

from repro.click.element import Element
from repro.net.packet import Packet
from repro.phys.node import TapDevice


class FromTap(Element):
    """Reads packets that local applications sent into the overlay."""

    def __init__(self, tap: TapDevice):
        super().__init__(n_outputs=1)
        self.tap = tap

    def initialize(self) -> None:
        self.tap.set_reader(
            self.router.process, self._read, read_cost=self.router.per_packet_cost
        )

    def _read(self, packet: Packet) -> None:
        self.outputs[0].push(packet)


class ToTap(Element):
    """Writes packets back into the kernel for local delivery."""

    def __init__(self, tap: TapDevice):
        super().__init__(n_outputs=0)
        self.tap = tap

    def push(self, port: int, packet: Packet) -> None:
        self.tap.write(packet)
