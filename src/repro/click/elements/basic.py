"""Basic plumbing elements: Discard, Paint."""

from __future__ import annotations

from repro.click.element import Element
from repro.net.packet import Packet


class Discard(Element):
    """Silently drops everything."""

    def __init__(self):
        super().__init__(n_outputs=0)

    def push(self, port: int, packet: Packet) -> None:
        pass


class Paint(Element):
    """Stamps a 'paint' annotation on each packet (Click's Paint).

    IIAS uses paint to record which virtual interface (tunnel or tap) a
    packet entered on, so the control plane can attribute routing
    messages to the right adjacency.
    """

    def __init__(self, color):
        super().__init__(n_outputs=1)
        self.color = color

    def push(self, port: int, packet: Packet) -> None:
        packet.meta["paint"] = self.color
        self.outputs[0].push(packet)
