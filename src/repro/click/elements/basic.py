"""Basic plumbing elements: Counter, Discard, Tee."""

from __future__ import annotations

from repro.click.element import Element
from repro.net.packet import Packet


class Counter(Element):
    """Counts packets and bytes, then passes them through unchanged."""

    def __init__(self):
        super().__init__(n_outputs=1)
        self.packets = 0
        self.bytes = 0

    def push(self, port: int, packet: Packet) -> None:
        self.packets += 1
        self.bytes += packet.wire_len
        self.outputs[0].push(packet)

    def reset(self) -> None:
        self.packets = 0
        self.bytes = 0


class Discard(Element):
    """Silently drops everything (counts what it dropped)."""

    def __init__(self):
        super().__init__(n_outputs=0)
        self.packets = 0

    def push(self, port: int, packet: Packet) -> None:
        self.packets += 1


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


class Tee(Element):
    """Duplicates each packet to all output ports.

    Port 0 receives the original; other ports receive copies, matching
    Click's Tee semantics (cheapest path keeps the original).
    """

    def __init__(self, n_outputs: int = 2):
        if n_outputs < 1:
            raise ValueError("Tee needs at least one output")
        super().__init__(n_outputs=n_outputs)

    def push(self, port: int, packet: Packet) -> None:
        for index in range(1, len(self.outputs)):
            self.outputs[index].push(packet.copy())
        self.outputs[0].push(packet)
