"""ToIPOutput: hand packets from Click to the node's kernel.

The NAPT egress path ends here: after translation, "Click then directs
the packet to www.cnn.com via the public Internet" — i.e. a raw send
through the host's routing table and physical interfaces.
"""

from __future__ import annotations

from repro.click.element import Element
from repro.net.packet import Packet


class ToIPOutput(Element):
    """Sink that injects packets into the physical node's IP output."""

    def __init__(self):
        super().__init__(n_outputs=0)

    def push(self, port: int, packet: Packet) -> None:
        # No sliver context: this is the real Internet path, not the
        # overlay.
        self.router.node.ip_output(packet, sliver=None)
