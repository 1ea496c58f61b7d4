"""The UML switch element: Click's attachment to the control plane.

"Click exchanges Ethernet packets with the local UML instance via a
virtual switch (uml_switch) distributed with UML. We wrote a Click
element so that Click could connect to this virtual switch"
(Section 4.2.1). In this reproduction, the control plane (the XORP
process and its virtual interfaces) registers a handler; routing
protocol packets pushed into this element are charged to the *control*
process (UML + XORP cycles) and delivered up, and packets the control
plane emits are charged to the Click process and pushed down into the
data-plane graph — the decoupling of control and data planes that
Section 4.2.2 highlights.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.click.element import Element
from repro.net.packet import Packet
from repro.phys.process import Process

# UML adds measurable overhead per crossing (the paper cites ~15 % extra
# cost for forwarding in the UML kernel; control traffic is low-rate so
# a flat per-message cost suffices).
UML_CROSSING_COST = 30.0e-6


class UMLSwitch(Element):
    """Bidirectional adapter between Click and the UML control plane."""

    def __init__(self, control_cost: float = UML_CROSSING_COST):
        super().__init__(n_outputs=1)
        self.control_cost = control_cost
        self.control_process: Optional[Process] = None
        self.control_handler: Optional[Callable[[Packet], None]] = None
        self.up_packets = 0
        self.down_packets = 0

    def attach_control(
        self, process: Process, handler: Callable[[Packet], None]
    ) -> None:
        """Register the control plane (XORP-in-UML) endpoint."""
        self.control_process = process
        self.control_handler = handler

    def push(self, port: int, packet: Packet) -> None:
        """Data plane -> control plane (routing protocol input)."""
        if self.control_handler is None or self.control_process is None:
            self.router.trace_drop(packet, "no_control_plane")
            return
        self.up_packets += 1
        self.control_process.exec_after(
            self.control_cost, self.control_handler, packet
        )

    def inject(self, packet: Packet) -> None:
        """Control plane -> data plane (routing protocol output).

        Charged to the Click process like any other packet entering the
        graph.
        """
        self.down_packets += 1
        self.router.process.exec_after(
            self.router.per_packet_cost(packet), self._emit, packet
        )

    def _emit(self, packet: Packet) -> None:
        # The port is read when the CPU work completes: it may be re-pointed by then.
        self.outputs[0].push(packet)
