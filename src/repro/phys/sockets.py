"""Simulated kernel sockets.

Sockets are where user-space processes meet the kernel, and—critically
for Figure 6—where packets are *lost* when a process is starved of CPU:
each socket has a finite receive buffer, and datagrams that arrive while
the owning process has not yet executed its pending reads overflow and
are dropped, exactly the mechanism the paper identifies ("Click needs to
read them at a faster rate than they are arriving or else the UDP socket
buffer will overflow and the kernel will drop packets").
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.net.addr import IPv4Address, ip
from repro.net.packet import (
    IPv4Header,
    OpaquePayload,
    Packet,
    PROTO_UDP,
    UDPHeader,
)
from repro.phys.process import Process

DEFAULT_RCVBUF = 128 * 1024  # bytes, in the spirit of Linux 2.6 rmem_default
#: CPU seconds an application spends reading one packet from a socket or
#: a tap device, unless the owner brings its own cost model.
APP_RECV_COST = 5.0e-6


def default_recv_cost(_packet: Packet) -> float:
    """The default per-read cost: :data:`APP_RECV_COST` whatever the packet."""
    return APP_RECV_COST


class UDPSocket:
    """A UDP socket owned by a process.

    Parameters
    ----------
    owner:
        The process that reads this socket. Delivery of each datagram
        costs ``recv_cost(packet)`` seconds of the owner's CPU; until
        that work has executed the datagram occupies receive-buffer
        space.
    rcvbuf:
        Receive buffer size in bytes; overflow drops the datagram.
    scope:
        The VNET address space the port is bound in: ``None`` for the
        node's own addresses, the owner's slice name for its tap
        addresses (whose sends then take the sliver's routing context).
    """

    def __init__(
        self,
        node: "PhysicalNode",  # noqa: F821
        owner: Process,
        local_addr: IPv4Address,
        local_port: int,
        rcvbuf: int = DEFAULT_RCVBUF,
        recv_cost: Optional[Callable[[Packet], float]] = None,
        scope: Optional[str] = None,
    ):
        self.node = node
        self.owner = owner
        self.local_addr = local_addr
        self.local_port = local_port
        self.rcvbuf = rcvbuf
        self.recv_cost = recv_cost or default_recv_cost
        self.scope = scope
        self.sliver = owner.sliver if scope is not None else None
        self.on_receive: Optional[Callable[[Packet, IPv4Address, int], None]] = None
        self.pending_bytes = 0
        self.closed = False

    # ------------------------------------------------------------------
    # Transmit
    # ------------------------------------------------------------------
    def sendto(
        self,
        payload: Union[int, OpaquePayload],
        dst: Union[str, IPv4Address],
        dport: int,
    ) -> Packet:
        """Send a datagram. ``payload`` is a size or an OpaquePayload.

        CPU cost of the send is the *caller's* responsibility (charge it
        on the owning process before calling); the kernel-side transmit
        itself is modeled inside the node's output path.
        """
        if self.closed:
            raise RuntimeError("sendto on closed socket")
        if isinstance(payload, int):
            payload = OpaquePayload(payload)
        dst_addr = ip(dst)
        packet = Packet(
            IPv4Header(self.local_addr, dst_addr, PROTO_UDP),
            UDPHeader(self.local_port, dport),
            payload=payload,
        )
        if self.node.sim.flight.enabled:
            # A tunnel datagram carries the inner packet by reference
            # (OpaquePayload.data); share its span context so the
            # kernel/link stages of the outer hop stay on the flight.
            inner = payload.data
            if isinstance(inner, Packet) and inner.span is not None:
                packet.span = inner.span
        self.node.ip_output(packet, sliver=self.sliver)
        return packet

    # ------------------------------------------------------------------
    # Receive (called by the node's demux)
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Kernel-side delivery into the receive buffer."""
        size = packet.wire_len
        if self.closed or self.pending_bytes + size > self.rcvbuf:
            self.node.sim.trace.drop(
                packet, "sock_closed" if self.closed else "sock_overflow",
                self.node.name)
            return False
        fr = self.node.sim.flight
        self.pending_bytes += size
        if fr.enabled and packet.span is not None:
            fr.stage(packet, "cpu.wait", node=self.node.name)
        self.owner.exec_after(self.recv_cost(packet), self._deliver, packet, size, packet=packet)
        return True

    def _deliver(self, packet: Packet, size: int) -> None:
        self.pending_bytes -= size
        if self.closed:
            self.node.sim.trace.drop(packet, "sock_closed", self.node.name)
            return
        if self.on_receive is not None:
            ip_header = packet.ip
            udp_header = packet.udp
            self.on_receive(packet, ip_header.src, udp_header.sport)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.node.vnet.release(PROTO_UDP, self.local_port, self, self.scope)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<UDPSocket {self.node.name} {self.local_addr}:{self.local_port} "
            f"owner={self.owner.name}>"
        )


class RawIntercept:
    """A VNET raw port intercept.

    The NAPT egress needs return traffic from external hosts (arbitrary
    TCP/UDP packets addressed to the node's public IP on a rewritten
    port) delivered to the Click process as whole IP packets. VNET
    models this as a raw reservation: (proto, port) -> handler.
    """

    def __init__(
        self,
        node: "PhysicalNode",  # noqa: F821
        owner: Process,
        proto: int,
        port: int,
        handler: Callable[[Packet], None],
        recv_cost: Optional[Callable[[Packet], float]] = None,
    ):
        self.node = node
        self.owner = owner
        self.proto = proto
        self.port = port
        self.handler = handler
        self.recv_cost = recv_cost or default_recv_cost
        self.closed = False

    def enqueue(self, packet: Packet) -> bool:
        if self.closed:
            self.node.sim.trace.drop(packet, "sock_closed", self.node.name)
            return False
        fr = self.node.sim.flight
        if fr.enabled and packet.span is not None:
            fr.stage(packet, "cpu.wait", node=self.node.name)
        self.owner.exec_after(self.recv_cost(packet), self._deliver, packet, packet=packet)
        return True

    def _deliver(self, packet: Packet) -> None:
        if self.closed:
            self.node.sim.trace.drop(packet, "sock_closed", self.node.name)
        else:
            self.handler(packet)

    def close(self) -> None:
        self.closed = True
        self.node.vnet.release(self.proto, self.port, self)
