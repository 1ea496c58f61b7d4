"""NAPT: the IIAS egress to the real Internet.

"IIAS's Click forwarder implements NAPT (Network Address and Port
Translation) to allow hosts participating in IIAS to exchange packets
with external hosts that have not opted-in (like a Web server). ...
This involves rewriting the source IP address of the packet to the
egress node's public IP address, and rewriting the source port to an
available local port" (Section 4.2.3). Return traffic addressed to the
rewritten (public IP, port) is intercepted and translated back.

Ports used for translations are genuinely reserved on the physical node
through VNET, so two slices' NATs can never collide — the isolation
requirement of Section 3.4 applied to the egress.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.click.element import Element
from repro.net.addr import IPv4Address, ip
from repro.net.packet import Packet, PROTO_TCP, PROTO_UDP
from repro.phys.vnet import PortConflictError

#: The public ports an egress translates to: NAPT_PORT_COUNT of them from
#: NAPT_PORT_BASE, each reserved through VNET when first used.
NAPT_PORT_BASE = 50000
NAPT_PORT_COUNT = 4096


class NAPT(Element):
    """Network address and port translator.

    Ports:
      input 0 / output 0: outbound (overlay -> Internet)
      input 1 / output 1: inbound (Internet -> overlay)
    """

    def __init__(self, public_addr: Union[str, IPv4Address]):
        super().__init__(n_outputs=2)
        self.public_addr = ip(public_addr)
        # (proto, private_addr, private_port, remote_addr, remote_port)
        #   -> public port
        self._forward: Dict[Tuple[int, int, int, int, int], int] = {}
        # (proto, public_port) -> (private_addr, private_port, remote, rport)
        self._reverse: Dict[Tuple[int, int], Tuple[IPv4Address, int, IPv4Address, int]] = {}
        self._intercepts: Dict[Tuple[int, int], object] = {}
        # (proto, public_port) -> SpanContext of the last spanned
        # outbound packet. Return traffic arrives as a *fresh* packet
        # from the external host (span=None); re-attaching the saved
        # context lets a flight cross the NAT: request and reply legs
        # stay one trace. Only populated while a recorder is enabled.
        self._spans: Dict[Tuple[int, int], object] = {}
        self.translated_out = 0
        self.translated_in = 0

    # ------------------------------------------------------------------
    def _ports_of(self, packet: Packet) -> Optional[Tuple[int, int, object]]:
        proto = packet.ip.proto
        if proto == PROTO_TCP and packet.tcp is not None:
            transport = packet.tcp
        elif proto == PROTO_UDP and packet.udp is not None:
            transport = packet.udp
        else:
            return None
        return proto, transport.sport, transport

    def _allocate(self, proto: int, key: Tuple[int, int, int, int, int]) -> Optional[int]:
        existing = self._forward.get(key)
        if existing is not None:
            return existing
        for port in range(NAPT_PORT_BASE, NAPT_PORT_BASE + NAPT_PORT_COUNT):
            if (proto, port) in self._reverse:
                continue
            try:
                intercept = self.router.node.raw_intercept(
                    self.router.process,
                    proto,
                    port,
                    self._return_traffic,
                    recv_cost=self.router.per_packet_cost,
                )
            except PortConflictError:
                continue  # port reserved by someone else: try the next
            self._forward[key] = port
            self._intercepts[(proto, port)] = intercept
            return port
        return None

    # ------------------------------------------------------------------
    def push(self, port: int, packet: Packet) -> None:
        if port == 0:
            self._outbound(packet)
        else:
            self._inbound(packet)

    def _outbound(self, packet: Packet) -> None:
        found = self._ports_of(packet)
        if found is None:
            self.router.sim.trace.drop(packet, "napt_unsupported_proto", self.router.name)
            return
        proto, sport, transport = found
        header = packet.ip
        dport = transport.dport
        key = (proto, int(header.src), sport, int(header.dst), dport)
        public_port = self._allocate(proto, key)
        if public_port is None:
            self.router.sim.trace.drop(packet, "napt_ports_exhausted", self.router.name)
            return
        self._reverse[(proto, public_port)] = (
            header.src,
            sport,
            header.dst,
            dport,
        )
        header.src = self.public_addr
        transport.sport = public_port
        self.translated_out += 1
        fr = self.router.sim.flight
        if fr.enabled and packet.span is not None:
            self._spans[(proto, public_port)] = packet.span
            fr.stage(packet, "click.napt", node=self.router.node.name)
        self.outputs[0].push(packet)

    def _return_traffic(self, packet: Packet) -> None:
        """VNET intercept handler: raw return packets from the Internet."""
        self.push(1, packet)

    def _inbound(self, packet: Packet) -> None:
        proto = packet.ip.proto
        transport = packet.tcp if proto == PROTO_TCP else packet.udp
        if transport is None:
            self.router.sim.trace.drop(packet, "napt_unsupported_proto", self.router.name)
            return
        public_port = transport.dport
        entry = self._reverse.get((proto, public_port))
        if entry is None:
            self.router.sim.trace.drop(packet, "napt_no_mapping", self.router.name)
            return
        private_addr, private_port, remote, _rport = entry
        if int(packet.ip.src) != int(remote):
            # Restricted-cone behavior: only the mapped remote may reply.
            self.router.sim.trace.drop(packet, "napt_wrong_remote", self.router.name)
            return
        packet.ip.dst = private_addr
        transport.dport = private_port
        self.translated_in += 1
        fr = self.router.sim.flight
        if fr.enabled:
            if packet.span is None:
                # Return leg of a spanned flight: re-attach the context
                # saved at egress so the reply continues the trace.
                packet.span = self._spans.get((proto, public_port))
            if packet.span is not None:
                fr.stage(packet, "click.napt", node=self.router.node.name)
        self.outputs[1].push(packet)

    # ------------------------------------------------------------------
    def mappings(self) -> int:
        return len(self._reverse)

    def close(self) -> None:
        for intercept in self._intercepts.values():
            intercept.close()
        self._intercepts.clear()
        self._spans.clear()
