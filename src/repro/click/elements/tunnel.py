"""UDP tunnels and the encapsulation table — the links of the overlay.

"UDP tunnels (i.e., sockets) are the links in the IIAS overlay network.
Each Click instance is configured with tunnels to each of its
neighbors" (Section 4.2.1). The encapsulation table "matches the next
hop selected by the forwarding table to a UDP tunnel by mapping it to
the public IP address of a PlanetLab node."

A :class:`UDPTunnel` owns a real (simulated) UDP socket on the physical
node. Packets pushed into it are carried as the payload of a UDP
datagram (28 bytes of outer IP+UDP headers on the wire — the true
encapsulation overhead); datagrams received on the socket are
decapsulated and pushed out port 0.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.click.element import Element
from repro.net.addr import IPv4Address, ip
from repro.net.packet import OpaquePayload, Packet

#: Receive buffer of every tunnel socket: tuned up from the socket
#: default, as deployments do for tunnels.
TUNNEL_RCVBUF = 256 * 1024


class UDPTunnel(Element):
    """One point-to-point UDP tunnel to a neighboring overlay node."""

    def __init__(
        self,
        remote_addr: Union[str, IPv4Address],
        remote_port: int,
        local_port: int,
    ):
        super().__init__(n_outputs=1)
        self.remote_addr = ip(remote_addr)
        self.remote_port = remote_port
        self.local_port = local_port
        self.sock = None
        self.tx_packets = 0
        self._sendto = None  # hot-path binding, made at initialize

    def initialize(self) -> None:
        self.sock = self.router.udp_socket(port=self.local_port, rcvbuf=TUNNEL_RCVBUF)
        self.sock.on_receive = self._incoming
        self._sendto = self.sock.sendto
        # A physical node's element names repeat across the virtual
        # routers it hosts; its UDP ports cannot (VNet.reserve).
        self.router.sim.metrics.counter(
            "click.tunnel.tx_pkts", fn=lambda: self.tx_packets,
            node=self.router.node.name, element=self.name,
            port=self.local_port)

    def push(self, port: int, packet: Packet) -> None:
        """Encapsulate and transmit toward the remote tunnel endpoint."""
        self.tx_packets += 1
        fr = self.router.sim.flight
        if fr.enabled and packet.span is not None:
            fr.stage(packet, "tunnel.encap", node=self.router.node.name)
        self._sendto(
            OpaquePayload(packet.wire_len, data=packet, tag="tunnel"),
            self.remote_addr,
            self.remote_port,
        )

    def _incoming(self, outer: Packet, src: IPv4Address, sport: int) -> None:
        inner = outer.payload.data
        if not isinstance(inner, Packet):
            self.router.sim.trace.drop(outer, "tunnel_garbage", self.router.name)
            return
        fr = self.router.sim.flight
        if fr.enabled and inner.span is not None:
            # The inner packet traveled by reference inside the outer
            # datagram, so its span context survived encapsulation.
            fr.stage(inner, "tunnel.decap", node=self.router.node.name)
        self.outputs[0].push(inner)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()


class EncapTable(Element):
    """Maps the next-hop annotation to the right tunnel (output port).

    The forwarding table's next hops are addresses of *virtual*
    interfaces on neighboring nodes; this preconfigured table resolves
    them to tunnels (here: output ports, each wired to a UDPTunnel).
    """

    def __init__(self):
        super().__init__(n_outputs=0)  # one per tunnel, by add_output
        self._table: Dict[int, int] = {}

    def add_mapping(self, gw: Union[str, IPv4Address], port: int) -> None:
        if not 0 <= port < len(self.outputs):
            raise ValueError(f"port {port} out of range for {len(self.outputs)} outputs")
        self._table[int(ip(gw))] = port

    def mapping(self) -> Dict[int, int]:
        return dict(self._table)

    def push(self, port: int, packet: Packet) -> None:
        gw: Optional[IPv4Address] = packet.meta.get("gw")
        if gw is None:
            self.router.sim.trace.drop(packet, "no_gw_annotation", self.router.name)
            return
        out = self._table.get(int(gw))
        if out is None:
            self.router.sim.trace.drop(packet, "no_encap_entry", self.router.name)
            return
        self.outputs[out].push(packet)
