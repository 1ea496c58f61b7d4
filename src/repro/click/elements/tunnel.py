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
        self.rcvbuf = 256 * 1024  # tuned up, as deployments do for tunnels
        self.sock = None
        self.tx_packets = 0
        self.rx_packets = 0
        self._sendto = None  # hot-path binding, made at initialize

    def initialize(self) -> None:
        self.sock = self.router.udp_socket(port=self.local_port, rcvbuf=self.rcvbuf)
        self.sock.on_receive = self._incoming
        self._sendto = self.sock.sendto
        metrics = self.router.sim.metrics
        labels = dict(node=self.router.node.name, element=self.name)
        metrics.counter("click.tunnel.tx_pkts", fn=lambda: self.tx_packets, **labels)
        metrics.counter("click.tunnel.rx_pkts", fn=lambda: self.rx_packets, **labels)

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
            self.router.trace_drop(outer, "tunnel_garbage")
            return
        self.rx_packets += 1
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

    def __init__(self, n_outputs: int = 1):
        super().__init__(n_outputs=n_outputs)
        self._table: Dict[int, int] = {}

    def add_mapping(self, gw: Union[str, IPv4Address], port: int) -> None:
        if not 0 <= port < len(self.outputs):
            raise ValueError(f"port {port} out of range for {len(self.outputs)} outputs")
        self._table[int(ip(gw))] = port

    def remove_mapping(self, gw: Union[str, IPv4Address]) -> None:
        self._table.pop(int(ip(gw)), None)

    def mapping(self) -> Dict[int, int]:
        return dict(self._table)

    def push(self, port: int, packet: Packet) -> None:
        gw: Optional[IPv4Address] = packet.meta.get("gw")
        if gw is None:
            self.router.trace_drop(packet, "no_gw_annotation")
            return
        out = self._table.get(int(gw))
        if out is None:
            self.router.trace_drop(packet, "no_encap_entry")
            return
        self.outputs[out].push(packet)
