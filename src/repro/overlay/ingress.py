"""OpenVPN-style opt-in ingress (Section 4.2.3).

"IIAS runs an OpenVPN server on a set of designated ingress nodes, and
hosts opt-in to a particular instance of IIAS by connecting an OpenVPN
client that diverts their traffic to the server." The client creates a
TUN device on the end host; packets the host sends into the overlay's
address space are encrypted (49 bytes of IP/UDP/OpenVPN framing on the
wire) and tunneled to the server, which strips the framing and injects
them into the Click data plane.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.core.virtual_network import FIB_FORWARD, VirtualNode
from repro.net.addr import IPv4Address, Prefix, ip
from repro.net.packet import OpaquePayload, Packet
from repro.phys.node import PhysicalNode
from repro.phys.sockets import APP_RECV_COST
from repro.phys.vserver import Slice

OPENVPN_PORT = 1194
# IP(20) + UDP(8) + OpenVPN data-channel framing (~21 with HMAC+IV)
VPN_OVERHEAD = 49
VPN_CRYPTO_COST = 8.0e-6  # per-packet encrypt/decrypt CPU


class _VPNEncap:
    """Server-side egress toward one connected client."""

    def __init__(self, server: "OpenVPNServer", client_real: IPv4Address, client_port: int):
        self.server = server
        self.client_real = client_real
        self.client_port = client_port

    def push(self, _port: int, packet: Packet) -> None:
        fr = self.server.sim.flight
        if fr.enabled and packet.span is not None:
            fr.stage(packet, "vpn.encap", node=self.server.vnode.name)
        self.server.sock.sendto(
            OpaquePayload(packet.wire_len + (VPN_OVERHEAD - 28), data=packet, tag="openvpn"),
            self.client_real,
            self.client_port,
        )


class OpenVPNServer:
    """An OpenVPN server on an IIAS ingress node.

    Clients that connect are leased an overlay address from
    ``client_pool``, a /26 carved from the overlay space near the node's
    tap; a host route for each client is installed in the node's Click
    FIB so return traffic finds its way back out the VPN.
    """

    def __init__(self, vnode: VirtualNode):
        self.vnode = vnode
        self.node = vnode.phys_node
        self.sim = vnode.sim
        self.client_pool = Prefix(int(vnode.tap_addr) & 0xFFFFFF00 | 0x40, 26)
        self._pool = iter(self.client_pool.hosts())
        self.process = vnode.sliver.create_process("openvpn")
        self.sock = self.node.udp_socket(
            self.process,
            port=OPENVPN_PORT,
            recv_cost=lambda pkt: VPN_CRYPTO_COST + APP_RECV_COST,
        )
        self.sock.on_receive = self._from_client
        # (real addr, real port) -> leased overlay address
        self.clients: Dict[tuple, IPv4Address] = {}
        # Advertise the client pool into the overlay IGP so remote
        # nodes (e.g. the NAPT egress handling return traffic) know to
        # route client addresses toward this ingress.
        ospf = vnode.xorp.ospf
        if ospf is not None:
            ospf.stub_prefixes.append((self.client_pool, 5))
            if ospf.started:
                ospf._originate()

    # ------------------------------------------------------------------
    def _lease(self, real_src: IPv4Address, sport: int) -> IPv4Address:
        key = (int(real_src), sport)
        leased = self.clients.get(key)
        if leased is None:
            leased = next(self._pool)
            self.clients[key] = leased
            # Return path: client/32 -> out through this VPN endpoint.
            encap_port = self.vnode.encap.add_output()
            self.vnode.encap.connect(_VPNEncap(self, real_src, sport), encap_port)
            self.vnode.encap.add_mapping(leased, encap_port)
            self.vnode.lookup.add_route(Prefix(leased, 32), leased, FIB_FORWARD)
            self.sim.trace.log(
                "vpn_lease", server=self.vnode.name, client=str(leased)
            )
        return leased

    def _from_client(self, outer: Packet, src: IPv4Address, sport: int) -> None:
        inner = outer.payload.data
        if not isinstance(inner, Packet):
            if outer.payload.tag == "openvpn-hello":
                self._lease(src, sport)
            return
        leased = self._lease(src, sport)
        # The client stamps its leased address as source (it learned it
        # at connect time); enforce it like OpenVPN's iroute check.
        if inner.ip is not None and int(inner.ip.src) != int(leased):
            inner.ip.src = leased
        # Inject into the data plane (FIB decides where it goes).
        fr = self.sim.flight
        if fr.enabled and inner.span is not None:
            fr.stage(inner, "vpn.ingress", node=self.vnode.name)
        self.vnode.click_process.exec_after(
            self.vnode.click.per_packet_cost(inner),
            self.vnode.elements_entry,
            inner,
            packet=inner,
        )

    def address_of(self, client: "OpenVPNClient") -> IPv4Address:
        return self.clients[(int(client.node.address), client.sock.local_port)]


class OpenVPNClient:
    """An end host opting in to an IIAS instance.

    The client owns a TUN-style hook: calling :meth:`send` diverts a
    packet into the overlay (applications on the host route overlay-
    destined traffic here); packets arriving back pop out of
    ``on_receive``.
    """

    def __init__(
        self,
        node: PhysicalNode,
        server_addr: Union[str, IPv4Address],
    ):
        self.node = node
        self.sim = node.sim
        self.server_addr = ip(server_addr)
        slice_ = Slice(f"vpn-{node.name}")
        self.sliver = node.create_sliver(slice_)
        self.process = self.sliver.create_process("openvpn-client")
        self.sock = node.udp_socket(
            self.process,
            recv_cost=lambda pkt: VPN_CRYPTO_COST + APP_RECV_COST,
        )
        self.sock.on_receive = self._from_server
        self.on_receive = None  # callable(Packet)
        self.overlay_addr: Optional[IPv4Address] = None

    def connect(self) -> None:
        """Handshake: announce ourselves so the server leases an address."""
        self.process.exec_after(
            VPN_CRYPTO_COST,
            self.sock.sendto,
            OpaquePayload(64, tag="openvpn-hello"),
            self.server_addr,
            OPENVPN_PORT,
        )

    def send(self, packet: Packet) -> None:
        """Divert an IP packet into the overlay via the VPN."""
        self.process.exec_after(
            VPN_CRYPTO_COST + APP_RECV_COST,
            self.sock.sendto,
            OpaquePayload(packet.wire_len + (VPN_OVERHEAD - 28), data=packet, tag="openvpn"),
            self.server_addr,
            OPENVPN_PORT,
        )

    def _from_server(self, outer: Packet, src: IPv4Address, sport: int) -> None:
        inner = outer.payload.data
        if not isinstance(inner, Packet):
            return
        if self.overlay_addr is None and inner.ip is not None:
            self.overlay_addr = inner.ip.dst
        if self.on_receive is not None:
            self.on_receive(inner)
