"""The IIAS assembly: everything from Figure 1 in one object.

Wraps an :class:`~repro.core.experiment.Experiment` (which owns the
slice and virtual topology) and adds the opt-in machinery: OpenVPN
ingress servers, NAPT egress points, and client opt-in — the full
life-of-a-packet path of Figure 2.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.click import NAPT
from repro.core.experiment import Experiment
from repro.core.virtual_network import VirtualNode
from repro.overlay.egress import configure_egress
from repro.overlay.ingress import OPENVPN_PORT, OpenVPNClient, OpenVPNServer
from repro.phys.node import PhysicalNode


class IIAS:
    """An "Internet In a Slice" running on a VINI deployment."""

    def __init__(self, experiment: Experiment):
        self.experiment = experiment
        self.network = experiment.network
        self.servers: Dict[str, OpenVPNServer] = {}
        self.egresses: Dict[str, NAPT] = {}

    # ------------------------------------------------------------------
    def _vnode(self, name: Union[str, VirtualNode]) -> VirtualNode:
        return self.network.nodes[name] if isinstance(name, str) else name

    def add_openvpn_server(
        self, vnode: Union[str, VirtualNode], port: int = OPENVPN_PORT
    ) -> OpenVPNServer:
        """Designate a virtual node as an ingress (Section 4.2.3)."""
        vnode = self._vnode(vnode)
        if vnode.name in self.servers:
            raise ValueError(f"{vnode.name} already runs an OpenVPN server")
        server = OpenVPNServer(vnode, port=port)
        self.servers[vnode.name] = server
        return server

    def configure_egress(self, vnode: Union[str, VirtualNode]) -> NAPT:
        """Designate a virtual node as a NAPT egress."""
        vnode = self._vnode(vnode)
        if vnode.name in self.egresses:
            raise ValueError(f"{vnode.name} is already an egress")
        napt = configure_egress(vnode)
        self.egresses[vnode.name] = napt
        return napt

    def opt_in(
        self, host: PhysicalNode, server: Union[str, OpenVPNServer]
    ) -> OpenVPNClient:
        """Connect an end host to an ingress server ("opt in"); the
        client dials the port the server listens on."""
        if isinstance(server, str):
            server = self.servers[server]
        client = OpenVPNClient(
            host, server.node.address, server_port=server.port
        )
        client.connect()
        return client

    def start(self) -> None:
        self.experiment.start()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<IIAS {self.experiment.name} ingress={list(self.servers)} "
            f"egress={list(self.egresses)}>"
        )
