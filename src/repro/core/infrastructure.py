"""The fixed physical infrastructure VINI manages.

A :class:`VINI` instance is the deployment: physical nodes (with their
CPUs and slices) at PoPs, physical links between them, address
assignment, and the underlying IP routing that carries tunnel traffic
between non-adjacent nodes. Experiments never touch this layer
directly — they get slices and virtual topologies embedded on top.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import networkx as nx

from repro.net.addr import Prefix, prefix
from repro.obs.archive import attach_from_env
from repro.phys.link import Link
from repro.phys.node import PhysicalNode, connect
from repro.phys.vserver import Slice
from repro.sim.engine import Simulator


class VINI:
    """The physical substrate: nodes, links, addressing, slices."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        seed: int = 0,
        backbone_block: Union[str, Prefix] = "198.32.154.0/24",
    ):
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.nodes: Dict[str, PhysicalNode] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self._subnets = prefix(backbone_block).subnets(31)
        self._slices: Dict[str, Slice] = {}

    # ------------------------------------------------------------------
    # Physical topology
    # ------------------------------------------------------------------
    def add_node(self, name: str, cpu_speed: float = 1.0) -> PhysicalNode:
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        node = PhysicalNode(self.sim, name, cpu_speed=cpu_speed)
        self.nodes[name] = node
        return node

    def connect(
        self,
        a: str,
        b: str,
        bandwidth: float = 1_000_000_000,
        delay: float = 0.001,
        queue_bytes: int = 256 * 1024,
    ) -> Link:
        key = (min(a, b), max(a, b))
        if key in self.links:
            raise ValueError(f"nodes {a} and {b} are already connected")
        link = connect(
            self.sim,
            self.nodes[a],
            self.nodes[b],
            bandwidth=bandwidth,
            delay=delay,
            subnet=next(self._subnets),
            queue_bytes=queue_bytes,
        )
        self.links[key] = link
        return link

    def link_between(self, a: str, b: str) -> Link:
        return self.links[(min(a, b), max(a, b))]

    # ------------------------------------------------------------------
    # Underlying IP routing
    # ------------------------------------------------------------------
    def install_underlay_routes(self, reroute_on_failure: bool = False) -> None:
        """Give every node a route to every other node's addresses.

        Static shortest paths (by propagation delay) — the "underlying
        IP network" that carries tunnel packets between non-adjacent
        VINI nodes. With ``reroute_on_failure`` the routes are
        recomputed when a physical link fails or recovers, modeling the
        masking behavior Section 3.1 warns about; the default leaves
        routes static so failures are exposed, which is what VINI
        wants for fate sharing.
        """
        self._compute_routes()
        if reroute_on_failure:
            for link in self.links.values():
                link.observe(lambda _link, _up: self._compute_routes())

    def _graph(self) -> nx.Graph:
        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        for (a, b), link in self.links.items():
            if link.up:
                graph.add_edge(a, b, weight=max(link.delay, 1e-9), link=link)
        return graph

    def _compute_routes(self) -> None:
        graph = self._graph()
        paths = dict(nx.all_pairs_dijkstra_path(graph))
        for src_name, node in self.nodes.items():
            reachable = paths.get(src_name, {})
            for dst_name, path in reachable.items():
                if dst_name == src_name or len(path) < 2:
                    continue
                next_name = path[1]
                link = self.link_between(src_name, next_name)
                out_iface = next(
                    iface
                    for iface in node.interfaces.values()
                    if iface.link is link
                )
                dst_node = self.nodes[dst_name]
                for iface in dst_node.interfaces.values():
                    if iface.address is None:
                        continue
                    host_route = Prefix(iface.address, 32)
                    existing = node.routes.get(host_route)
                    if existing is not None and existing.interface is out_iface:
                        continue
                    node.add_route(host_route, interface=out_iface)

    # ------------------------------------------------------------------
    # Slices
    # ------------------------------------------------------------------
    def create_slice(
        self,
        name: str,
        cpu_share: float = 1.0,
        cpu_reservation: float = 0.0,
        realtime: bool = False,
        cpu_cap=None,
    ) -> Slice:
        """Create an experiment slice (Section 4.1: slivers are made
        lazily as virtual nodes are placed on physical nodes)."""
        if name in self._slices:
            raise ValueError(f"duplicate slice {name!r}")
        slice_ = Slice(
            name,
            cpu_share=cpu_share,
            cpu_reservation=cpu_reservation,
            realtime=realtime,
            cpu_cap=cpu_cap,
        )
        self._slices[name] = slice_
        return slice_

    def run(self, until: Optional[float] = None) -> float:
        archive = attach_from_env(self.sim, until=until)
        result = self.sim.run(until=until)
        if archive is not None:
            archive.write()
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VINI nodes={len(self.nodes)} links={len(self.links)} slices={len(self._slices)}>"
