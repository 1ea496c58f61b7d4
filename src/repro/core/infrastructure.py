"""The fixed physical infrastructure VINI manages.

A :class:`VINI` instance is the deployment: physical nodes (with their
CPUs and slices) at PoPs, physical links between them, address
assignment, and the underlying IP routing that carries tunnel traffic
between non-adjacent nodes. Experiments never touch this layer
directly — they get slices and virtual topologies embedded on top.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.net.addr import Prefix, prefix
from repro.phys.link import DEFAULT_BANDWIDTH, Link
from repro.phys.node import PhysicalNode, connect
from repro.phys.vserver import Slice
from repro.sim.engine import Simulator


def _first_links(
    adjacency: Dict[str, List[Tuple[str, float, Link]]], source: str
) -> Dict[str, Link]:
    """Dijkstra from ``source`` over ``adjacency`` (node -> its
    ``(neighbor, delay, link)`` list): the first link of a shortest path
    to every other reachable node, in the order nodes are settled.

    Ties keep the path found first (a node's distance is replaced only
    by a strictly shorter one), and equal heap keys pop in push order,
    so the tables depend on nothing but the adjacency lists' order.
    """
    first: Dict[str, Link] = {}  # settled node -> its first link
    seen = {source: 0.0}
    pushes = count()
    heap = [(0.0, next(pushes), source, None)]
    while heap:
        dist, _, name, via = heappop(heap)
        if name in first:
            continue
        first[name] = via
        for neighbor, delay, link in adjacency[name]:
            d = dist + delay
            if neighbor in first or d >= seen.get(neighbor, float("inf")):
                continue
            seen[neighbor] = d
            heappush(heap, (d, next(pushes), neighbor, via or link))
    del first[source]
    return first


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
        # The timetable: (time, plan name, FaultAction, the Experiment
        # whose overlay it acts on or None) per installed fault-plan
        # firing, in scheduling order (repro.faults.plan).
        self.faults: List[Tuple[float, str, Any, Any]] = []

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
        bandwidth: float = DEFAULT_BANDWIDTH,
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
    def install_underlay_routes(self) -> None:
        """Give every node a route to every other node's addresses.

        Static shortest paths (by propagation delay) — the "underlying
        IP network" that carries tunnel packets between non-adjacent
        VINI nodes. The routes stay static when a physical link fails,
        so failures are exposed to the experiments above instead of
        masked (the rerouting Section 3.1 warns about): fate sharing is
        what VINI wants.
        """
        adjacency = {name: [] for name in self.nodes}
        for (a, b), link in self.links.items():
            if link.up:
                delay = max(link.delay, 1e-9)
                adjacency[a].append((b, delay, link))
                adjacency[b].append((a, delay, link))
        for src_name, node in self.nodes.items():
            out_iface_of = {i.link: i for i in node.interfaces.values()}
            for dst_name, link in _first_links(adjacency, src_name).items():
                out_iface = out_iface_of[link]
                for iface in self.nodes[dst_name].interfaces.values():
                    if iface.address is None:
                        continue
                    host_route = Prefix(iface.address, 32)
                    existing = node.routes.get(host_route)
                    if existing is not None and existing.interface is out_iface:
                        continue
                    node.add_route(host_route, interface=out_iface)

    def underlay_path(self, src: str, dst: str) -> Optional[List[str]]:
        """The physical nodes a packet from ``src`` to ``dst`` crosses, hop
        by hop down the tables :meth:`install_underlay_routes` fills (the
        ones packets are forwarded by); None where a table has no route."""
        node, target, path = self.nodes[src], self.nodes[dst], [src]
        while node is not target:
            found = (node.routes.lookup_entry(target.address)
                     if target.interfaces else None)
            if found is None or len(path) > len(self.nodes):
                return None
            iface = found[1].interface
            node = iface.link.other_end(iface).node
            path.append(node.name)
        return path

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
        return self.sim.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VINI nodes={len(self.nodes)} links={len(self.links)} slices={len(self._slices)}>"
