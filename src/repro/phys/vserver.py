"""VServer-style slices.

PlanetLab isolates experiments in VServers: each *slice* is a network-
wide experiment container, and its per-node instance is a *sliver* with
its own processes, namespaces, tap device and port bindings
(Section 4.1.1). Resource isolation parameters (CPU share, reservation,
real-time priority) live on the slice and are inherited by the
processes it spawns — these are exactly the knobs the PL-VINI
experiments turn in Section 5.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.net.addr import IPv4Address, Prefix, ip, prefix
from repro.phys.node import PhysicalNode, TapDevice
from repro.phys.process import Process


class Slice:
    """A network-wide experiment container.

    Parameters
    ----------
    cpu_share:
        Fair-share weight of the slice's processes (default 1.0 — the
        PlanetLab "default share" used in the Table 4/5/6 baselines).
    cpu_reservation:
        Guaranteed CPU fraction (0.25 reproduces the paper's "25 % CPU
        reservation").
    realtime:
        Give the slice's processes Linux real-time priority.
    """

    def __init__(
        self,
        name: str,
        cpu_share: float = 1.0,
        cpu_reservation: float = 0.0,
        realtime: bool = False,
        cpu_cap=None,
    ):
        self.name = name
        self.cpu_share = cpu_share
        self.cpu_reservation = cpu_reservation
        self.realtime = realtime
        self.cpu_cap = cpu_cap
        self.slivers: List["Sliver"] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Slice {self.name} slivers={len(self.slivers)}>"


class Sliver:
    """A slice's presence on one physical node."""

    def __init__(self, node: PhysicalNode, slice_: Slice):
        self.node = node
        self.slice = slice_
        self.processes: List[Process] = []
        # Usually one tap per sliver (the PL-VINI model); embeddings
        # that place many virtual routers on one physical node (the
        # internet zoo) create one tap per virtual router.
        self.taps: List[TapDevice] = []
        # Per-sliver (tap address space) UDP port table; physical-side
        # ports go through the node-wide VNET instead.
        self._udp_ports: Dict[int, object] = {}
        slice_.slivers.append(self)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def create_process(
        self,
        name: str,
        share: Optional[float] = None,
        reservation: Optional[float] = None,
        realtime: Optional[bool] = None,
        cpu_cap: Optional[float] = None,
    ) -> Process:
        process = Process(
            self.node,
            f"{self.slice.name}.{name}",
            share=self.slice.cpu_share if share is None else share,
            reservation=(
                self.slice.cpu_reservation if reservation is None else reservation
            ),
            realtime=self.slice.realtime if realtime is None else realtime,
            cpu_cap=self.slice.cpu_cap if cpu_cap is None else cpu_cap,
            sliver=self,
        )
        self.processes.append(process)
        return process

    # ------------------------------------------------------------------
    # Tap device
    # ------------------------------------------------------------------
    @property
    def tap(self) -> Optional[TapDevice]:
        """The sliver's tap (the first, when there are several)."""
        return self.taps[0] if self.taps else None

    def create_tap(
        self,
        address: Union[str, IPv4Address],
        route_prefix: Union[str, Prefix] = "10.0.0.0/8",
        name: Optional[str] = None,
    ) -> TapDevice:
        if name is None:
            name = f"tap{len(self.taps)}"
        tap = TapDevice(self, ip(address), prefix(route_prefix), name=name)
        self.taps.append(tap)
        self.node._register_tap(tap)
        return tap

    # ------------------------------------------------------------------
    # Sliver-private UDP port space (overlay addresses)
    # ------------------------------------------------------------------
    def bind_udp(self, port: int, sock: object) -> None:
        if port in self._udp_ports:
            raise ValueError(
                f"port {port} already bound in slice {self.slice.name} on {self.node.name}"
            )
        self._udp_ports[port] = sock

    def unbind_udp(self, port: int, sock: object) -> None:
        if self._udp_ports.get(port) is sock:
            del self._udp_ports[port]

    def lookup_udp(self, port: int) -> Optional[object]:
        return self._udp_ports.get(port)

    def free_udp_port(self, start: int = 32768) -> int:
        port = start
        while port in self._udp_ports:
            port += 1
        return port

    @property
    def cpu_used(self) -> float:
        return sum(p.cpu_used for p in self.processes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Sliver {self.slice.name}@{self.node.name}>"
