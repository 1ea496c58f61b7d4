"""VServer-style slices.

PlanetLab isolates experiments in VServers: each *slice* is a network-
wide experiment container, and its per-node instance is a *sliver* with
its own processes, namespaces and tap device (Section 4.1.1); the
ports it binds on its tap addresses live in the node's VNET table,
scoped by the slice's name. Resource isolation parameters (CPU share,
reservation, real-time priority) live on the slice and are inherited
by the processes it spawns — these are exactly the knobs the PL-VINI
experiments turn in Section 5.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.net.addr import IPv4Address, Prefix, ip, prefix
from repro.phys.node import PhysicalNode, TapDevice
from repro.phys.process import Process

#: The overlay prefix the kernel routes to a sliver's tap (PL-VINI's
#: 10.0.0.0/8), unless an experiment names another.
OVERLAY_PREFIX = "10.0.0.0/8"


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
        route_prefix: Union[str, Prefix] = OVERLAY_PREFIX,
        name: Optional[str] = None,
    ) -> TapDevice:
        if name is None:
            name = f"tap{len(self.taps)}"
        tap = TapDevice(self, ip(address), prefix(route_prefix), name=name)
        self.taps.append(tap)
        self.node._register_tap(tap)
        return tap

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Sliver {self.slice.name}@{self.node.name}>"
