"""The platform a router runs on: interfaces, message I/O, and the FEA.

XORP separates protocol logic from the machine it manages: daemons see
interfaces and send packets; route updates flow through the Forwarding
Engine Abstraction to whichever data plane is in use ("supported
forwarding engines include the Linux kernel routing table and the Click
modular software router (which is why we chose XORP for IIAS)",
Section 4.2.2).

The one implementation is ``VirtualNode`` (in :mod:`repro.core`), the
PL-VINI case: interfaces are UML virtual Ethernets over UDP tunnels,
and the FEA programs the Click FIB.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.net.addr import IPv4Address, Prefix, ip, prefix
from repro.net.packet import Packet
from repro.sim.engine import Simulator


class RouterInterface:
    """A router-visible interface (point-to-point in this reproduction)."""

    def __init__(
        self,
        name: str,
        address: Union[str, IPv4Address],
        pfx: Union[str, Prefix],
        cost: int = 1,
    ):
        self.name = name
        self.address = ip(address)
        self.prefix = prefix(pfx)
        self.cost = cost
        self.up = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RouterInterface {self.name} {self.address}/{self.prefix.plen} cost={self.cost}>"


class FEA:
    """Forwarding Engine Abstraction: the RIB's route sink.

    Subclasses program a concrete data plane. The base class records
    the routes it was given — useful on its own for tests.
    """

    def __init__(self):
        self.routes: Dict[Tuple[int, int], Tuple[Optional[IPv4Address], str]] = {}

    def install(
        self, pfx: Prefix, nexthop: Optional[IPv4Address], ifname: str
    ) -> None:
        self.routes[pfx.key] = (nexthop, ifname)

    def withdraw(self, pfx: Prefix) -> None:
        self.routes.pop(pfx.key, None)

    def clear(self) -> None:
        """Drop every RIB-programmed route (full-rebuild support)."""
        self.routes.clear()


class RoutingPlatform:
    """Abstract router platform used by the protocol daemons."""

    def __init__(self, sim: Simulator, name: str, fea: Optional[FEA] = None):
        self.sim = sim
        self.name = name
        self.fea = fea if fea is not None else FEA()
        self.interfaces: Dict[str, RouterInterface] = {}
        self._receivers: List[Callable[[RouterInterface, Packet], None]] = []

    # -- interface management -------------------------------------------
    def add_interface(self, iface: RouterInterface) -> RouterInterface:
        if iface.name in self.interfaces:
            raise ValueError(f"{self.name}: duplicate interface {iface.name!r}")
        self.interfaces[iface.name] = iface
        return iface

    def interface_for(self, address: Union[str, IPv4Address]) -> Optional[RouterInterface]:
        """The interface whose subnet contains ``address``."""
        addr = ip(address)
        for iface in self.interfaces.values():
            if addr in iface.prefix:
                return iface
        return None

    # -- message I/O ------------------------------------------------------
    def send(self, iface: RouterInterface, packet: Packet) -> None:
        raise NotImplementedError

    def register_receiver(
        self, callback: Callable[[RouterInterface, Packet], None]
    ) -> None:
        self._receivers.append(callback)

    def deliver(self, iface: RouterInterface, packet: Packet) -> None:
        for callback in list(self._receivers):
            callback(iface, packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
