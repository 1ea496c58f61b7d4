"""The parsed configuration model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.addr import IPv4Address, Prefix


@dataclass
class InterfaceConfig:
    """One ``interface`` block."""

    name: str
    address: Optional[IPv4Address] = None
    prefix: Optional[Prefix] = None
    ospf_cost: int = 1
    hello_interval: Optional[float] = None
    dead_interval: Optional[float] = None
    shutdown: bool = False


@dataclass
class OSPFConfig:
    """The ``router ospf`` block."""

    process_id: int = 1
    router_id: Optional[IPv4Address] = None
    networks: List[Tuple[Prefix, int]] = field(default_factory=list)  # (prefix, area)
    passive_interfaces: List[str] = field(default_factory=list)

    def covers(self, address: Optional[IPv4Address]) -> bool:
        if address is None:
            return False
        return any(address in pfx for pfx, _area in self.networks)


@dataclass
class RouterConfig:
    """Everything parsed from one router's configuration file."""

    hostname: str = ""
    interfaces: Dict[str, InterfaceConfig] = field(default_factory=dict)
    ospf: Optional[OSPFConfig] = None

    def ospf_interfaces(self) -> List[InterfaceConfig]:
        if self.ospf is None:
            return []
        return [
            iface
            for iface in self.interfaces.values()
            if not iface.shutdown
            and iface.name not in self.ospf.passive_interfaces
            and self.ospf.covers(iface.address)
        ]


@dataclass
class LinkModel:
    """A link inferred from two interfaces sharing a subnet."""

    router_a: str
    iface_a: InterfaceConfig
    router_b: str
    iface_b: InterfaceConfig
    subnet: Prefix

    @property
    def cost(self) -> int:
        # Asymmetric costs are legal in OSPF; the virtual-link model is
        # symmetric, so take the maximum (a fault check flags mismatch).
        return max(self.iface_a.ospf_cost, self.iface_b.ospf_cost)

    @property
    def timers(self) -> Tuple[Optional[float], Optional[float]]:
        # Side a's (hello, dead); a fault check flags a side b that differs.
        return self.iface_a.hello_interval, self.iface_a.dead_interval


@dataclass
class NetworkModel:
    """The whole parsed network."""

    routers: Dict[str, RouterConfig] = field(default_factory=dict)
    links: List[LinkModel] = field(default_factory=list)

    def infer_links(self) -> None:
        """Match interface subnets across routers into links.

        Links come out in subnet order with the lower address as side
        ``a``, so the order the configurations were handed over in
        cannot move a link, an address or a cost.
        """
        by_subnet: Dict[Tuple[int, int], List[Tuple[str, InterfaceConfig]]] = {}
        for name, router in self.routers.items():
            for iface in router.interfaces.values():
                if iface.prefix is None or iface.shutdown:
                    continue
                by_subnet.setdefault(iface.prefix.key, []).append((name, iface))
        self.links.clear()
        for _key, ends in sorted(by_subnet.items()):
            ends.sort(key=lambda end: int(end[1].address))
            (name_a, iface_a) = ends[0]
            for name_b, iface_b in ends[1:]:
                if name_b != name_a:
                    self.links.append(
                        LinkModel(name_a, iface_a, name_b, iface_b, iface_a.prefix)
                    )

    def link_between(self, a: str, b: str) -> Optional[LinkModel]:
        for link in self.links:
            if {link.router_a, link.router_b} == {a, b}:
                return link
        return None
