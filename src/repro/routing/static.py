"""Static routes: the simplest RIB client."""

from __future__ import annotations

from typing import Optional, Union

from repro.net.addr import IPv4Address, Prefix, ip, prefix
from repro.routing.platform import RoutingPlatform
from repro.routing.rib import AdminDistance, RIB, RibRoute


class StaticRoutes:
    """Operator-configured routes at administrative distance 1."""

    def __init__(self, platform: RoutingPlatform, rib: RIB):
        self.platform = platform
        self.rib = rib

    def add(
        self,
        pfx: Union[str, Prefix],
        nexthop: Optional[Union[str, IPv4Address]] = None,
        ifname: Optional[str] = None,
    ) -> None:
        """Add a static route via ``nexthop`` and/or out ``ifname``.

        When only a next hop is given, the egress interface is resolved
        from the connected subnets.
        """
        gw = ip(nexthop) if nexthop is not None else None
        if ifname is None:
            if gw is None:
                raise ValueError("static route needs a nexthop or an interface")
            iface = self.platform.interface_for(gw)
            if iface is None:
                raise ValueError(f"nexthop {gw} is not on any connected subnet")
            ifname = iface.name
        self.rib.update(
            RibRoute(prefix(pfx), gw, ifname, "static", AdminDistance.STATIC)
        )

    def remove(self, pfx: Union[str, Prefix]) -> None:
        self.rib.withdraw(prefix(pfx), "static")
