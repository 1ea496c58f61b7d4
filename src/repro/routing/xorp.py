"""The XORP router: platform + RIB + protocol daemons in one box.

"Each XORP instance then configures a forwarding table (FIB)
implemented in a Click process running outside of UML" (Section 4.2).
:class:`XORPRouter` is that instance: it owns the RIB, installs
connected routes for the platform's interfaces, and hosts whichever
daemons the experiment configures (OSPF, BGP, static). The
platform's FEA receives the winning routes.
"""

from __future__ import annotations

from typing import Optional

from repro.routing.bgp import BGPDaemon
from repro.routing.ospf import OSPFDaemon
from repro.routing.platform import RoutingPlatform
from repro.routing.rib import AdminDistance, RIB, RibRoute
from repro.routing.static import StaticRoutes


class XORPRouter:
    """One routing-software instance managing one forwarding engine."""

    def __init__(self, platform: RoutingPlatform):
        self.platform = platform
        self.sim = platform.sim
        self.rib = RIB(platform.fea, sim=platform.sim, name=platform.name)
        self.ospf: Optional[OSPFDaemon] = None
        self.bgp: Optional[BGPDaemon] = None
        self.static = StaticRoutes(platform, self.rib)
        self._started = False

    # ------------------------------------------------------------------
    def configure_ospf(self, router_id, **kwargs) -> OSPFDaemon:
        if self.ospf is not None:
            raise RuntimeError("OSPF already configured")
        self.ospf = OSPFDaemon(self.platform, self.rib, router_id, **kwargs)
        return self.ospf

    def configure_bgp(self, asn: int, router_id, **kwargs) -> BGPDaemon:
        if self.bgp is not None:
            raise RuntimeError("BGP already configured")
        self.bgp = BGPDaemon(self.sim, asn, router_id, rib=self.rib, **kwargs)
        return self.bgp

    # ------------------------------------------------------------------
    def refresh_connected(self) -> None:
        """(Re)install connected routes for every platform interface."""
        for iface in self.platform.interfaces.values():
            self.rib.update(
                RibRoute(
                    iface.prefix,
                    None,
                    iface.name,
                    "connected",
                    AdminDistance.CONNECTED,
                )
            )

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.refresh_connected()
        if self.ospf is not None:
            self.ospf.start()
        if self.bgp is not None:
            for session in self.bgp.sessions:
                session.start()

    def stop(self) -> None:
        self._started = False
        if self.ospf is not None:
            self.ospf.stop()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        daemons = [
            name
            for name, daemon in (("ospf", self.ospf), ("bgp", self.bgp))
            if daemon is not None
        ]
        return f"<XORPRouter {self.platform.name} daemons={daemons}>"
