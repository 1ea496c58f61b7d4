"""XORP-style routing suite.

"IIAS uses the XORP open-source routing protocol suite as its control
plane. XORP implements a number of routing protocols, including BGP,
OSPF, RIP..." (Section 4.2.2). This subpackage reproduces the part of
that control plane the experiments run: protocol daemons (OSPFv2, BGP-4,
static) feeding a RIB that arbitrates by administrative distance and
pushes winning routes through a Forwarding Engine Abstraction (FEA) into
whatever data plane the router runs on — the Click FIB for IIAS virtual
nodes, or a node's kernel table.

The Section 6.1 BGP multiplexer (sharing one external BGP session among
many experiments) lives in :mod:`repro.routing.bgp_mux`.
"""

from repro.routing.platform import FEA, RouterInterface, RoutingPlatform
from repro.routing.rib import RIB, AdminDistance, RibRoute
from repro.routing.ospf import OSPFDaemon
from repro.routing.static import StaticRoutes
from repro.routing.bgp import BGPDaemon, BGPRoute, BGPSession, DirectTransport
from repro.routing.bgp_mux import BGPMultiplexer
from repro.routing.policy import (
    CUSTOMER,
    PEER,
    PROVIDER,
    GaoRexfordPolicy,
    is_valley_free,
)
from repro.routing.xorp import XORPRouter

__all__ = [
    "AdminDistance",
    "BGPDaemon",
    "BGPMultiplexer",
    "BGPRoute",
    "BGPSession",
    "CUSTOMER",
    "DirectTransport",
    "FEA",
    "GaoRexfordPolicy",
    "OSPFDaemon",
    "PEER",
    "PROVIDER",
    "RIB",
    "RibRoute",
    "RouterInterface",
    "RoutingPlatform",
    "StaticRoutes",
    "XORPRouter",
    "is_valley_free",
]
