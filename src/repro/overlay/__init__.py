"""IIAS: the "Internet In a Slice" architecture (Section 4.2).

The five components the paper enumerates: a forwarding engine (Click —
built into every :class:`~repro.core.virtual_network.VirtualNode`), a
control plane (XORP, ditto), an opt-in ingress (OpenVPN —
:mod:`repro.overlay.ingress`), an egress to the legacy Internet (NAPT —
:mod:`repro.overlay.egress`), and the distributed deployment
(:class:`~repro.core.infrastructure.VINI`). :class:`IIAS` assembles
them.
"""

from repro.overlay.egress import configure_egress
from repro.overlay.iias import IIAS
from repro.overlay.ingress import OpenVPNClient, OpenVPNServer

__all__ = [
    "IIAS",
    "OpenVPNClient",
    "OpenVPNServer",
    "configure_egress",
]
