"""IIAS egress: NAPT to the legacy Internet (Section 4.2.3).

"IIAS forwards packets destined for an external host to an egress
point, where they exit IIAS via NAPT. ... since the packets reaching
the external host bear the source address of the IIAS egress node,
return traffic is sent back to that node, where it is intercepted by
IIAS and forwarded back to the client."

:func:`configure_egress` turns a virtual node into that egress point:
it installs a NAPT element between the Click FIB's egress port and the
node's kernel, reserves the translation ports through VNET, routes
return traffic back into the overlay lookup, and installs a default
route so the whole overlay drains through this node.
"""

from __future__ import annotations

from repro.click import NAPT
from repro.click.elements.kernel import ToIPOutput
from repro.core.virtual_network import VirtualNode
from repro.net.addr import DEFAULT_ROUTE


def configure_egress(vnode: VirtualNode) -> NAPT:
    """Make ``vnode`` an IIAS egress. Returns the NAPT element."""
    click = vnode.click
    napt = click.add("napt", NAPT(public_addr=vnode.phys_node.address))
    to_kernel = click.add("to_kernel", ToIPOutput())
    # Rewire the FIB's egress port from the placeholder discard.
    vnode.lookup.outputs[2].connect(napt, replace=True)
    napt.connect(to_kernel, 0, 0)
    # Return traffic re-enters the overlay through the FIB.
    napt.connect(vnode.lookup, 1, 0)
    vnode.xorp.static.add("0.0.0.0/0", ifname="egress")
    # Advertise the default into the overlay's IGP so every other
    # virtual node drains external traffic toward this egress.
    ospf = vnode.xorp.ospf
    if ospf is not None:
        ospf.stub_prefixes.append((DEFAULT_ROUTE, 10))
        if ospf.started:
            ospf._originate()
    return napt
