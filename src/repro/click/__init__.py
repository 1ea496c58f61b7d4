"""A Click-like modular router (user-space data plane).

IIAS uses "the Click modular software router as its virtual data plane"
(Section 4.2.1). This subpackage reproduces the pieces PL-VINI needs:
an element graph with push semantics, UDP tunnel elements that are the
links of the overlay, a FIB lookup element populated by the routing
daemon, an encapsulation table mapping next hops to tunnels, NAPT for
the egress, traffic shapers, and a drop element for controlled link
failures.

User-space forwarding has a cost: every packet pays the syscall tax the
paper measures (poll, recvfrom, sendto, and three gettimeofday calls at
~5 us each) plus a per-byte copy cost. That cost model -- charged to the
Click process on the node's CPU scheduler -- is what makes Click
forwarding CPU-bound at roughly one fifth of kernel rate (Table 2).
"""

from repro.click.element import Element, Port
from repro.click.router import ClickRouter
from repro.click.elements.basic import Discard, Paint
from repro.click.elements.checkip import CheckIPHeader, DecIPTTL
from repro.click.elements.classifier import IPClassifier
from repro.click.elements.icmperror import ICMPErrorElement
from repro.click.elements.lookup import RadixIPLookup
from repro.click.elements.loss import LossElement
from repro.click.elements.napt import NAPT
from repro.click.elements.queue import Shaper
from repro.click.elements.tap import FromTap, ToTap
from repro.click.elements.tunnel import EncapTable, UDPTunnel
from repro.click.elements.umlswitch import UMLSwitch

__all__ = [
    "CheckIPHeader",
    "ClickRouter",
    "DecIPTTL",
    "Discard",
    "Element",
    "EncapTable",
    "FromTap",
    "ICMPErrorElement",
    "IPClassifier",
    "LossElement",
    "NAPT",
    "Paint",
    "Port",
    "RadixIPLookup",
    "Shaper",
    "ToTap",
    "UDPTunnel",
    "UMLSwitch",
]
