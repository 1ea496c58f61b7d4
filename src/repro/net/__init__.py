"""Network protocol foundations.

Addresses and prefixes, longest-prefix-match tables, packet headers
(IPv4 / UDP / TCP / ICMP), and transport protocols (UDP datagrams and
TCP Reno).
These are the building blocks shared by the physical substrate, the
Click data plane, and the XORP-style routing suite.
"""

from repro.net.addr import IPv4Address, Prefix, ip, prefix
from repro.net.packet import (
    ICMPHeader,
    IPv4Header,
    OpaquePayload,
    Packet,
    TCPHeader,
    UDPHeader,
)
from repro.net.trie import RadixTrie

__all__ = [
    "ICMPHeader",
    "IPv4Address",
    "IPv4Header",
    "OpaquePayload",
    "Packet",
    "Prefix",
    "RadixTrie",
    "TCPHeader",
    "UDPHeader",
    "ip",
    "prefix",
]
