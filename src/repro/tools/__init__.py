"""Measurement tools: the iperf / ping / traceroute / tcpdump of the paper.

Section 5's experiments are "run using iperf version 1.7.0" with
"ping, iperf, and tcpdump to measure the effects on data traffic."
These are working equivalents over the simulated stack: ping floods
with min/avg/max/mdev statistics, iperf's TCP multi-stream throughput
test and UDP constant-bit-rate jitter/loss test (RFC 1889 jitter
estimator, like the real tool), a traceroute that walks virtual hops,
and a tcpdump that timestamps segment arrivals for sequence plots.
"""

from repro.tools.ping import Ping, PingStats
from repro.tools.iperf import (
    IperfTCPClient,
    IperfTCPServer,
    IperfUDPClient,
    IperfUDPServer,
    TCPResult,
    UDPResult,
)
from repro.tools.tcpdump import Tcpdump
from repro.tools.traffic import CBRSource, FlashCrowd
from repro.tools.traceroute import Traceroute

__all__ = [
    "CBRSource",
    "FlashCrowd",
    "IperfTCPClient",
    "IperfTCPServer",
    "IperfUDPClient",
    "IperfUDPServer",
    "Ping",
    "PingStats",
    "TCPResult",
    "Tcpdump",
    "Traceroute",
    "UDPResult",
]
