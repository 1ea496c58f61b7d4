"""Sample router configurations: the eleven Abilene routers.

Generates the IOS-style configuration files the Section 5.2 experiment
is "extracted from": one per PoP, with interfaces on shared /31s per
backbone link, latency-derived OSPF costs, and the experiment's
5 s / 10 s hello/dead timers (footnote 3). These texts are what
`repro.topologies.build_abilene_iias` parses to build the mirror, so
the timers and costs of every Fig 8 / Fig 9 run are the ones written
here.
"""

from __future__ import annotations

from typing import List

from repro.net.addr import IPv4Address, Prefix
from repro.topologies.abilene import ABILENE_LINKS, ABILENE_POPS, ospf_weight

HELLO_INTERVAL = 5
DEAD_INTERVAL = 10
BACKBONE_BLOCK = Prefix.parse("198.32.154.0/24")


def abilene_router_configs() -> List[str]:
    """IOS-style configuration text for each Abilene router."""
    subnets = BACKBONE_BLOCK.subnets(31)
    # Deterministic per-link addressing, in ABILENE_LINKS order.
    link_addrs = {}
    for (a, b), _delay in ABILENE_LINKS.items():
        subnet = next(subnets)
        hosts = list(subnet.hosts())
        link_addrs[(a, b)] = (subnet, hosts[0], hosts[1])
    wildcard = IPv4Address(~BACKBONE_BLOCK.mask & 0xFFFFFFFF)
    configs = []
    for index, pop in enumerate(ABILENE_POPS):
        lines = [f"hostname {pop}", "!"]
        iface_index = 0
        for (a, b), delay in ABILENE_LINKS.items():
            if pop not in (a, b):
                continue
            subnet, addr_a, addr_b = link_addrs[(a, b)]
            addr = addr_a if pop == a else addr_b
            other = b if pop == a else a
            lines.append(f"interface ge-0/{iface_index}/0")
            lines.append(f" description to {other}")
            lines.append(f" ip address {addr} {subnet.netmask}")
            lines.append(f" ip ospf cost {ospf_weight(delay)}")
            lines.append(f" ip ospf hello-interval {HELLO_INTERVAL}")
            lines.append(f" ip ospf dead-interval {DEAD_INTERVAL}")
            lines.append("!")
            iface_index += 1
        lines.append("router ospf 1")
        lines.append(f" router-id 10.255.0.{index + 1}")
        lines.append(f" network {BACKBONE_BLOCK.network} {wildcard} area 0")
        lines.append("!")
        configs.append("\n".join(lines) + "\n")
    return configs
