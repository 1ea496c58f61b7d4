"""Static configuration fault checks, in the spirit of rcc.

rcc "detects faults by checking constraints that are based on a
high-level correctness specification". These are the checks that
matter before mirroring a network into VINI: dangling subnets, cost
and timer mismatches across a link, timers that differ between links,
OSPF-disabled backbone interfaces, duplicate router ids and addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.rcc.model import NetworkModel


@dataclass
class Fault:
    """One detected configuration fault."""

    severity: str  # "error" | "warning"
    router: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.router}: {self.message}"


def check_model(model: NetworkModel) -> List[Fault]:
    """Run all checks; returns the fault list (empty = clean)."""
    faults: List[Fault] = []
    faults.extend(_check_duplicate_addresses(model))
    faults.extend(_check_duplicate_router_ids(model))
    faults.extend(_check_dangling_subnets(model))
    faults.extend(_check_link_parameter_agreement(model))
    faults.extend(_check_one_timer_pair(model))
    faults.extend(_check_ospf_coverage(model))
    return faults


def _check_duplicate_addresses(model: NetworkModel) -> List[Fault]:
    faults = []
    seen: Dict[int, str] = {}
    for name, router in sorted(model.routers.items()):
        for iface in router.interfaces.values():
            if iface.address is None:
                continue
            key = int(iface.address)
            if key in seen and seen[key] != name:
                faults.append(
                    Fault(
                        "error",
                        name,
                        f"address {iface.address} also configured on {seen[key]}",
                    )
                )
            seen[key] = name
    return faults


def _check_duplicate_router_ids(model: NetworkModel) -> List[Fault]:
    faults = []
    seen: Dict[int, str] = {}
    for name, router in sorted(model.routers.items()):
        if router.ospf is None or router.ospf.router_id is None:
            continue
        key = int(router.ospf.router_id)
        if key in seen:
            faults.append(
                Fault(
                    "error",
                    name,
                    f"router-id {router.ospf.router_id} also used by {seen[key]}",
                )
            )
        seen[key] = name
    return faults


def _check_dangling_subnets(model: NetworkModel) -> List[Fault]:
    """An interface subnet with no counterpart is a dead link."""
    faults = []
    linked = set()
    for link in model.links:
        linked.add((link.router_a, link.iface_a.name))
        linked.add((link.router_b, link.iface_b.name))
    for name, router in sorted(model.routers.items()):
        for iface in router.interfaces.values():
            if iface.prefix is None or iface.shutdown:
                continue
            if iface.prefix.plen >= 31 or iface.prefix.plen == 30:
                if (name, iface.name) not in linked:
                    faults.append(
                        Fault(
                            "warning",
                            name,
                            f"{iface.name} ({iface.prefix}) has no neighbor",
                        )
                    )
    return faults


def _check_link_parameter_agreement(model: NetworkModel) -> List[Fault]:
    faults = []
    for link in model.links:
        if link.iface_a.ospf_cost != link.iface_b.ospf_cost:
            faults.append(
                Fault(
                    "warning",
                    link.router_a,
                    f"OSPF cost mismatch with {link.router_b} on {link.subnet}: "
                    f"{link.iface_a.ospf_cost} != {link.iface_b.ospf_cost}",
                )
            )
        for attr in ("hello_interval", "dead_interval"):
            a_val = getattr(link.iface_a, attr)
            b_val = getattr(link.iface_b, attr)
            if a_val != b_val:
                faults.append(
                    Fault(
                        "error",
                        link.router_a,
                        f"OSPF {attr.replace('_', '-')} mismatch with "
                        f"{link.router_b} on {link.subnet}: {a_val} != {b_val} "
                        "(adjacency will never form)",
                    )
                )
    return faults


def _check_one_timer_pair(model: NetworkModel) -> List[Fault]:
    """A mirror runs one hello/dead pair on every virtual link, so links
    that each agree with themselves must also agree with each other."""
    first = model.links[0] if model.links else None
    return [
        Fault(
            "error",
            link.router_a,
            f"OSPF hello/dead {link.timers} on {link.subnet} differ from "
            f"{first.timers} on {first.subnet}: a mirror runs one pair",
        )
        for link in model.links[1:]
        if link.timers != first.timers
    ]


def _check_ospf_coverage(model: NetworkModel) -> List[Fault]:
    """A backbone interface that is passive or not covered by a network
    statement forms no adjacency: the link is invisible to the IGP."""
    faults = []
    for link in model.links:
        for router_name, iface in (
            (link.router_a, link.iface_a),
            (link.router_b, link.iface_b),
        ):
            router = model.routers[router_name]
            if router.ospf is None:
                faults.append(
                    Fault("error", router_name, "no OSPF process configured")
                )
            elif iface not in router.ospf_interfaces():
                faults.append(
                    Fault(
                        "error",
                        router_name,
                        f"{iface.name} ({iface.address}) is passive or not "
                        "covered by any OSPF network statement",
                    )
                )
    return faults
