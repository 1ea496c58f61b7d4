"""IOS-style configuration parser (the subset VINI experiments need)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.addr import IPv4Address, Prefix, ip
from repro.rcc.model import InterfaceConfig, NetworkModel, OSPFConfig, RouterConfig


class ConfigSyntaxError(Exception):
    """A line the parser could not understand."""

    def __init__(self, line_no: int, line: str, reason: str):
        super().__init__(f"line {line_no}: {reason}: {line!r}")
        self.line_no = line_no
        self.line = line


def _netmask_to_plen(mask_text: str) -> int:
    mask = int(ip(mask_text))
    plen = 0
    seen_zero = False
    for bit in range(31, -1, -1):
        if mask >> bit & 1:
            if seen_zero:
                raise ValueError(f"non-contiguous netmask {mask_text}")
            plen += 1
        else:
            seen_zero = True
    return plen


def _wildcard_to_plen(wildcard_text: str) -> int:
    wildcard = int(ip(wildcard_text))
    return _netmask_to_plen(str(IPv4Address(~wildcard & 0xFFFFFFFF)))


def parse_config(text: str) -> RouterConfig:
    """Parse one router's configuration."""
    router = RouterConfig()
    current_iface: Optional[InterfaceConfig] = None
    in_ospf = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        try:
            line = raw.rstrip()
            stripped = line.strip()
            if not stripped or stripped.startswith(("!", "#")):
                current_iface = None if stripped == "!" else current_iface
                if stripped == "!":
                    in_ospf = False
                continue
            indented = line[:1] in (" ", "\t")
            words = stripped.split()
            if not indented:
                current_iface = None
                in_ospf = False
                if words[0] == "hostname" and len(words) == 2:
                    router.hostname = words[1]
                elif words[0] == "interface" and len(words) == 2:
                    current_iface = InterfaceConfig(words[1])
                    router.interfaces[words[1]] = current_iface
                elif words[:2] == ["router", "ospf"] and len(words) == 3:
                    router.ospf = OSPFConfig(process_id=int(words[2]))
                    in_ospf = True
                else:
                    raise ConfigSyntaxError(line_no, raw, "unknown top-level statement")
                continue
            # Indented: belongs to the open block.
            if current_iface is not None:
                _parse_interface_line(router, current_iface, words, line_no, raw)
            elif in_ospf and router.ospf is not None:
                _parse_ospf_line(router.ospf, words, line_no, raw)
            else:
                raise ConfigSyntaxError(line_no, raw, "statement outside any block")
        except ValueError as err:
            # A value int(), float(), ip() or the mask check refused.
            raise ConfigSyntaxError(line_no, raw, str(err)) from None
    return router


def _parse_interface_line(
    router: RouterConfig,
    iface: InterfaceConfig,
    words: List[str],
    line_no: int,
    raw: str,
) -> None:
    if words[:2] == ["ip", "address"] and len(words) == 4:
        iface.address = ip(words[2])
        iface.prefix = Prefix(iface.address, _netmask_to_plen(words[3]))
    elif words[:3] == ["ip", "ospf", "cost"] and len(words) == 4:
        iface.ospf_cost = int(words[3])
    elif words[:3] == ["ip", "ospf", "hello-interval"] and len(words) == 4:
        iface.hello_interval = float(words[3])
    elif words[:3] == ["ip", "ospf", "dead-interval"] and len(words) == 4:
        iface.dead_interval = float(words[3])
    elif words == ["shutdown"]:
        iface.shutdown = True
    elif words[:1] == ["description"]:
        pass  # free text
    else:
        raise ConfigSyntaxError(line_no, raw, "unknown interface statement")


def _parse_ospf_line(
    ospf: OSPFConfig, words: List[str], line_no: int, raw: str
) -> None:
    if words[0] == "router-id" and len(words) == 2:
        ospf.router_id = ip(words[1])
    elif words[0] == "network" and len(words) == 5 and words[3] == "area":
        plen = _wildcard_to_plen(words[2])
        area = int(words[4].split(".")[-1]) if "." in words[4] else int(words[4])
        ospf.networks.append((Prefix(words[1], plen), area))
    elif words[0] == "passive-interface" and len(words) == 2:
        ospf.passive_interfaces.append(words[1])
    else:
        raise ConfigSyntaxError(line_no, raw, "unknown ospf statement")


def parse_configs(texts: List[str]) -> NetworkModel:
    """Parse many routers and infer the topology."""
    model = NetworkModel()
    for text in texts:
        router = parse_config(text)
        if not router.hostname:
            raise ValueError("router configuration missing a hostname")
        if router.hostname in model.routers:
            raise ValueError(f"duplicate hostname {router.hostname!r}")
        model.routers[router.hostname] = router
    model.infer_links()
    return model
