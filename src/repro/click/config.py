"""A parser for the Click configuration language (the subset IIAS uses).

Real PL-VINI installs Click routers from configuration text; this
parser closes the loop with :func:`repro.overlay.config_gen.click_config`:
declarations (``name :: Class(config);``) and connections
(``a [1] -> [0] b;``, with chains ``a -> b -> c``) are parsed and
instantiated into a live :class:`~repro.click.router.ClickRouter`.

Element classes are resolved through a registry of factories; classes
that need host resources (FromTap/ToTap need the sliver's tap device)
take them from the ``context`` mapping, keyed by the device name in the
configuration text.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.click.element import Element
from repro.click.elements.basic import Counter, Discard, Paint, Tee
from repro.click.elements.checkip import CheckIPHeader, DecIPTTL
from repro.click.elements.classifier import IPClassifier
from repro.click.elements.loss import LossElement
from repro.click.elements.lookup import LinearIPLookup, RadixIPLookup
from repro.click.elements.queue import Queue, Shaper
from repro.click.elements.tap import FromTap, ToTap
from repro.click.elements.tunnel import EncapTable, UDPTunnel
from repro.click.elements.umlswitch import UMLSwitch
from repro.click.router import ClickRouter


class ClickConfigError(Exception):
    """The configuration text could not be parsed."""


def _split_args(config: str) -> List[str]:
    """Split a config string on top-level commas."""
    parts: List[str] = []
    depth = 0
    current = []
    for char in config:
        if char in "([":
            depth += 1
        elif char in ")]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


# ----------------------------------------------------------------------
# Factories: class name -> fn(config, context) -> Element
# ----------------------------------------------------------------------
def _make_udptunnel(config: str, _context) -> Element:
    args = _split_args(config)
    if len(args) < 2:
        raise ClickConfigError(f"UDPTunnel needs addr, port: {config!r}")
    remote_addr = args[0]
    remote_port = int(args[1])
    local_port = 0
    for arg in args[2:]:
        words = arg.split()
        if len(words) == 2 and words[0].upper() == "LOCAL_PORT":
            local_port = int(words[1])
    if not local_port:
        raise ClickConfigError(f"UDPTunnel needs LOCAL_PORT: {config!r}")
    return UDPTunnel(remote_addr, remote_port, local_port)


def _make_lookup(cls):
    def factory(config: str, _context) -> Element:
        routes = _split_args(config)
        element = cls(n_outputs=max(
            (int(r.split()[2]) for r in routes if r), default=0
        ) + 1 if routes and routes[0] else 1)
        for route in routes:
            if not route:
                continue
            words = route.split()
            if len(words) != 3:
                raise ClickConfigError(f"bad route {route!r}")
            prefix_text, gw_text, port_text = words
            gw = None if gw_text == "-" else gw_text
            element.add_route(prefix_text, gw, int(port_text))
        return element

    return factory


def _make_encap(config: str, _context) -> Element:
    entries = _split_args(config)
    element = EncapTable(n_outputs=0)
    for entry in entries:
        if not entry:
            continue
        match = re.match(r"^(\S+)\s*->\s*\[(\d+)\]$", entry)
        if match is None:
            raise ClickConfigError(f"bad encap entry {entry!r}")
        port = int(match.group(2))
        while len(element.outputs) <= port:
            element.add_output()
        element.add_mapping(match.group(1), port)
    return element


def _make_shaper(config: str, _context) -> Element:
    args = _split_args(config)
    rate_text = args[0]
    if rate_text.endswith("bps"):
        rate_text = rate_text[:-3]
    burst = 3000
    for arg in args[1:]:
        words = arg.split()
        if len(words) == 2 and words[0].upper() == "BURST":
            burst = int(words[1])
    return Shaper(float(rate_text), burst_bytes=burst)


def _make_loss(config: str, _context) -> Element:
    config = config.strip()
    if not config:
        return LossElement()
    words = config.split()
    if len(words) == 2 and words[0].upper() == "DROP":
        return LossElement(drop_prob=float(words[1]))
    raise ClickConfigError(f"bad LossElement config {config!r}")


def _make_tap(cls):
    def factory(config: str, context) -> Element:
        device = config.strip() or "tap0"
        tap = context.get(device)
        if tap is None:
            raise ClickConfigError(
                f"configuration references device {device!r}, not in context"
            )
        return cls(tap)

    return factory


def _literal(text: str) -> str:
    return text.strip().strip("'\"")


def _make_icmperror(config: str, _context) -> Element:
    from repro.click.elements.icmperror import ICMPErrorElement

    args = _split_args(config)
    if not args:
        raise ClickConfigError("ICMPErrorElement needs a source address")
    src = args[0]
    icmp_type = 11
    for arg in args[1:]:
        words = arg.split()
        if len(words) == 2 and words[0].upper() == "TYPE":
            icmp_type = int(words[1])
    return ICMPErrorElement(src, icmp_type)


REGISTRY: Dict[str, Callable[[str, dict], Element]] = {
    "ICMPErrorElement": _make_icmperror,
    "Counter": lambda c, _ctx: Counter(),
    "Discard": lambda c, _ctx: Discard(),
    "Tee": lambda c, _ctx: Tee(int(c) if c.strip() else 2),
    "Paint": lambda c, _ctx: Paint(_literal(c)),
    "CheckIPHeader": lambda c, _ctx: CheckIPHeader(),
    "DecIPTTL": lambda c, _ctx: DecIPTTL(),
    "IPClassifier": lambda c, _ctx: IPClassifier(*_split_args(c)),
    "RadixIPLookup": _make_lookup(RadixIPLookup),
    "LinearIPLookup": _make_lookup(LinearIPLookup),
    "EncapTable": _make_encap,
    "LossElement": _make_loss,
    "Shaper": _make_shaper,
    "Queue": lambda c, _ctx: Queue(int(c) if c.strip() else 1000),
    "UDPTunnel": _make_udptunnel,
    "UMLSwitch": lambda c, _ctx: UMLSwitch(),
    "FromTap": _make_tap(FromTap),
    "ToTap": _make_tap(ToTap),
}

_DECL_RE = re.compile(r"^(\w+)\s*::\s*(\w+)\((.*)\)$", re.DOTALL)
_HOP_RE = re.compile(r"^(?:\[(\d+)\]\s*)?(\w+)(?:\s*\[(\d+)\])?$")


def _statements(text: str) -> List[str]:
    """Strip comments and split on semicolons."""
    no_comments = re.sub(r"//[^\n]*", "", text)
    no_comments = re.sub(r"/\*.*?\*/", "", no_comments, flags=re.DOTALL)
    return [s.strip() for s in no_comments.split(";") if s.strip()]


def parse_click_config(
    text: str,
    router: ClickRouter,
    context: Optional[dict] = None,
) -> ClickRouter:
    """Instantiate a Click configuration into ``router``.

    ``context`` maps device names (e.g. ``"tap0"``) to host resources.
    """
    context = context or {}
    connections: List[Tuple[str, int, str, int]] = []
    for statement in _statements(text):
        declaration = _DECL_RE.match(statement)
        if declaration is not None:
            name, class_name, config = declaration.groups()
            factory = REGISTRY.get(class_name)
            if factory is None:
                raise ClickConfigError(f"unknown element class {class_name!r}")
            try:
                element = factory(config.strip(), context)
            except ValueError as exc:
                raise ClickConfigError(f"{statement!r}: {exc}") from exc
            router.add(name, element)
            continue
        if "->" in statement:
            hops = [h.strip() for h in statement.split("->")]
            parsed = []
            for hop in hops:
                match = _HOP_RE.match(hop)
                if match is None:
                    raise ClickConfigError(f"bad connection hop {hop!r}")
                in_port, name, out_port = match.groups()
                parsed.append(
                    (int(in_port) if in_port else 0, name,
                     int(out_port) if out_port else 0)
                )
            for (_ignored, src, src_out), (dst_in, dst, _next) in zip(parsed, parsed[1:]):
                connections.append((src, src_out, dst, dst_in))
            continue
        raise ClickConfigError(f"unparseable statement {statement!r}")
    for src, src_out, dst, dst_in in connections:
        if src not in router.elements or dst not in router.elements:
            missing = src if src not in router.elements else dst
            raise ClickConfigError(f"connection references unknown element {missing!r}")
        source = router.elements[src]
        # Port counts are implied by the wiring for table-like elements
        # (a lookup's output arity is however many ports the graph uses).
        while len(source.outputs) <= src_out:
            source.add_output()
        router.connect(src, dst, out_port=src_out, in_port=dst_in)
    return router
