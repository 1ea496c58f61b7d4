"""IPClassifier: pattern-matching demultiplexer.

Supports the subset of Click's IPClassifier pattern language that the
IIAS configurations need::

    proto udp            match the IP protocol
    proto tcp
    proto icmp
    udp dport 5000       protocol + destination port
    tcp sport 179        protocol + source port
    dst 10.0.0.0/8       destination inside a prefix
    src 10.1.2.3         source address (a /32)
    -                    match everything (usually the last pattern)

Multiple clauses in one pattern are ANDed: ``"proto udp dst 10.0.0.0/8"``.
The packet leaves on the output port of the first matching pattern;
non-matching packets are dropped (like Click, where an unmatched packet
is discarded unless a ``-`` catch-all is given).

Patterns are checked when the element is built (a missing or
out-of-range operand is a ``ValueError`` naming the pattern) and
compiled to ``matcher(packet, header)``: ``push`` reads the packet's
outermost IPv4 header once and every clause of every pattern tests
that one object.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro.click.element import Element
from repro.net.addr import prefix
from repro.net.packet import IPv4Header, Packet, PROTO_ICMP, PROTO_TCP, PROTO_UDP

_PROTO_NAMES = {"udp": PROTO_UDP, "tcp": PROTO_TCP, "icmp": PROTO_ICMP, "ospf": 89}

Matcher = Callable[[Packet, Optional[IPv4Header]], bool]


def _compile(pattern: str) -> Matcher:
    pattern = pattern.strip()
    if pattern == "-":
        return lambda packet, header: True
    tokens = deque(pattern.split())

    def operand(of: str, limit: Optional[int] = None):
        """The next token, as an int in 0..``limit`` when one is given."""
        if not tokens:
            raise ValueError(f"classifier pattern {pattern!r}: {of!r} needs an operand")
        text = tokens.popleft()
        if limit is None:
            return text
        if not text.isdigit() or int(text) > limit:
            raise ValueError(f"classifier pattern {pattern!r}: {of} {text!r} is not in 0..{limit}")
        return int(text)

    checks: List[Matcher] = []
    while tokens:
        word = tokens.popleft()
        if word in _PROTO_NAMES and tokens and tokens[0] in ("dport", "sport"):
            field = tokens.popleft()
            if word not in ("tcp", "udp"):
                raise ValueError(f"classifier pattern {pattern!r}: {word} has no {field}")
            port = operand(f"{word} {field}", 65535)

            def check(p, h, proto=_PROTO_NAMES[word], field=field, port=port):
                if h is None or h.proto != proto:
                    return False
                transport = p.tcp if proto == PROTO_TCP else p.udp
                return transport is not None and getattr(transport, field) == port

            checks.append(check)
        elif word == "proto" or word in _PROTO_NAMES:
            if word == "proto" and tokens and tokens[0] in _PROTO_NAMES:
                word = tokens.popleft()
            proto = _PROTO_NAMES[word] if word in _PROTO_NAMES else operand(word, 255)
            checks.append(lambda p, h, proto=proto: h is not None and h.proto == proto)
        elif word in ("dst", "src"):
            pfx = prefix(operand(word))
            checks.append(
                lambda p, h, pfx=pfx, attr=word: h is not None and getattr(h, attr) in pfx
            )
        else:
            raise ValueError(f"unrecognized classifier token {word!r} in {pattern!r}")
    if not checks:
        raise ValueError(f"empty classifier pattern {pattern!r}")
    if len(checks) == 1:
        return checks[0]
    return lambda packet, header: all(check(packet, header) for check in checks)


class IPClassifier(Element):
    """Route packets to the port of their first matching pattern."""

    def __init__(self, *patterns: str):
        if not patterns:
            raise ValueError("IPClassifier needs at least one pattern")
        super().__init__(n_outputs=len(patterns))
        self.patterns = patterns
        self._matchers = [_compile(p) for p in patterns]
        self.unmatched = 0

    def push(self, port: int, packet: Packet) -> None:
        header = packet.ip
        for index, matcher in enumerate(self._matchers):
            if matcher(packet, header):
                self.outputs[index].push(packet)
                return
        self.unmatched += 1
        self.router.trace_drop(packet, "classifier_unmatched")
