"""Property test: IPClassifier against the body it replaced.

``_compile`` now produces ``matcher(packet, header)`` and ``push`` reads
``packet.ip`` once per packet; a single-clause pattern is its clause,
not an ``all()`` over a one-element generator. The oracle is
:class:`ReferenceClassifier` below — ``_compile`` and the element as
they stood at commit 8715f4b, verbatim but for the names: one-argument
matchers, every clause calling ``p.ip`` for itself (twice).

Hypothesis draws classifiers over the whole pattern grammar (``proto``
by name and by number, bare protocol names, ``tcp``/``udp`` with
``dport``/``sport``, ``dst``/``src`` prefixes and bare addresses, ``-``
anywhere in the list, one to three ANDed clauses) and packets built to
tell "the outermost header of a type" from any other reading: no IP
header at all, a transport header with no IP in front of it, an
Ethernet outer, one and two levels of IP-in-UDP tunnelling with
different protocols, addresses and ports at each level, a protocol
field that names a transport the stack does not carry, OSPF/ICMP/GRE.
Half the packets are copy-on-write clones. Both classifiers must send
the packet out of the same port or drop it for the same reason, count
the same ``unmatched`` — and leave a shared clone shared: a classifier
only reads.
"""

from typing import Callable, List

import pytest

from repro.click import IPClassifier
from repro.click.element import Element
from repro.net.addr import prefix
from repro.net.packet import (
    EthernetHeader,
    ICMPHeader,
    IPv4Header,
    OpaquePayload,
    Packet,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCPHeader,
    UDPHeader,
)
from tests.click.conftest import Sink, StubRouter
from tests.conftest import battery

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

_PROTO_NAMES = {"udp": PROTO_UDP, "tcp": PROTO_TCP, "icmp": PROTO_ICMP, "ospf": 89}


# ---------------------------------------------------------------------
# src/repro/click/elements/classifier.py at 8715f4b, verbatim (renamed)
# ---------------------------------------------------------------------
def reference_compile(pattern: str) -> Callable[[Packet], bool]:
    pattern = pattern.strip()
    if pattern == "-":
        return lambda packet: True
    tokens = pattern.split()
    checks: List[Callable[[Packet], bool]] = []
    index = 0
    while index < len(tokens):
        word = tokens[index]
        if word == "proto":
            proto = _PROTO_NAMES.get(tokens[index + 1])
            if proto is None:
                proto = int(tokens[index + 1])
            checks.append(lambda p, proto=proto: p.ip is not None and p.ip.proto == proto)
            index += 2
        elif word in _PROTO_NAMES and index + 2 <= len(tokens) - 1 and tokens[index + 1] in ("dport", "sport"):
            proto = _PROTO_NAMES[word]
            field = tokens[index + 1]
            port = int(tokens[index + 2])
            def check(p, proto=proto, field=field, port=port):
                if p.ip is None or p.ip.proto != proto:
                    return False
                transport = p.tcp if proto == PROTO_TCP else p.udp
                if transport is None:
                    return False
                return getattr(transport, field) == port
            checks.append(check)
            index += 3
        elif word in _PROTO_NAMES:
            proto = _PROTO_NAMES[word]
            checks.append(lambda p, proto=proto: p.ip is not None and p.ip.proto == proto)
            index += 1
        elif word in ("dst", "src"):
            pfx = prefix(tokens[index + 1])
            attr = word
            checks.append(
                lambda p, pfx=pfx, attr=attr: p.ip is not None
                and getattr(p.ip, attr) in pfx
            )
            index += 2
        else:
            raise ValueError(f"unrecognized classifier token {word!r} in {pattern!r}")
    if not checks:
        raise ValueError(f"empty classifier pattern {pattern!r}")
    return lambda packet: all(check(packet) for check in checks)


class ReferenceClassifier(Element):
    """Route packets to the port of their first matching pattern."""

    def __init__(self, *patterns: str):
        if not patterns:
            raise ValueError("IPClassifier needs at least one pattern")
        super().__init__(n_outputs=len(patterns))
        self.patterns = patterns
        self._matchers = [reference_compile(p) for p in patterns]
        self.unmatched = 0

    def push(self, port: int, packet: Packet) -> None:
        for index, matcher in enumerate(self._matchers):
            if matcher(packet):
                self.output(index).push(packet)
                return
        self.unmatched += 1
        self.router.trace_drop(packet, "classifier_unmatched")


# ---------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------
PORTS = [179, 520, 6000]
ADDRS = ["10.0.0.1", "10.1.2.3", "10.1.2.4", "192.0.2.1", "198.51.100.7"]
PREFIXES = ["0.0.0.0/0", "10.0.0.0/8", "10.1.2.0/24", "10.1.2.3/32", "10.1.2.3",
            "192.0.2.0/24", "198.51.100.0/25"]
PROTOS = [PROTO_ICMP, PROTO_TCP, PROTO_UDP, 89, 47]

clauses = st.one_of(
    st.sampled_from(sorted(_PROTO_NAMES)).map(lambda name: f"proto {name}"),
    st.sampled_from(PROTOS + [0, 255]).map(lambda number: f"proto {number}"),
    st.sampled_from(sorted(_PROTO_NAMES)),
    st.tuples(st.sampled_from(["tcp", "udp"]), st.sampled_from(["dport", "sport"]),
              st.sampled_from(PORTS + [0, 65535])).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.tuples(st.sampled_from(["dst", "src"]), st.sampled_from(PREFIXES)).map(
        lambda t: f"{t[0]} {t[1]}"),
)
patterns = st.one_of(
    st.just("-"),
    st.lists(clauses, min_size=1, max_size=3).map("  ".join),
)


def clauses_about(packet: Packet) -> List[str]:
    """Clauses that the reference matches on this packet (blind draws
    rarely name the right port *and* address *and* protocol at once)."""
    header = packet.ip
    if header is None:
        return ["proto 0"]
    found = [f"proto {header.proto}", f"dst {header.dst}", f"src {header.src}/31"]
    for name, transport in (("tcp", packet.tcp), ("udp", packet.udp)):
        if transport is not None and header.proto == _PROTO_NAMES[name]:
            found += [f"{name} dport {transport.dport}", f"{name} sport {transport.sport}"]
    return found


def transport_for(draw, proto):
    """The header(s) behind an IP header of ``proto``: the matching
    transport, the wrong one, or nothing."""
    port = st.sampled_from(PORTS)
    choice = draw(st.sampled_from(["right", "right", "right", "wrong", "none"]))
    if choice == "none":
        return []
    if choice == "wrong":
        proto = {PROTO_TCP: PROTO_UDP, PROTO_UDP: PROTO_TCP}.get(proto, PROTO_TCP)
    if proto == PROTO_TCP:
        return [TCPHeader(draw(port), draw(port))]
    if proto == PROTO_UDP:
        return [UDPHeader(draw(port), draw(port))]
    if proto == PROTO_ICMP:
        return [ICMPHeader(8)]
    return []


@st.composite
def packets(draw) -> Packet:
    addr = st.sampled_from(ADDRS)
    shape = draw(st.sampled_from(
        ["empty", "headless", "plain", "plain", "eth", "tunnel", "tunnel2"]))
    headers = []
    if shape == "headless":
        headers = [UDPHeader(draw(st.sampled_from(PORTS)), draw(st.sampled_from(PORTS)))]
    elif shape != "empty":
        if shape == "eth":
            headers.append(EthernetHeader(src=1, dst=2))
        for _ in range({"tunnel": 1, "tunnel2": 2}.get(shape, 0)):
            headers += [IPv4Header(draw(addr), draw(addr), PROTO_UDP),
                        UDPHeader(draw(st.sampled_from(PORTS)), draw(st.sampled_from(PORTS)))]
        proto = draw(st.sampled_from(PROTOS))
        headers.append(IPv4Header(draw(addr), draw(addr), proto))
        headers += transport_for(draw, proto)
    return Packet(headers=headers, payload=OpaquePayload(draw(st.integers(0, 64))))


def wire(classifier):
    router = StubRouter()
    classifier.router = router
    sinks = [Sink() for _ in classifier.outputs]
    for index, sink in enumerate(sinks):
        classifier.connect(sink, out_port=index)
    return router, sinks


@given(st.lists(st.tuples(packets(), st.booleans()), min_size=1, max_size=12),
       st.lists(patterns, min_size=0, max_size=4), st.data())
@battery(300)
def test_classifier_equals_the_body_it_replaced(traffic, pattern_list, data):
    for packet, _shared in traffic:  # the one-frame accessors against find()
        for name, kind in (("eth", EthernetHeader), ("ip", IPv4Header), ("udp", UDPHeader),
                           ("tcp", TCPHeader), ("icmp", ICMPHeader)):
            assert getattr(packet, name) is packet.find(kind)
    # Some patterns are written about the traffic, and put in at random places.
    about = data.draw(st.lists(
        st.sampled_from(traffic).flatmap(lambda item: st.lists(
            st.sampled_from(clauses_about(item[0])), min_size=1, max_size=3)).map(" ".join),
        min_size=1, max_size=3))
    for pattern in about:
        pattern_list.insert(data.draw(st.integers(0, len(pattern_list))), pattern)
    want, got = ReferenceClassifier(*pattern_list), IPClassifier(*pattern_list)
    want_router, want_sinks = wire(want)
    got_router, got_sinks = wire(got)
    for original, shared in traffic:
        packet = original.copy() if shared else original
        want.push(0, packet)
        got.push(0, packet)
        if shared:  # a read-only element never faults the headers apart
            assert all(a is b for a, b in zip(packet.headers, original.headers))
            assert len(packet.headers) == len(original.headers)
    assert [[p.uid for p in s.packets] for s in got_sinks] == [
        [p.uid for p in s.packets] for s in want_sinks]
    assert got.unmatched == want.unmatched
    assert got_router.dropped == want_router.dropped  # the same packets, the same reason
    delivered = sum(len(s.packets) for s in got_sinks)
    assert delivered + got.unmatched == len(traffic)
