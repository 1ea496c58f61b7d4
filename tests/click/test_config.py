"""Tests for the Click configuration-language parser."""

import pytest

from repro.click import ClickRouter, Counter, RadixIPLookup, Shaper, Tee, UDPTunnel
from repro.click.config import ClickConfigError, parse_click_config
from repro.net.addr import ip
from repro.net.packet import IPv4Header, OpaquePayload, Packet, PROTO_UDP
from repro.overlay import click_config
from repro.phys.node import PhysicalNode
from repro.phys.vserver import Slice
from repro.sim import Simulator
from tests.click.conftest import Sink


@pytest.fixture
def router():
    sim = Simulator(seed=61)
    node = PhysicalNode(sim, "n0")
    node.add_interface("eth0").configure("198.51.100.1", 24)
    sliver = node.create_sliver(Slice("exp"))
    process = sliver.create_process("click", realtime=True)
    return ClickRouter(node, process)


BASIC = """
// a comment
src :: Counter();
cls :: IPClassifier(proto udp, -);
q :: Queue(50);
drop :: Discard();

src -> cls;
cls [0] -> [0] q;
cls [1] -> drop;
"""


def test_declarations_and_connections(router):
    parse_click_config(BASIC, router)
    assert isinstance(router["src"], Counter)
    assert router["cls"].outputs[0].target is router["q"]
    assert router["cls"].outputs[1].target is router["drop"]
    # Push a packet through to prove the wiring is live.
    pkt = Packet(
        headers=[IPv4Header("10.0.0.1", "10.0.0.2", PROTO_UDP)],
        payload=OpaquePayload(10),
    )
    router["src"].push(0, pkt)
    assert len(router["q"]) == 1


def test_chained_connections(router):
    parse_click_config(
        "a :: Counter(); b :: Counter(); c :: Discard();\na -> b -> c;\n",
        router,
    )
    assert router["a"].outputs[0].target is router["b"]
    assert router["b"].outputs[0].target is router["c"]


def test_lookup_with_routes(router):
    text = "rt :: RadixIPLookup(10.0.0.0/8 10.9.9.1 0, 0.0.0.0/0 - 0);"
    parse_click_config(text, router)
    lookup = router["rt"]
    assert isinstance(lookup, RadixIPLookup)
    assert len(lookup) == 2
    gw, port = lookup._lookup(ip("10.1.1.1"))
    assert str(gw) == "10.9.9.1"


def test_udptunnel_config(router):
    text = "tun :: UDPTunnel(198.51.100.2, 33001, LOCAL_PORT 33000);"
    parse_click_config(text, router)
    tunnel = router["tun"]
    assert isinstance(tunnel, UDPTunnel)
    assert str(tunnel.remote_addr) == "198.51.100.2"
    assert tunnel.local_port == 33000


def test_shaper_and_tee(router):
    parse_click_config(
        "sh :: Shaper(1000000bps, BURST 5000); t :: Tee(3);", router
    )
    assert isinstance(router["sh"], Shaper)
    assert router["sh"].rate == 1000000.0
    assert router["sh"].burst_bytes == 5000
    assert isinstance(router["t"], Tee)
    assert len(router["t"].outputs) == 3


def test_fromtap_resolves_from_context(router):
    sliver = router.node.slivers["exp"]
    tap = sliver.create_tap("10.7.0.1")
    parse_click_config("ft :: FromTap(tap0); d :: Discard(); ft -> d;",
                       router, context={"tap0": tap})
    assert router["ft"].tap is tap


def test_missing_context_device_raises(router):
    with pytest.raises(ClickConfigError):
        parse_click_config("ft :: FromTap(tap0);", router)


def test_unknown_class_raises(router):
    with pytest.raises(ClickConfigError):
        parse_click_config("x :: Warp9();", router)


def test_unknown_element_in_connection_raises(router):
    with pytest.raises(ClickConfigError):
        parse_click_config("a :: Counter();\na -> ghost;", router)


def test_garbage_statement_raises(router):
    with pytest.raises(ClickConfigError):
        parse_click_config("not a statement at all", router)


def test_roundtrip_generated_config():
    """click_config() output parses back into an equivalent graph."""
    from repro.core import VINI, Experiment

    vini = VINI(seed=62)
    vini.add_node("p0")
    vini.add_node("p1")
    vini.connect("p0", "p1", delay=0.002)
    vini.install_underlay_routes()
    exp = Experiment(vini, "iias", realtime=True)
    exp.add_node("a", "p0")
    exp.add_node("b", "p1")
    exp.connect("a", "b")
    exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
    exp.run(until=15.0)
    vnode = exp.network.nodes["a"]
    text = click_config(vnode)

    # Parse into a fresh router on a fresh node/slice.
    sim2 = Simulator(seed=63)
    node2 = PhysicalNode(sim2, "m0")
    node2.add_interface("eth0").configure("198.51.100.9", 24)
    sliver2 = node2.create_sliver(Slice("copy"))
    process2 = sliver2.create_process("click")
    tap2 = sliver2.create_tap("10.0.0.2")
    router2 = ClickRouter(node2, process2)
    parse_click_config(text, router2, context={"tap0": tap2})
    # Same element names and classes.
    assert set(router2.elements) == set(vnode.click.elements)
    for name, element in vnode.click.elements.items():
        assert type(router2[name]).__name__ == type(element).__name__
    # Same wiring.
    mirrored_ports = 0
    for name, element in vnode.click.elements.items():
        for index, port in enumerate(element.outputs):
            if port.target is None or not hasattr(port.target, "name"):
                continue
            if port.target.name not in router2.elements:
                continue
            mirrored = router2[name].outputs[index]
            assert mirrored.target is router2[port.target.name]
            assert mirrored.target_port == port.target_port
            mirrored_ports += 1
    wired = sum(
        port.target is not None
        for element in vnode.click.elements.values() for port in element.outputs
    )
    assert mirrored_ports == wired == 19  # no port was skipped
    # FIB contents carried over.
    assert len(router2["lookup"]) == len(vnode.lookup)


@pytest.mark.parametrize("declaration, complaint", [
    ("c :: IPClassifier(proto);", "'proto' needs an operand"),
    ("c :: IPClassifier(proto udp, dst);", "'dst' needs an operand"),
    ("c :: IPClassifier(udp dport, -);", "'udp dport' needs an operand"),
    ("c :: IPClassifier(proto 300);", "not in 0..255"),
    ("c :: IPClassifier(tcp dport 70000);", "not in 0..65535"),
    ("q :: Queue(many);", "invalid literal"),
    ("rt :: RadixIPLookup(10.0.0.0/40 - 0);", "prefix length out of range"),
])
def test_factory_value_errors_name_the_statement(router, declaration, complaint):
    # A bad operand used to escape as IndexError / ValueError, or (for
    # out-of-range numbers) not at all.
    with pytest.raises(ClickConfigError) as caught:
        parse_click_config("src :: Counter();\n" + declaration, router)
    message = str(caught.value)
    assert declaration.rstrip(";") in message
    assert complaint in message
