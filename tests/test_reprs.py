"""Every ``__repr__`` and ``__str__`` in ``repro`` runs and says what it is.

They are debug aids: they show in assertion messages, tracebacks and
interactive sessions, never in a green run, so one that raises would
surface only when it is most needed. ``samples`` holds one instance of
each class that defines one: taken from a small seeded run where the
class lives in one, built directly where it is a value. The last test
holds that list to the classes the source tree defines.
"""

import ast
from pathlib import Path

import pytest

from repro.core.spec import build_experiment
from repro.faults import FaultPlan, InvariantChecker
from repro.faults.invariants import Violation
from repro.net.addr import ip, prefix
from repro.net.packet import (
    ICMP_ECHO_REQUEST,
    ICMPHeader,
    IPv4Header,
    OpaquePayload,
    Packet,
    PROTO_TCP,
    TCPHeader,
    UDPHeader,
)
from repro.net.tcp import TCPStack
from repro.obs.archive import RunArchive
from repro.obs.export import FlightStream
from repro.obs.live import LiveMonitor
from repro.obs.query import _MISSING, Divergence
from repro.obs.routing import ConvergenceEpisode, ConvergenceTracker
from repro.obs.spans import Flight, Span, SpanContext
from repro.overlay import IIAS
from repro.rcc.checks import Fault
from repro.routing import BGPDaemon, BGPRoute, RoutingPlatform
from repro.tools.iperf import TCPResult, UDPResult
from repro.tools.ping import PingStats
from repro.topologies.internet import ASSpec, InterASEdge, InternetSpec, InternetWorld
from repro.traffic import FluidTrafficPlane

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

LINE = {
    "name": "line",
    "seed": 9,
    "physical": {
        "nodes": ["pa", "pb"],
        "links": [{"a": "pa", "b": "pb", "delay": 0.005}],
    },
    "topology": {"nodes": {"a": "pa", "b": "pb"}, "links": [{"a": "a", "b": "b"}]},
    "routing": {"protocol": "ospf", "hello_interval": 2.0, "dead_interval": 6.0},
}


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    out = tmp_path_factory.mktemp("reprs")
    vini, exp = build_experiment(LINE)
    sim = vini.sim
    archive = RunArchive(str(out), name="reprs").attach(sim)
    stream = FlightStream(str(out / "flights.jsonl"))
    monitor = LiveMonitor(sim, interval=1.0, feed=str(out / "live.jsonl")).install()
    tracker = ConvergenceTracker(exp).install()
    checker = InvariantChecker(exp).install()
    plane = FluidTrafficPlane(vini)
    flow = plane.add_flow("pa", "pb", demand_bps=1e6)
    exp.run(until=20.0)
    monitor.stop()
    a = exp.network.nodes["a"]
    pa = vini.nodes["pa"]
    (link,) = vini.links.values()
    spec = InternetSpec(
        "two", [ASSpec(1, "tier1", ["r1"], []), ASSpec(2, "stub", ["r2"], [])],
        [InterASEdge(1, "r1", 2, "r2", "peer")])
    plan = FaultPlan("p").fail_link(1.0, "a", "b")
    packet = Packet(IPv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP),
                    TCPHeader(1, 2), payload=OpaquePayload(8))
    yield [
        vini, exp, exp.network, a, next(iter(exp.network.links)), a.click,
        a.lookup, a.xorp, a.xorp.ospf, next(iter(a.xorp.ospf.lsdb.values())),
        a.xorp.rib.routes()[0], a.interfaces["to_b"],
        RoutingPlatform(sim, "r"), exp.slice, a.sliver,
        a.click_process, pa, pa.interfaces["eth0"], pa.cpu, link,
        pa.routes.lookup_entry(pa.address)[1],
        pa.udp_socket(a.click_process), sim, sim.at(1.0, lambda: None),
        sim.trace.records[0], sim.metrics, sim.metrics.counter("reprs"),
        TCPStack.of(pa).connect(a.click_process, "192.0.2.1", 5001),
        ip("10.0.0.1"), prefix("10.0.0.0/8"),
        packet, packet.ip, packet.tcp, packet.payload, UDPHeader(1, 2), ICMPHeader(ICMP_ECHO_REQUEST),
        plan, plan.actions[0], checker,
        Violation(1.0, "loop", {"node": "a"}, "fail_link a-b"),
        archive, stream, monitor, tracker, ConvergenceEpisode("fail", 1.0),
        SpanContext(1, 2), Span(1, 2, 0, "cpu.exec", "pa", 0.5),
        Flight(1, 2, "ping", "pa", 0.5),
        Divergence("trace", 3, 1.0, "rib_change", "a", "op", ["op"], "add", "del"),
        _MISSING, IIAS(exp), BGPDaemon(sim, 65001, "192.0.2.1"),
        BGPRoute("198.18.0.0/24", (65001,), "192.0.2.1"),
        Fault("error", "r1", "duplicate address"),
        TCPResult(1000, 1.0, 1), UDPResult(10, 9, 0.001),
        PingStats(10, 10, 0.01, 0.02, 0.03, 0.001),
        spec, spec.ases[0], spec.inter_edges[0],
        InternetWorld(sim, vini, exp, spec),
        plane, flow,
    ]


def _own(cls, name):
    """The class in ``cls``'s MRO that defines ``name``, if it is ours."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass if klass.__module__.startswith("repro.") else None
    return None


def test_every_repr_and_str_runs_and_names_its_object(samples):
    for obj in samples:
        for name, show in (("__repr__", repr), ("__str__", str)):
            if _own(type(obj), name) is not None:
                text = show(obj)
                assert text and " object at 0x" not in text, (name, type(obj))


def test_the_samples_cover_every_class_that_defines_one(samples):
    defined = set()
    for path in SRC.rglob("*.py"):
        module = "repro." + ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name in ("__repr__", "__str__")):
                        defined.add((module, node.name, item.name))
    covered = set()
    for obj in samples:
        for name in ("__repr__", "__str__"):
            owner = _own(type(obj), name)
            if owner is not None:
                covered.add((owner.__module__, owner.__qualname__, name))
    assert sorted(defined - covered) == []
