"""Crash/restart lifecycle for physical and virtual nodes."""

from repro.core.infrastructure import VINI
from repro.faults import FaultPlan
from repro.tools import Ping
from repro.topologies import build_line
from tests.conftest import DropWatch


def _triangle():
    vini = VINI(seed=5)
    for name in ("a", "b", "c"):
        vini.add_node(name)
    vini.connect("a", "b", delay=0.001)
    vini.connect("b", "c", delay=0.001)
    vini.connect("a", "c", delay=0.001)
    vini.install_underlay_routes()
    return vini


# ----------------------------------------------------------------------
# PhysicalNode
# ----------------------------------------------------------------------
def test_crash_downs_node_links_and_interfaces():
    vini = _triangle()
    b = vini.nodes["b"]
    b.crash()
    assert not b.alive
    assert not vini.link_between("a", "b").up
    assert not vini.link_between("b", "c").up
    assert vini.link_between("a", "c").up
    assert all(not iface.up for iface in b.interfaces.values())


def test_restart_recovers_exactly_what_the_crash_took_down():
    vini = _triangle()
    b = vini.nodes["b"]
    # A link failed deliberately before the crash stays failed.
    vini.link_between("a", "b").fail()
    b.crash()
    b.restart()
    assert b.alive
    assert not vini.link_between("a", "b").up  # experiment's failure
    assert vini.link_between("b", "c").up  # crash's failure, recovered
    assert all(iface.up for iface in b.interfaces.values())


def test_crash_and_restart_are_idempotent():
    vini = _triangle()
    b = vini.nodes["b"]
    b.restart()  # restart while alive: no-op
    b.crash()
    b.crash()  # double crash: no-op
    b.restart()
    assert b.alive
    assert vini.link_between("a", "b").up
    assert vini.link_between("b", "c").up


def test_shared_link_waits_for_both_neighbours():
    """A link between two crashed nodes recovers only when the second
    node restarts, regardless of restart order."""
    vini = _triangle()
    a, b = vini.nodes["a"], vini.nodes["b"]
    a.crash()
    b.crash()
    a.restart()
    assert not vini.link_between("a", "b").up  # b still down
    assert vini.link_between("a", "c").up
    b.restart()
    assert vini.link_between("a", "b").up
    assert vini.link_between("b", "c").up


def test_crash_discards_queued_cpu_work():
    vini = _triangle()
    b = vini.nodes["b"]
    ran = []
    b.kernel.exec_after(0.5, ran.append, "should not run")
    vini.run(until=0.1)
    b.crash()
    vini.run(until=2.0)
    assert ran == []


def test_crashed_node_neither_forwards_nor_originates():
    vini = _triangle()
    watch = DropWatch(vini.sim)
    vini.run(until=0.1)
    b = vini.nodes["b"]
    b.crash()
    ping = Ping(b, vini.nodes["a"].address, count=3, interval=0.2)
    ping.start()
    vini.run(until=2.0)
    assert ping.received == 0
    # Each echo request is one drop record, and its flight is closed.
    assert watch.drops() == [("b", "node_down")] * 3
    assert watch.recorder.flights_started == 3 and watch.open_flights == {}


def test_crash_drops_the_packets_its_cpu_work_held():
    """b crashes from inside ip_input, as its kernel holds a tracked echo
    request on the CPU: the cancelled work item's packet is one drop
    record, and its flight is closed."""
    vini = VINI(seed=5)
    for name in ("a", "b", "c"):
        vini.add_node(name)
    vini.connect("a", "b", delay=0.001)
    vini.connect("b", "c", delay=0.001)
    vini.install_underlay_routes()
    watch = DropWatch(vini.sim)
    b = vini.nodes["b"]
    ip_input = b.ip_input

    def crashing_input(iface, packet):
        ip_input(iface, packet)
        assert b.cpu._item.packet is packet  # the ping's own flight
        b.crash()

    b.ip_input = crashing_input
    Ping(vini.nodes["a"], vini.nodes["c"].address, count=1).start()
    vini.run(until=1.0)
    assert watch.drops() == [("b", "node_crash")]
    assert watch.recorder.flights_started == 1 and watch.open_flights == {}


def test_crash_records_untracked_cpu_work_as_a_drop():
    """The same crash with no flight recorder installed: the kernel's
    work item still names the echo request it is handed, so the crash
    writes exactly one node_crash record for it."""
    vini = VINI(seed=5)
    for name in ("a", "b", "c"):
        vini.add_node(name)
    vini.connect("a", "b", delay=0.001)
    vini.connect("b", "c", delay=0.001)
    vini.install_underlay_routes()
    vini.sim.trace.enable("drop")
    b = vini.nodes["b"]
    ip_input = b.ip_input

    def crashing_input(iface, packet):
        ip_input(iface, packet)
        assert b.cpu._item.packet is packet and packet.span is None
        b.crash()

    b.ip_input = crashing_input
    Ping(vini.nodes["a"], vini.nodes["c"].address, count=1).start()
    vini.run(until=1.0)
    drops = [(r["where"], r["reason"]) for r in vini.sim.trace.select("drop")]
    assert drops == [("b", "node_crash")]


def test_crashed_node_drops_traffic_through_it():
    """Fate sharing: traffic riding a crashed node's links is lost, and
    every loss is accounted (counter == trace records)."""
    vini = _triangle()
    vini.sim.trace.enable("drop")
    # Force a->c through b so the crash is on-path.
    a, c = vini.nodes["a"], vini.nodes["c"]
    vini.link_between("a", "c").fail()
    vini.install_underlay_routes()
    ping = Ping(a, c.address, count=20, interval=0.1)
    ping.start()
    vini.sim.schedule(0.55, vini.nodes["b"].crash)
    vini.run(until=4.0)
    assert 0 < ping.received < 20
    for key, link in vini.links.items():
        drops = link.stats()["drops"]
        traced = vini.sim.trace.count("drop", where=link.name)
        assert drops == traced


def test_plan_driven_crash_with_duration_restarts():
    vini = _triangle()
    plan = FaultPlan("crash").crash_physical(1.0, "b", duration=2.0)
    plan.install(vini)
    vini.run(until=1.5)
    assert not vini.nodes["b"].alive
    vini.run(until=4.0)
    assert vini.nodes["b"].alive
    assert vini.link_between("a", "b").up
    states = [
        (r.time, r["alive"])
        for r in vini.sim.trace.select("node_state", node="b")
    ]
    assert states == [(1.0, False), (3.0, True)]


# ----------------------------------------------------------------------
# VirtualNode (overlay crash: adjacent vlinks black-holed in Click)
# ----------------------------------------------------------------------
def test_virtual_node_crash_blackholes_adjacent_vlinks():
    vini, exp = build_line(3)
    n1 = exp.network.nodes["n1"]
    n1.crash()
    assert n1.crashed
    assert exp.network.link_between("n0", "n1").failed
    assert exp.network.link_between("n1", "n2").failed
    n1.restart()
    assert not n1.crashed
    assert not exp.network.link_between("n0", "n1").failed
    assert not exp.network.link_between("n1", "n2").failed


def test_virtual_node_restart_leaves_deliberate_failures_alone():
    vini, exp = build_line(3)
    exp.network.fail_link("n0", "n1")
    n1 = exp.network.nodes["n1"]
    n1.crash()
    n1.restart()
    assert exp.network.link_between("n0", "n1").failed
    assert not exp.network.link_between("n1", "n2").failed


def test_virtual_shared_vlink_waits_for_both_neighbours():
    vini, exp = build_line(3)
    n0, n1 = exp.network.nodes["n0"], exp.network.nodes["n1"]
    n0.crash()
    n1.crash()
    n0.restart()
    assert exp.network.link_between("n0", "n1").failed  # n1 still down
    n1.restart()
    assert not exp.network.link_between("n0", "n1").failed
    assert not exp.network.link_between("n1", "n2").failed


def test_plan_driven_virtual_crash():
    vini, exp = build_line(3)
    plan = FaultPlan().crash_node(1.0, "n1", duration=1.0)
    exp.apply_faults(plan)
    vini.run(until=1.5)
    assert exp.network.nodes["n1"].crashed
    vini.run(until=3.0)
    assert not exp.network.nodes["n1"].crashed
