"""InvariantChecker: detection power and freedom from false alarms."""

import heapq

import pytest

from repro.core.experiment import Experiment
from repro.core.infrastructure import VINI
from repro.faults import FaultPlan, InvariantChecker
from repro.net.addr import Prefix, prefix
from repro.phys.load import CPUHog
from repro.phys.process import Process, WorkItem
from repro.routing import RibRoute
from repro.tools import Ping
from repro.topologies import build_line


def _triangle():
    vini = VINI(seed=9)
    for name in ("a", "b", "c"):
        vini.add_node(name)
    vini.connect("a", "b", delay=0.001)
    vini.connect("b", "c", delay=0.001)
    vini.connect("a", "c", delay=0.001)
    vini.install_underlay_routes()
    return vini


def _iface_toward(vini, node_name, other_name):
    node = vini.nodes[node_name]
    link = vini.link_between(node_name, other_name)
    return next(i for i in node.interfaces.values() if i.link is link)


def test_rejects_unknown_targets():
    with pytest.raises(TypeError):
        InvariantChecker(42)


# ----------------------------------------------------------------------
# Clean runs stay clean
# ----------------------------------------------------------------------
def test_healthy_physical_network_is_clean():
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    ping = Ping(vini.nodes["a"], vini.nodes["c"].address, count=10,
                interval=0.2)
    ping.start()
    vini.run(until=5.0)
    checker.check_now()
    assert checker.violations == []
    assert ping.received == 10


def test_install_enables_the_quiet_fwd_kind():
    vini = _triangle()
    assert not vini.sim.trace.wants("fwd")
    InvariantChecker(vini).install()
    assert vini.sim.trace.wants("fwd")


def test_clean_through_a_fault_schedule():
    """Failures create blackholes, not violations: a fault plan on a
    static-routed network must not trip the checker."""
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    plan = (
        FaultPlan("mix")
        .fail_physical(0.5, "a", "b", duration=1.0)
        .crash_physical(2.0, "b", duration=1.0)
        .cpu_burst(3.5, "c", duration=0.5)
    )
    plan.install(vini)
    ping = Ping(vini.nodes["a"], vini.nodes["c"].address, count=40,
                interval=0.1)
    ping.start()
    vini.run(until=6.0)
    checker.check_now()
    checker.assert_clean()


def test_clean_through_a_crash_under_hogs():
    """A crash flushes the hogs' work with the rest, so the ready set
    stays exactly the processes with work queued through the restart;
    the hogs stay dead, having run until the crash."""
    vini = _triangle()
    node = vini.nodes["b"]
    for index in range(3):
        CPUHog(node, name=f"slice{index}").start()
    checker = InvariantChecker(vini).install()
    FaultPlan("crash").crash_physical(1.0, "b", duration=1.0).install(vini)
    Ping(vini.nodes["a"], node.address, count=30, interval=0.1).start()
    vini.run(until=4.0)
    checker.check_now()
    checker.assert_clean()
    hogs = sum(p.cpu_used for p in node.cpu.processes if p.name.startswith("slice"))
    assert 1.0 <= hogs < 1.1


# ----------------------------------------------------------------------
# Structural loop detection
# ----------------------------------------------------------------------
def test_detects_planted_physical_forwarding_loop():
    vini = _triangle()
    c_addr = vini.nodes["c"].address
    vini.nodes["a"].add_route(
        Prefix(c_addr, 32), interface=_iface_toward(vini, "a", "b")
    )
    vini.nodes["b"].add_route(
        Prefix(c_addr, 32), interface=_iface_toward(vini, "b", "a")
    )
    checker = InvariantChecker(vini).install()
    checker.check_forwarding_loops()
    loops = [v for v in checker.violations if v.invariant == "forwarding_loop"]
    assert loops
    assert loops[0].detail["layer"] == "physical"
    assert loops[0].detail["dst"] == "c"
    with pytest.raises(AssertionError):
        checker.assert_clean()


def test_detects_planted_overlay_forwarding_loop():
    vini, exp = build_line(3)
    n0, n1, n2 = (exp.network.nodes[n] for n in ("n0", "n1", "n2"))
    n0.xorp.rib.update(
        RibRoute(Prefix(n2.tap_addr, 32), None, "to_n1", "static", 1)
    )
    n1.xorp.rib.update(
        RibRoute(Prefix(n2.tap_addr, 32), None, "to_n0", "static", 1)
    )
    checker = InvariantChecker(exp).install()
    checker.check_forwarding_loops()
    loops = [v for v in checker.violations if v.invariant == "forwarding_loop"]
    assert loops and loops[0].detail["layer"] == "overlay"


def test_walk_overlay_path_reports_the_planted_loop():
    from repro.faults import walk_overlay_path

    vini, exp = build_line(3)
    n0, n1, n2 = (exp.network.nodes[n] for n in ("n0", "n1", "n2"))
    n0.xorp.rib.update(
        RibRoute(Prefix(n2.tap_addr, 32), None, "to_n1", "static", 1)
    )
    n1.xorp.rib.update(
        RibRoute(Prefix(n2.tap_addr, 32), None, "to_n0", "static", 1)
    )
    status, path = walk_overlay_path(exp.network, n0, n2)
    assert status == "loop"
    assert path[0] == "n0" and path[-1] in ("n0", "n1")


def test_blackhole_is_not_a_loop():
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    vini.link_between("a", "c").fail()
    vini.nodes["b"].crash()
    checker.check_forwarding_loops()
    assert checker.violations == []


# ----------------------------------------------------------------------
# TTL monotonicity and the per-packet loop sentinel
# ----------------------------------------------------------------------
def test_flags_non_decreasing_ttl():
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    trace = vini.sim.trace
    trace.log("fwd", node="a", uid=77, ttl=10)
    trace.log("fwd", node="b", uid=77, ttl=10)  # did not decrease
    bad = [v for v in checker.violations if v.invariant == "ttl_monotonicity"]
    assert len(bad) == 1
    assert bad[0].detail["uid"] == 77


def test_strictly_decreasing_ttl_is_fine():
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    trace = vini.sim.trace
    for ttl in (64, 63, 62, 61):
        trace.log("fwd", node="x", uid=5, ttl=ttl)
    assert checker.violations == []


def test_per_packet_hop_bound_catches_runaway_packets():
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    trace = vini.sim.trace
    for hop in range(300):
        trace.log("fwd", node="x", uid=9, ttl=1000 - hop)
    loops = [v for v in checker.violations if v.invariant == "forwarding_loop"]
    assert len(loops) == 1  # reported once, not per extra hop


def test_violation_carries_the_triggering_event_context():
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    trace = vini.sim.trace
    trace.log("fault", plan="p", action="fail_link", label="fail a=b")
    trace.log("fwd", node="a", uid=1, ttl=8)
    trace.log("fwd", node="b", uid=1, ttl=9)
    assert checker.violations
    assert "fail a=b" in checker.violations[0].context
    # The violation is itself on the trace for tooling to query.
    assert trace.count("invariant_violation") == 1


# ----------------------------------------------------------------------
# Conservation
# ----------------------------------------------------------------------
def test_link_conservation_holds_after_traffic_and_failures():
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    ping = Ping(vini.nodes["a"], vini.nodes["b"].address, count=20,
                interval=0.05)
    ping.start()
    vini.sim.schedule(0.4, vini.link_between("a", "b").fail)
    vini.sim.schedule(0.8, vini.link_between("a", "b").recover)
    vini.run(until=3.0)
    checker.check_conservation()
    assert checker.violations == []


def test_detects_a_cooked_channel_counter():
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    vini.run(until=0.1)
    link = vini.link_between("a", "b")
    channel = next(iter(link._channels.values()))
    channel.offered += 3  # a packet entered that never left
    checker.check_conservation()
    bad = [v for v in checker.violations if v.invariant == "conservation"]
    assert bad and bad[0].detail["link"] == link.name


def test_detects_drop_counter_trace_disagreement():
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    link = vini.link_between("a", "b")
    channel = next(iter(link._channels.values()))
    channel.drops += 1  # counted but never traced...
    channel.offered += 1  # ...kept conservation-consistent
    checker.check_conservation()
    bad = [v for v in checker.violations if v.invariant == "drop_accounting"]
    assert bad and bad[0].detail["counter"] == 1


def test_detects_a_stale_cpu_ready_set():
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    ping = Ping(vini.nodes["a"], vini.nodes["b"].address, count=5, interval=0.05)
    ping.start()
    vini.run(until=1.0)
    checker.check_conservation()
    assert checker.violations == []
    cpu = vini.nodes["a"].cpu
    cpu._ready.add(cpu.processes[0])  # in the ready set with nothing queued
    checker.check_conservation()
    bad = [v for v in checker.violations if v.invariant == "cpu_ready_set"]
    assert bad and bad[0].detail == {
        "node": "a", "differ": [cpu.processes[0].name]}


def test_detects_a_stale_standby_entry():
    """Two hogs keep one in the fair-share heap, and the check reads it;
    a heap entry with nothing queued is reported."""
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    node = vini.nodes["a"]
    CPUHog(node, "h0").start()
    CPUHog(node, "h1").start()
    vini.run(until=1.0)
    checker.check_conservation()
    assert checker.violations == []
    cpu = node.cpu
    stale = cpu.processes[0]
    heapq.heappush(cpu._fair, (stale.vruntime, stale.index, stale))
    checker.check_conservation()
    bad = [v for v in checker.violations if v.invariant == "cpu_ready_set"]
    assert bad and bad[0].detail == {"node": "a", "differ": [stale.name]}


def test_detects_a_misplaced_fair_share_entry():
    """A heap entry must be a plain process keyed by its current
    ``(vruntime, index)``, and not the preempted slice's owner: a stale
    key, a real-time process and the owner in the heap are each reported."""
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    node = vini.nodes["a"]
    for i in range(3):
        CPUHog(node, f"h{i}").start()
    vini.run(until=1.0)
    checker.check_conservation()
    assert checker.violations == []
    cpu = node.cpu
    stale, owner = sorted((p for _, _, p in cpu._fair), key=lambda p: p.name)
    stale.vruntime += 1.0
    cpu._resume = owner
    rt = Process(node, "rt", realtime=True)
    rt.queue.append(WorkItem(0.001, print, ()))
    heapq.heappush(cpu._fair, (rt.vruntime, rt.index, rt))
    checker.check_conservation()
    bad = [v.detail for v in checker.violations if v.invariant == "cpu_ready_set"]
    assert bad == [{"node": "a", "differ": sorted([stale.name, owner.name, "rt"])}]


def test_detects_a_cooked_shaper_counter():
    vini = VINI(seed=4)
    vini.add_node("a")
    vini.add_node("b")
    vini.connect("a", "b", delay=0.001)
    vini.install_underlay_routes()
    exp = Experiment(vini)
    exp.add_node("va", "a")
    exp.add_node("vb", "b")
    exp.connect("va", "vb", bandwidth=1e6)
    checker = InvariantChecker(exp).install()
    shaper = exp.network.nodes["va"].click["shape_to_vb"]
    shaper.offered += 1
    checker.check_conservation()
    bad = [v for v in checker.violations if v.invariant == "conservation"]
    assert bad and bad[0].detail["element"] == "shape_to_vb"


# ----------------------------------------------------------------------
# RIB <-> FIB consistency
# ----------------------------------------------------------------------
def _two_node_overlay():
    vini, exp = build_line(2)
    return vini, exp, exp.network.nodes["n0"]


def test_rib_fib_sweep_clean_on_static_routes():
    vini, exp, vnode = _two_node_overlay()
    checker = InvariantChecker(exp).install()
    vnode.xorp.rib.update(
        RibRoute("10.9.0.0/24", None, "local", "static", 1)
    )
    checker.check_rib_fib()
    assert checker.violations == []


def test_incremental_check_catches_broken_fib_programming():
    vini, exp, vnode = _two_node_overlay()
    checker = InvariantChecker(exp).install()
    vnode.lookup.add_route = lambda *a, **k: None  # FIB silently broken
    vnode.xorp.rib.update(
        RibRoute("10.9.9.0/24", None, "local", "static", 1)
    )
    bad = [v for v in checker.violations if v.invariant == "rib_fib"]
    assert bad and bad[0].detail["problem"] == "missing_fib_entry"


def test_sweep_catches_a_tampered_fib_entry():
    vini, exp, vnode = _two_node_overlay()
    vnode.xorp.rib.update(
        RibRoute("10.9.0.0/24", None, "local", "static", 1)
    )
    checker = InvariantChecker(exp).install()
    vnode.lookup.remove_route("10.9.0.0/24")
    checker.check_rib_fib()
    bad = [v for v in checker.violations if v.invariant == "rib_fib"]
    assert bad and bad[0].detail["problem"] == "missing_fib_entry"


def test_sweep_catches_a_stale_fea_route():
    vini, exp, vnode = _two_node_overlay()
    checker = InvariantChecker(exp).install()
    vnode.fea.routes[prefix("10.8.0.0/24").key] = (None, "local")
    checker.check_rib_fib()
    bad = [v for v in checker.violations if v.invariant == "rib_fib"]
    assert bad
    assert bad[0].detail["problem"] == "fea_route_without_rib_winner"


def test_withdrawal_reaching_the_fib_is_clean():
    vini, exp, vnode = _two_node_overlay()
    checker = InvariantChecker(exp).install()
    vnode.xorp.rib.update(
        RibRoute("10.9.0.0/24", None, "local", "static", 1)
    )
    vnode.xorp.rib.withdraw("10.9.0.0/24", "static")
    checker.check_rib_fib()
    assert checker.violations == []


def test_report_groups_by_invariant():
    vini = _triangle()
    checker = InvariantChecker(vini).install()
    trace = vini.sim.trace
    trace.log("fwd", node="a", uid=1, ttl=5)
    trace.log("fwd", node="b", uid=1, ttl=5)
    trace.log("fwd", node="c", uid=1, ttl=5)
    assert checker.report() == {"ttl_monotonicity": 2}
