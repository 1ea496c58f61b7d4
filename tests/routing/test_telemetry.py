"""Control-plane telemetry: the ospf.* / rib.* / bgp.* metrics the
daemons publish, each checked against the derivation it mirrors (trace
records or the daemon's own state)."""

from repro.net.addr import ip
from repro.routing.bgp import BGPDaemon, DirectTransport
from repro.sim import Simulator
from tests.routing.conftest import build_topology, router_id
from tests.routing.test_ospf import configure_ospf

SQUARE = [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]


def _square_world(seed=46, enable_rib_trace=False):
    sim = Simulator(seed=seed)
    if enable_rib_trace:
        sim.trace.enable("rib_change")
    fabric, platforms, routers, ifmap = build_topology(sim, SQUARE)
    configure_ospf(routers, hello=5.0, dead=10.0)
    return sim, fabric, platforms, routers, ifmap


# ----------------------------------------------------------------------
# OSPF adjacency / LSA lifecycle
# ----------------------------------------------------------------------
def test_failure_increments_down_transitions():
    sim, fabric, platforms, routers, ifmap = _square_world(seed=47)
    sim.run(until=30.0)
    # Each router brought both its neighbors to Full, none dropped.
    for index in range(4):
        assert sim.trace.count(
            "ospf_neighbor", router=router_id(index), state="Full") == 2
    assert sim.trace.count("ospf_neighbor", state="Down") == 0
    fabric.fail(platforms["a"], "to_b")
    sim.run(until=55.0)
    # Each end of the failed link dropped its one neighbor there.
    for index in (0, 1):
        assert sim.trace.count(
            "ospf_neighbor", router=router_id(index), state="Down") == 1
    assert sim.trace.count("ospf_neighbor", state="Down") == 2


def test_lsa_lifecycle_counters():
    sim, fabric, platforms, routers, _ = _square_world(seed=48)
    sim.run(until=30.0)
    metrics = sim.metrics
    for index in range(4):
        # Every router installs the other three routers' LSAs.
        rid = router_id(index)
        assert metrics.value("ospf.lsa_installed", router=rid) >= 3.0


# ----------------------------------------------------------------------
# RIB / FIB churn
# ----------------------------------------------------------------------
def test_rib_churn_counters_match_trace_records():
    sim, fabric, platforms, routers, ifmap = _square_world(
        seed=49, enable_rib_trace=True
    )
    sim.run(until=30.0)
    fabric.fail(platforms["a"], "to_b")
    sim.run(until=55.0)
    metrics = sim.metrics
    for name in routers:
        for op in ("add", "replace", "withdraw"):
            counted = metrics.value("rib.changes", router=name, op=op)
            traced = sim.trace.count("rib_change", router=name, op=op)
            assert counted == traced, (name, op, counted, traced)
        # The winners held equal the net add/withdraw balance.
        adds = metrics.value("rib.changes", router=name, op="add")
        withdraws = metrics.value("rib.changes", router=name, op="withdraw")
        assert len(routers[name].rib.routes()) == adds - withdraws
    # The reroute after the failure produced replace churn somewhere.
    assert metrics.sum_values("rib.changes", op="replace") > 0


def test_rib_changes_silent_without_enable():
    sim, fabric, platforms, routers, _ = _square_world(seed=50)
    sim.run(until=30.0)
    # rib_change is a quiet kind: no collector enabled it, so the run
    # logged none — but the pull counters still saw every change.
    assert sim.trace.count("rib_change") == 0
    assert sim.metrics.sum_values("rib.changes", op="add") > 0


# ----------------------------------------------------------------------
# BGP route-level churn
# ----------------------------------------------------------------------
def test_bgp_route_churn_counters_match_session_attributes():
    sim = Simulator(seed=52)
    left = BGPDaemon(sim, 65001, "10.0.0.1", name="left")
    right = BGPDaemon(sim, 65002, "10.0.0.2", name="right")
    t_l, t_r = DirectTransport.pair(sim, delay=0.01)
    s_l = left.add_session(t_l, 65002, mrai=0.1)
    s_r = right.add_session(t_r, 65001, mrai=0.1)
    s_l.start()
    s_r.start()
    sim.run(until=2.0)
    left.originate("192.0.2.0/24")
    left.originate("198.51.100.0/24")
    sim.run(until=4.0)
    left.withdraw_origin("192.0.2.0/24")
    sim.run(until=6.0)
    metrics = sim.metrics
    # Every update the left side sent, the right side received.
    sent = metrics.value("bgp.updates_sent", daemon="left", peer="as65002")
    received = metrics.value("bgp.updates_received", daemon="right",
                             peer="as65001")
    assert sent == s_l.updates_sent == received == s_r.updates_received >= 2
    assert metrics.value("bgp.loc_rib_routes", daemon="right") == len(
        right.loc_rib
    ) == 1.0
    assert right.best("198.51.100.0/24") is not None
    assert right.best("192.0.2.0/24") is None
