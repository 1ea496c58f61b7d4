"""The report's routing timelines and ConvergenceTracker analytics."""

import pytest

from repro.faults import FaultPlan, walk_overlay_path
from repro.obs import ConvergenceTracker, build_report
from repro.obs.routing import episodes_from_trace
from repro.sim import Simulator
from repro.topologies import build_ring

WARMUP = 10.0
FAIL_AT = 2.0
DURATION = 6.0
END_AT = 20.0


def _ring_world(seed=7):
    """A 4-node OSPF ring: n0--n1--n2--n3--n0, fast hello/dead timers
    so convergence fits in a short test run."""
    vini, exp = build_ring(4, seed=seed)
    exp.configure_ospf(hello_interval=1.0, dead_interval=3.0)
    return vini, exp


def _run_failover(seed=7, pairs=(("n0", "n2"),)):
    vini, exp = _ring_world(seed=seed)
    tracker = ConvergenceTracker(exp).install()
    for src, dst in pairs:
        tracker.watch_path(src, dst)
    exp.start()
    exp.run(until=WARMUP)
    plan = FaultPlan("ring").fail_link(FAIL_AT, "n0", "n1",
                                       duration=DURATION)
    exp.apply_faults(plan, offset=WARMUP)
    vini.run(until=WARMUP + END_AT)
    return vini, exp, tracker


# ----------------------------------------------------------------------
# Routing timelines: the report reads them from the trace
# ----------------------------------------------------------------------
def test_report_lists_the_control_plane_timelines():
    vini, exp, tracker = _run_failover()
    section = build_report(vini.sim, routing=True).data["routing"]
    assert set(section) == {"adjacency", "spf_runs", "bgp_sessions",
                            "rib_changes"}
    assert section["adjacency"], "no adjacency transitions collected"
    states = {event["state"] for event in section["adjacency"]}
    assert "Full" in states and "Down" in states
    assert section["spf_runs"], "no SPF runs collected"
    assert section["rib_changes"], "no RIB changes collected"
    # Timelines are in event order.
    times = [event["time"] for event in section["rib_changes"]]
    assert times == sorted(times)
    trace = vini.sim.trace
    assert section["rib_changes"] == [
        dict(record.fields, time=record.time)
        for record in trace.select("rib_change")]
    assert len(section["spf_runs"]) == trace.count("ospf_spf")


def test_routing_timelines_need_the_quiet_rib_kind_recorded():
    """``rib_change`` is quiet: a trace that never enabled it would
    give an empty RIB timeline, so the report refuses instead."""
    sim = Simulator(seed=1)
    with pytest.raises(ValueError, match="rib_change"):
        build_report(sim, routing=True)
    ConvergenceTracker(sim).install()  # enables the quiet kind
    assert build_report(sim, routing=True).data["routing"] == {
        "adjacency": [], "spf_runs": [], "bgp_sessions": [],
        "rib_changes": []}


# ----------------------------------------------------------------------
# ConvergenceTracker: episodes
# ----------------------------------------------------------------------
def test_tracker_episodes_equal_offline_rederivation():
    vini, exp, tracker = _run_failover()
    offline = episodes_from_trace(vini.sim.trace.records)
    assert [e.as_dict() for e in tracker.episodes] == [
        e.as_dict() for e in offline
    ]
    assert [e.trigger for e in tracker.episodes] == [
        "ring:fail_link fail n0=n1",
        "ring:recover_link recover n0=n1",
    ]


def test_episode_stitches_fault_to_rib_churn():
    vini, exp, tracker = _run_failover()
    fail_ep = tracker.episodes[0]
    assert fail_ep.start == WARMUP + FAIL_AT
    assert fail_ep.changes > 0
    # Detection is dead-interval bound (3 s) plus flooding/SPF slack.
    assert 0.0 < fail_ep.detection_s <= 4.0
    assert fail_ep.detection_s <= fail_ep.convergence_s
    # Both endpoints of the failed link rerouted something.
    assert "n0" in fail_ep.routers and "n1" in fail_ep.routers
    for first, last, count in fail_ep.routers.values():
        assert fail_ep.first_change <= first <= last <= fail_ep.last_change
        assert count >= 1
    assert sum(c for _f, _l, c in fail_ep.routers.values()) == fail_ep.changes


# ----------------------------------------------------------------------
# ConvergenceTracker: path windows
# ----------------------------------------------------------------------
def test_blackhole_window_opens_at_the_fault_instant():
    vini, exp, tracker = _run_failover(pairs=(("n0", "n2"),
                                                        ("n1", "n3")))
    for src, dst in (("n0", "n2"), ("n1", "n3")):
        windows = tracker.path_windows(src, dst)
        # Pre-start walk saw no routes, then OSPF delivered, then the
        # failure transient, then delivered again.
        assert windows[0]["status"] == "blackhole"
        assert windows[-1]["status"] == "delivered"
        assert windows[-1]["end"] == vini.sim.now
    # n0->n2's traffic crossed the failed link; its blackhole window
    # opens exactly when the vlink flips and closes at a reroute within
    # the episode's churn.
    fail_ep = tracker.episodes[0]
    holes = [w for w in tracker.blackhole_windows("n0", "n2")
             if w["start"] >= WARMUP]
    assert holes
    assert holes[0]["start"] == WARMUP + FAIL_AT
    assert holes[0]["end"] <= fail_ep.last_change + 1e-9


def test_unaffected_path_stays_delivered():
    vini, exp, tracker = _run_failover(pairs=(("n2", "n3"),))
    # n2--n3 is a direct edge untouched by the n0--n1 failure.
    assert [w for w in tracker.blackhole_windows("n2", "n3")
            if w["start"] >= WARMUP] == []


def test_watch_path_validates_nodes_and_targets():
    vini, exp = _ring_world()
    tracker = ConvergenceTracker(exp)
    with pytest.raises(KeyError):
        tracker.watch_path("n0", "nope")
    bare = ConvergenceTracker(Simulator(seed=3))
    with pytest.raises(ValueError):
        bare.watch_path("a", "b")
    with pytest.raises(TypeError):
        ConvergenceTracker(42)


def test_tracker_on_bare_simulator_stitches_manual_records():
    sim = Simulator(seed=11)
    tracker = ConvergenceTracker(sim).install()
    trace = sim.trace
    trace.log("fault", plan="p", action="fail_link", label="fail x=y")
    trace.log("rib_change", router="r1", prefix="10.0.0.0/24", op="replace",
              protocol="ospf", nexthop="10.0.0.1")
    trace.log("rib_change", router="r2", prefix="10.0.0.0/24", op="replace",
              protocol="ospf", nexthop="10.0.0.2")
    assert len(tracker.episodes) == 1
    episode = tracker.episodes[0]
    assert episode.trigger == "p:fail_link fail x=y"
    assert episode.changes == 2
    assert episode.prefixes["10.0.0.0/24"][2] == 2
    assert tracker.as_dict()["paths"] == {}


# ----------------------------------------------------------------------
# walk_overlay_path statuses
# ----------------------------------------------------------------------
def test_walk_reports_delivered_and_blackhole():
    vini, exp = _ring_world()
    exp.start()
    exp.run(until=WARMUP)
    network = exp.network
    n0, n2 = network.nodes["n0"], network.nodes["n2"]
    status, path = walk_overlay_path(network, n0, n2)
    assert status == "delivered"
    assert path[0] == "n0" and path[-1] == "n2"
    assert len(path) == 3  # one intermediate hop on the ring
    # Cut both of n0's links: nothing can leave it.
    network.fail_link("n0", "n1")
    network.fail_link("n3", "n0")
    status, path = walk_overlay_path(network, n0, n2)
    assert status == "blackhole"
    assert path[0] == "n0"
