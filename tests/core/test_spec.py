"""Tests for the declarative experiment specification (Section 6.2)."""

import copy

import pytest

from repro.core import VINI, Experiment
from repro.core.spec import SpecError, build_experiment, experiment_spec
from repro.net.addr import ip

SQUARE = {
    "name": "square",
    "seed": 5,
    "slice": {"cpu_reservation": 0.25, "realtime": True},
    "physical": {
        "nodes": ["pa", "pb", "pc", "pd"],
        "links": [
            {"a": "pa", "b": "pb", "delay": 0.005},
            {"a": "pb", "b": "pd", "delay": 0.005},
            {"a": "pa", "b": "pc", "delay": 0.005},
            {"a": "pc", "b": "pd", "delay": 0.005},
        ],
    },
    "topology": {
        "nodes": {"a": "pa", "b": "pb", "c": "pc", "d": "pd"},
        "links": [
            {"a": "a", "b": "b"},
            {"a": "b", "b": "d"},
            {"a": "a", "b": "c", "cost": 3},
            {"a": "c", "b": "d", "cost": 3},
        ],
    },
    "routing": {"protocol": "ospf", "hello_interval": 2.0, "dead_interval": 6.0},
    "events": [
        {"time": 30.0, "action": "fail_link", "args": ["a", "b"]},
        {"time": 60.0, "action": "recover_link", "args": ["a", "b"]},
    ],
}


def test_build_creates_substrate_and_topology():
    vini, exp = build_experiment(SQUARE)
    assert set(vini.nodes) == {"pa", "pb", "pc", "pd"}
    assert set(exp.network.nodes) == {"a", "b", "c", "d"}
    assert len(exp.network.links) == 4
    assert exp.slice.cpu_reservation == 0.25
    assert exp.slice.realtime


def test_spec_events_drive_failure_and_recovery():
    vini, exp = build_experiment(SQUARE)
    exp.run(until=25.0)
    a = exp.network.nodes["a"]
    d = exp.network.nodes["d"]
    route_before = a.xorp.rib.lookup(d.tap_addr)
    assert route_before.ifname == "to_b"
    vini.run(until=55.0)  # after the failure event at t=30
    route_during = a.xorp.rib.lookup(d.tap_addr)
    assert route_during.ifname == "to_c"
    vini.run(until=95.0)  # after recovery at t=60
    assert a.xorp.rib.lookup(d.tap_addr).ifname == "to_b"


def test_roundtrip_spec_rebuilds_equivalent_experiment():
    vini, exp = build_experiment(SQUARE)
    spec2 = experiment_spec(exp)
    assert spec2["topology"]["nodes"] == SQUARE["topology"]["nodes"]
    assert len(spec2["topology"]["links"]) == 4
    assert spec2["routing"]["hello_interval"] == 2.0
    assert {(e["time"], e["action"]) for e in spec2["events"]} == {
        (30.0, "fail_link"),
        (60.0, "recover_link"),
    }
    # And it builds again.
    vini2, exp2 = build_experiment(spec2)
    assert set(exp2.network.nodes) == set(exp.network.nodes)


def test_unknown_protocol_is_a_spec_error_listing_the_known_ones():
    spec = dict(SQUARE, routing={"protocol": "rip"})
    with pytest.raises(SpecError) as err:
        build_experiment(spec)
    assert "'rip'" in str(err.value)
    assert "none, ospf" in str(err.value)


def test_tap_route_prefix_survives_the_round_trip():
    vini, _ = build_experiment(SQUARE)
    exp = Experiment(vini, "e", tap_route_prefix="10.0.0.0/16")
    _, rebuilt = build_experiment(experiment_spec(exp))
    assert str(rebuilt.network.tap_route_prefix) == "10.0.0.0/16"


def test_cpu_speed_survives_the_round_trip():
    vini = VINI(seed=3)
    for name in ("pa", "pb"):
        vini.add_node(name, cpu_speed=2.0)
    vini.connect("pa", "pb")
    spec = experiment_spec(Experiment(vini, "e"))
    assert spec["physical"]["cpu_speed"] == 2.0
    rebuilt, _ = build_experiment(spec)
    assert [node.cpu.speed for node in rebuilt.nodes.values()] == [2.0, 2.0]


def test_mixed_cpu_speeds_are_refused_naming_the_nodes():
    vini = VINI(seed=3)
    vini.add_node("pa")
    vini.add_node("pb", cpu_speed=2.0)
    with pytest.raises(SpecError) as err:
        experiment_spec(Experiment(vini, "e"))
    assert "pa" in str(err.value) and "pb" in str(err.value)


def test_errors_for_malformed_specs():
    with pytest.raises(SpecError):
        build_experiment({"topology": {}})  # no physical
    with pytest.raises(SpecError):
        build_experiment({"physical": {"nodes": ["a"], "links": []}})  # no topology
    bad_routing = dict(SQUARE, routing={"protocol": "isis"})
    with pytest.raises(SpecError):
        build_experiment(bad_routing)
    bad_event = dict(SQUARE, events=[{"time": 1, "action": "explode"}])
    with pytest.raises(SpecError):
        build_experiment(bad_event)


def test_spec_is_json_serializable():
    import json

    vini, exp = build_experiment(SQUARE)
    text = json.dumps(experiment_spec(exp))
    assert "square" in text


def test_physical_events_name_physical_links_and_upcalls_report_them():
    """``fail_physical`` takes the two *physical* ends; with upcalls the
    slice reroutes at once instead of waiting out the dead interval."""
    spec = dict(SQUARE, upcalls=True, events=[
        {"time": 30.0, "action": "fail_physical", "args": ["pa", "pb"]},
        {"time": 60.0, "action": "recover_physical", "args": ["pa", "pb"]},
    ])
    vini, exp = build_experiment(spec)
    a, d = exp.network.nodes["a"], exp.network.nodes["d"]
    exp.run(until=31.0)  # 1 s after the failure; the dead interval is 6 s
    assert not vini.link_between("pa", "pb").up
    assert a.xorp.rib.lookup(d.tap_addr).ifname == "to_c"
    vini.run(until=95.0)
    assert a.xorp.rib.lookup(d.tap_addr).ifname == "to_b"


def test_spec_of_a_built_experiment_rebuilds_the_same_run():
    """Every timetable row, the seed and the upcall wiring survive
    ``build_experiment(experiment_spec(exp))``; a plan-driven link
    failure counts as a ``fail_link`` row."""
    from repro.faults import FaultPlan

    spec = dict(SQUARE, upcalls=True, events=[
        {"time": 20.0, "action": "fail_link", "args": ["c", "d"]},
        {"time": 30.0, "action": "fail_physical", "args": ["pa", "pb"]},
        {"time": 60.0, "action": "recover_physical", "args": ["pa", "pb"]},
    ])
    vini, exp = build_experiment(spec)
    exp.apply_faults(FaultPlan().fail_link(5.0, "b", "d", duration=2.0),
                     offset=30.0)
    vini2, exp2 = build_experiment(experiment_spec(exp))
    assert len(exp.timetable()) == 5
    assert exp2.timetable() == exp.timetable()
    assert vini2.sim.seed == vini.sim.seed == 5
    assert len(exp2.upcalls._observed) == len(exp.upcalls._observed) == 4


def test_spec_of_an_inexpressible_firing_names_its_label():
    """Every kind has a spec form but ``FaultPlan.at``'s callable."""
    from repro.faults import FaultPlan

    vini, exp = build_experiment(SQUARE)
    exp.apply_faults(FaultPlan().crash_node(5.0, "b"))
    assert experiment_spec(exp)["events"][-1]["action"] == "crash_node"
    exp.apply_faults(FaultPlan().at(6.0, print, "poke", label="poke b"))
    with pytest.raises(SpecError, match="poke b"):
        experiment_spec(exp)


def test_a_plan_installed_on_the_substrate_is_in_the_spec():
    """The timetable is the deployment's: a plan installed on the VINI
    under an experiment is one of the experiment's events."""
    from repro.faults import FaultPlan

    vini, exp = build_experiment(dict(SQUARE, events=[]))
    FaultPlan("under").fail_physical(3.0, "pa", "pb", duration=2.0).install(vini)
    events = experiment_spec(exp)["events"]
    assert [(e["time"], e["plan"], e["action"], e["args"]) for e in events] == [
        (3.0, "under", "fail_physical", ["pa", "pb"]),
        (5.0, "under", "recover_physical", ["pa", "pb"]),
    ]
    vini2, exp2 = build_experiment(experiment_spec(exp))
    assert exp2.timetable() == exp.timetable() == [
        (3.0, "fail physical pa--pb"), (5.0, "recover physical pa--pb")]


def test_spec_keeps_construction_order_and_queue_sizes():
    """Addresses are numbered in construction order, so a spec that
    sorted its nodes or links, or dropped a queue size, would rebuild a
    different run."""
    vini = VINI(seed=2)
    for name in ("pz", "pa"):
        vini.add_node(name)
    vini.connect("pz", "pa", delay=0.002, queue_bytes=4096)
    vini.install_underlay_routes()
    exp = Experiment(vini, "order")
    exp.add_node("z", "pz")
    exp.add_node("a", "pa")
    exp.connect("z", "a")
    vini2, exp2 = build_experiment(experiment_spec(exp))
    assert list(vini2.nodes) == ["pz", "pa"]
    link = vini2.link_between("pa", "pz")
    assert link.name == "pz--pa" and link.queue_bytes == 4096
    for name in ("z", "a"):
        assert exp2.network.nodes[name].tap_addr == exp.network.nodes[name].tap_addr



@pytest.mark.parametrize("cost", [-3, 0, 1.5, float("nan")])
def test_an_ospf_cost_outside_1_to_65535_is_a_spec_error(cost):
    spec = copy.deepcopy(SQUARE)
    spec["topology"]["links"][2]["cost"] = cost
    with pytest.raises(SpecError, match=r"topology.links\[2\].*cost"):
        build_experiment(spec)

def _edited(path, value):
    """SQUARE with the entry at ``path`` replaced (deep-copied)."""
    spec = copy.deepcopy(SQUARE)
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return spec


@pytest.mark.parametrize("spec, names", [
    (_edited(["topology", "links", 0], {"a": "a"}),
     ("topology.links[0]", "'b'")),
    (_edited(["physical", "links", 1], {"a": "pb"}),
     ("physical.links[1]", "'b'")),
    (_edited(["topology", "nodes", "a"], "nope"), ("topology.nodes", "'nope'")),
    (_edited(["topology", "links", 2, "b"], "zz"),
     ("topology.links[2]", "'zz'")),
    (_edited(["physical", "links", 0, "a"], "zz"),
     ("physical.links[0]", "'zz'")),
    (_edited(["events", 0], {"action": "fail_link", "args": ["a", "b"]}),
     ("events[0]", "'time'")),
    (_edited(["events", 1, "args"], ["a"]), ("events[1]", "args")),
    (_edited(["events", 1, "args"], ["a", "d"]), ("events[1]", "args")),
    (_edited(["events", 0], {"time": 1.0, "action": "fail_physical",
                             "args": ["pa", "pd"]}), ("events[0]", "args")),
    (_edited(["events", 0, "plna"], "x"), ("events[0]", "'plna'")),
    (_edited(["events", 0, "action"], "call"), ("events[0]", "callable")),
    (_edited(["events", 0, "time"], -1.0), ("events[0]", "negative")),
    (_edited(["routing"], {"protocl": "rip"}), ("routing", "'protocl'")),
    (_edited(["routing", "helo_interval"], 1.0), ("routing", "'helo_interval'")),
    (_edited(["routing"], {"protocol": "none", "hello_interval": 2.0}),
     ("routing", "'hello_interval'")),
    (_edited(["slice", "realtme"], True), ("slice", "'realtme'")),
    (_edited(["evnts"], []), ("spec", "'evnts'")),
    (_edited(["physical", "node"], ["pa"]), ("physical", "'node'")),
    (_edited(["topology", "links", 3, "cst"], 3), ("topology.links[3]", "'cst'")),
    (_edited(["slice"], ["realtime"]), ("slice", "mapping")),
])
def test_misspelt_spec_is_a_spec_error_naming_section_and_key(spec, names):
    """A missing key, an unknown name or a misspelt key is refused where
    it stands — never a bare KeyError/TypeError, never a silent default."""
    with pytest.raises(SpecError) as err:
        build_experiment(spec)
    for name in names:
        assert name in str(err.value)
