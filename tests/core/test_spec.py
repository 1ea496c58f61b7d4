"""Tests for the declarative experiment specification (Section 6.2)."""

import copy

import pytest

from repro.core import VINI
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


def test_existing_vini_can_be_supplied():
    vini = VINI(seed=1)
    vini.add_node("pa")
    vini.add_node("pb")
    vini.connect("pa", "pb", delay=0.002)
    vini.install_underlay_routes()
    spec = {
        "name": "mini",
        "topology": {"nodes": {"x": "pa", "y": "pb"},
                     "links": [{"a": "x", "b": "y"}]},
        "routing": {"protocol": "ospf", "hello_interval": 2.0,
                    "dead_interval": 6.0},
    }
    vini_out, exp = build_experiment(spec, vini=vini)
    assert vini_out is vini
    exp.run(until=20.0)
    x = exp.network.nodes["x"]
    y = exp.network.nodes["y"]
    assert x.xorp.rib.lookup(y.tap_addr) is not None


def test_rip_protocol_choice():
    spec = dict(SQUARE, routing={"protocol": "rip", "update_interval": 5.0,
                                 "timeout": 20.0}, events=[])
    vini, exp = build_experiment(spec)
    exp.run(until=60.0)
    a = exp.network.nodes["a"]
    d = exp.network.nodes["d"]
    route = a.xorp.rib.lookup(ip(d.interfaces["to_b"].address))
    assert route is not None and route.protocol in ("rip", "connected", "ospf")


def test_errors_for_malformed_specs():
    with pytest.raises(SpecError):
        build_experiment({"topology": {}})  # no physical, no vini
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
    (_edited(["routing"], {"protocl": "rip"}), ("routing", "'protocl'")),
    (_edited(["routing", "helo_interval"], 1.0), ("routing", "'helo_interval'")),
    (_edited(["routing"], {"protocol": "rip", "hello_interval": 2.0}),
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
