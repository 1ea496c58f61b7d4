"""Declarative experiment specifications (Section 6.2).

"We envision that VINI experiments would be specified using the same
type of syntax that is used to construct ns or Emulab experiments, so
that researchers can move an experiment from Emulab to VINI as
seamlessly as possible." This module is that specification layer: a
plain-dict (JSON-able) schema describing the physical substrate, the
virtual topology, the routing configuration, isolation parameters, and
the event timetable — everything needed to reconstruct a run.

Example::

    SPEC = {
        "name": "square",
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
        "routing": {"protocol": "ospf", "hello_interval": 5.0,
                    "dead_interval": 10.0},
        "upcalls": False,
        "events": [
            {"time": 10.0, "action": "fail_link", "args": ["a", "b"]},
            {"time": 34.0, "action": "recover_link", "args": ["a", "b"]},
        ],
    }

Each event is one :class:`~repro.faults.plan.FaultAction` at an absolute
time: ``action`` is any plan kind but ``call``, ``args`` its arguments,
and the optional ``plan`` the plan name its ``fault`` trace record logs
(default ``"spec"``; the record's label is the kind's wording of the
args).
``build_experiment(SPEC)`` returns a ready (vini, experiment) pair,
scheduling the events through ``FaultPlan.install``, and
``experiment_spec(exp)`` round-trips a programmatically built
experiment back into this form, plan firings included, so the rebuilt
run is the same run. The ``ospf_timers`` ablation of
``benchmarks/paper.py`` builds its square from such a specification,
so a misspelt key or name is refused (``SpecError`` naming the section
and the key), never run as a default.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

from repro.core.experiment import Experiment
from repro.core.infrastructure import VINI
from repro.faults.plan import FaultAction, FaultPlan, UnsupportedFault
from repro.phys.vserver import OVERLAY_PREFIX

_ROUTING_KEYS = {
    "ospf": ("hello_interval", "dead_interval"),
    "none": (),
}


class SpecError(ValueError):
    """The specification is malformed."""


def _section(where: str, given: Any, allowed, required=()) -> Dict[str, Any]:
    """``given``, refused if it lacks a required key or carries one
    outside ``allowed`` — a misspelt key must not run as a default."""
    if not isinstance(given, dict):
        raise SpecError(f"{where}: expected a mapping, got {given!r}")
    for key in required:
        if key not in given:
            raise SpecError(f"{where}: missing key {key!r}")
    for key in given:
        if key not in allowed:
            raise SpecError(
                f"{where}: unknown key {key!r} (known: {', '.join(sorted(allowed))})"
            )
    return given


def _positive(where: str, value: Any) -> float:
    # The node's CPU and the slice's processes refuse it too, without the key.
    if not isinstance(value, (int, float)) or not 0.0 < value < math.inf:
        raise SpecError(f"{where}: expected a positive finite number, got {value!r}")
    return value


def _fraction(where: str, value: Any, low: str) -> float:
    # A slice's processes refuse it too, without the key.
    if (not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0
            or low == "(" and value == 0.0):
        raise SpecError(f"{where}: expected a number in {low}0, 1], got {value!r}")
    return value


def _known(where: str, key: str, name: Any, names) -> Any:
    if name not in names:
        raise SpecError(f"{where}: {key!r} names unknown node {name!r}")
    return name


def build_experiment(spec: Dict[str, Any]) -> Tuple[VINI, Experiment]:
    """Construct (vini, experiment) from a specification dict."""
    _section("spec", spec, (
        "name", "seed", "slice", "physical", "topology", "routing",
        "upcalls", "events", "tap_route_prefix"))
    if "physical" not in spec:
        raise SpecError("spec has no 'physical' section")
    physical = _section(
        "physical", spec["physical"], ("nodes", "links", "cpu_speed"))
    vini = VINI(seed=spec.get("seed", 0))
    speed = _positive("physical.cpu_speed", physical.get("cpu_speed", 1.0))
    for name in physical.get("nodes", []):
        vini.add_node(name, cpu_speed=speed)
    for index, link in enumerate(physical.get("links", [])):
        where = f"physical.links[{index}]"
        _section(where, link, ("a", "b", "bandwidth", "delay", "queue_bytes"),
                 ("a", "b"))
        vini.connect(
            _known(where, "a", link["a"], vini.nodes),
            _known(where, "b", link["b"], vini.nodes),
            **{key: link[key] for key in ("bandwidth", "delay", "queue_bytes")
               if key in link},
        )
    vini.install_underlay_routes()
    slice_spec = _section("slice", spec.get("slice", {}), (
        "cpu_share", "cpu_reservation", "realtime", "cpu_cap"))
    exp = Experiment(
        vini,
        spec.get("name", "experiment"),
        cpu_share=_positive("slice.cpu_share", slice_spec.get("cpu_share", 1.0)),
        cpu_reservation=_fraction(
            "slice.cpu_reservation", slice_spec.get("cpu_reservation", 0.0), "["),
        realtime=slice_spec.get("realtime", False),
        cpu_cap=(None if slice_spec.get("cpu_cap") is None
                 else _fraction("slice.cpu_cap", slice_spec["cpu_cap"], "(")),
        tap_route_prefix=spec.get("tap_route_prefix", OVERLAY_PREFIX),
    )
    if "topology" not in spec:
        raise SpecError("spec has no 'topology' section")
    topology = _section("topology", spec["topology"], ("nodes", "links"))
    for vname, pname in topology.get("nodes", {}).items():
        exp.add_node(vname, _known("topology.nodes", vname, pname, vini.nodes))
    for index, link in enumerate(topology.get("links", [])):
        where = f"topology.links[{index}]"
        _section(where, link, ("a", "b", "cost", "bandwidth", "map_physical"),
                 ("a", "b"))
        a = _known(where, "a", link["a"], exp.network.nodes)
        b = _known(where, "b", link["b"], exp.network.nodes)
        try:
            exp.connect(a, b, cost=link.get("cost", 1),
                        bandwidth=link.get("bandwidth"),
                        map_physical=link.get("map_physical", True))
        except ValueError as err:  # an OSPF cost out of range
            raise SpecError(f"{where}: {err}") from None
    routing = spec.get("routing", {})
    protocol = routing.get("protocol", "ospf") if isinstance(routing, dict) else "ospf"
    if protocol not in _ROUTING_KEYS:
        raise SpecError(f"unknown routing protocol {protocol!r} "
                        f"(known: {', '.join(sorted(_ROUTING_KEYS))})")
    _section("routing", routing, ("protocol",) + _ROUTING_KEYS[protocol])
    if protocol == "ospf":
        exp.configure_ospf(
            hello_interval=routing.get("hello_interval", 10.0),
            dead_interval=routing.get("dead_interval", 40.0),
        )
    if spec.get("upcalls"):
        exp.enable_upcalls()
    for index, event in enumerate(spec.get("events", [])):
        where = f"events[{index}]"
        _section(where, event, ("time", "plan", "action", "args"),
                 ("time", "action"))
        plan = FaultPlan(event.get("plan", "spec"))
        try:
            plan.actions.append(FaultAction(
                event["time"], event["action"], tuple(event.get("args", ()))))
            plan.install(exp)
        except (TypeError, ValueError, UnsupportedFault) as err:
            raise SpecError(f"{where}: {err}") from None
    return vini, exp


def experiment_spec(exp: Experiment) -> Dict[str, Any]:
    """Serialize an experiment back into the spec schema.

    Physical topology is included so the spec is self-contained, and
    nodes and links keep their construction order (it numbers their
    addresses). The schema has one ``cpu_speed`` for every node, so
    nodes of different speeds raise :class:`SpecError` naming them.
    Every timetable row is an event; a ``FaultPlan.at`` firing, whose
    callable has no spec form, raises :class:`SpecError` naming its
    label.
    """
    vini = exp.vini
    speeds = {name: node.cpu.speed for name, node in vini.nodes.items()}
    if len(set(speeds.values())) > 1:
        raise SpecError(
            "physical: nodes differ in cpu_speed ("
            + ", ".join(f"{name}={speed:g}" for name, speed in speeds.items())
            + "), which a spec cannot carry"
        )
    spec: Dict[str, Any] = {
        "name": exp.name,
        "seed": vini.sim.seed,
        "slice": {
            "cpu_share": exp.slice.cpu_share,
            "cpu_reservation": exp.slice.cpu_reservation,
            "realtime": exp.slice.realtime,
            "cpu_cap": exp.slice.cpu_cap,
        },
        "tap_route_prefix": str(exp.network.tap_route_prefix),
        "physical": {
            "nodes": list(vini.nodes),
            "cpu_speed": next(iter(speeds.values()), 1.0),
            "links": [
                {
                    "a": link.endpoints[0].node.name,
                    "b": link.endpoints[1].node.name,
                    "bandwidth": link.bandwidth,
                    "delay": link.delay,
                    "queue_bytes": link.queue_bytes,
                }
                for link in vini.links.values()
            ],
        },
        "topology": {
            "nodes": {
                name: vnode.phys_node.name
                for name, vnode in exp.network.nodes.items()
            },
            "links": [
                {
                    "a": vlink.a.name,
                    "b": vlink.b.name,
                    "cost": vlink.cost,
                    "bandwidth": vlink.bandwidth,
                    "map_physical": bool(vlink.physical_links),
                }
                for vlink in exp.network.links
            ],
        },
        "upcalls": bool(exp.upcalls._observed),
        "events": [],
    }
    sample = next(iter(exp.network.nodes.values()), None)
    if sample is not None and sample.xorp.ospf is not None:
        spec["routing"] = {
            "protocol": "ospf",
            "hello_interval": sample.xorp.ospf.hello_interval,
            "dead_interval": sample.xorp.ospf.dead_interval,
        }
    for time, plan, action in exp.events:
        if action.kind == "call":
            raise SpecError(
                f"event {action.label!r} at t={time:g} calls a function, "
                "which a spec cannot carry"
            )
        spec["events"].append({"time": time, "plan": plan,
                               "action": action.kind, "args": list(action.args)})
    return spec
