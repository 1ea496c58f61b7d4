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

``build_experiment(SPEC)`` returns a ready (vini, experiment) pair, and
``experiment_spec(exp)`` round-trips a programmatically built
experiment back into this form. The ``ospf_timers`` ablation of
``benchmarks/paper.py`` builds its square from such a specification,
so a misspelt key or name is refused (``SpecError`` naming the section
and the key), never run as a default.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.experiment import Experiment
from repro.core.infrastructure import VINI

_EVENT_ACTIONS = {
    "fail_link": "fail_link_at",
    "recover_link": "recover_link_at",
    "fail_physical": "fail_physical_at",
    "recover_physical": "recover_physical_at",
}
_ROUTING_KEYS = {
    "ospf": ("hello_interval", "dead_interval"),
    "rip": ("update_interval", "timeout"),
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


def _known(where: str, key: str, name: Any, names) -> Any:
    if name not in names:
        raise SpecError(f"{where}: {key!r} names unknown node {name!r}")
    return name


def build_experiment(
    spec: Dict[str, Any], vini: Optional[VINI] = None, seed: int = 0
) -> Tuple[VINI, Experiment]:
    """Construct (vini, experiment) from a specification dict.

    ``vini`` may be supplied (a pre-built substrate, e.g. the Abilene
    deployment); otherwise the spec's ``physical`` section is required.
    """
    _section("spec", spec, (
        "name", "seed", "slice", "physical", "topology", "routing",
        "upcalls", "events", "tap_route_prefix"))
    if vini is None:
        if "physical" not in spec:
            raise SpecError("spec has no 'physical' section and no vini given")
        physical = _section(
            "physical", spec["physical"], ("nodes", "links", "cpu_speed"))
        vini = VINI(seed=spec.get("seed", seed))
        for name in physical.get("nodes", []):
            vini.add_node(name, cpu_speed=physical.get("cpu_speed", 1.0))
        for index, link in enumerate(physical.get("links", [])):
            where = f"physical.links[{index}]"
            _section(where, link, ("a", "b", "bandwidth", "delay"), ("a", "b"))
            vini.connect(
                _known(where, "a", link["a"], vini.nodes),
                _known(where, "b", link["b"], vini.nodes),
                bandwidth=link.get("bandwidth", 1e9),
                delay=link.get("delay", 0.001),
            )
        vini.install_underlay_routes()
    slice_spec = _section("slice", spec.get("slice", {}), (
        "cpu_share", "cpu_reservation", "realtime", "cpu_cap"))
    exp = Experiment(
        vini,
        spec.get("name", "experiment"),
        cpu_share=slice_spec.get("cpu_share", 1.0),
        cpu_reservation=slice_spec.get("cpu_reservation", 0.0),
        realtime=slice_spec.get("realtime", False),
        cpu_cap=slice_spec.get("cpu_cap"),
        tap_route_prefix=spec.get("tap_route_prefix", "10.0.0.0/8"),
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
        exp.connect(
            _known(where, "a", link["a"], exp.network.nodes),
            _known(where, "b", link["b"], exp.network.nodes),
            cost=link.get("cost", 1),
            bandwidth=link.get("bandwidth"),
            map_physical=link.get("map_physical", True),
        )
    routing = spec.get("routing", {})
    protocol = routing.get("protocol", "ospf") if isinstance(routing, dict) else "ospf"
    if protocol not in _ROUTING_KEYS:
        raise SpecError(f"unknown routing protocol {protocol!r}")
    _section("routing", routing, ("protocol",) + _ROUTING_KEYS[protocol])
    if protocol == "ospf":
        exp.configure_ospf(
            hello_interval=routing.get("hello_interval", 10.0),
            dead_interval=routing.get("dead_interval", 40.0),
        )
    elif protocol == "rip":
        for vnode in exp.network.nodes.values():
            vnode.xorp.configure_rip(
                update_interval=routing.get("update_interval", 30.0),
                timeout=routing.get("timeout", 180.0),
            )
    if spec.get("upcalls"):
        exp.enable_upcalls()
    for index, event in enumerate(spec.get("events", [])):
        where = f"events[{index}]"
        _section(where, event, ("time", "action", "args"), ("time", "action"))
        method = _EVENT_ACTIONS.get(event["action"])
        if method is None:
            raise SpecError(f"{where}: unknown event action {event['action']!r}")
        try:
            a, b = event.get("args")
            (vini if "physical" in method else exp.network).link_between(a, b)
        except (TypeError, ValueError, KeyError):
            raise SpecError(
                f"{where}: 'args' must name the two ends of a link, "
                f"got {event.get('args')!r}"
            ) from None
        getattr(exp, method)(event["time"], a, b)
    return vini, exp


def experiment_spec(exp: Experiment) -> Dict[str, Any]:
    """Serialize an experiment back into the spec schema.

    Physical topology is included so the spec is self-contained;
    scheduled events are reproduced from the timetable labels.
    """
    vini = exp.vini
    spec: Dict[str, Any] = {
        "name": exp.name,
        "slice": {
            "cpu_share": exp.slice.cpu_share,
            "cpu_reservation": exp.slice.cpu_reservation,
            "realtime": exp.slice.realtime,
            "cpu_cap": exp.slice.cpu_cap,
        },
        "physical": {
            "nodes": sorted(vini.nodes),
            "links": [
                {
                    "a": a,
                    "b": b,
                    "bandwidth": link.bandwidth,
                    "delay": link.delay,
                }
                for (a, b), link in sorted(vini.links.items())
            ],
        },
        "topology": {
            "nodes": {
                name: vnode.phys_node.name
                for name, vnode in sorted(exp.network.nodes.items())
            },
            "links": [
                {
                    "a": vlink.a.name,
                    "b": vlink.b.name,
                    "cost": vlink.cost,
                    "bandwidth": vlink.bandwidth,
                }
                for vlink in exp.network.links
            ],
        },
        "events": [],
    }
    sample = next(iter(exp.network.nodes.values()), None)
    if sample is not None and sample.xorp.ospf is not None:
        spec["routing"] = {
            "protocol": "ospf",
            "hello_interval": sample.xorp.ospf.hello_interval,
            "dead_interval": sample.xorp.ospf.dead_interval,
        }
    for event in exp.events:
        words = event.label.split()
        if not words:
            continue
        if words[0] == "fail" and "=" in words[-1]:
            a, b = words[-1].split("=")
            spec["events"].append(
                {"time": event.time, "action": "fail_link", "args": [a, b]}
            )
        elif words[0] == "recover" and "=" in words[-1]:
            a, b = words[-1].split("=")
            spec["events"].append(
                {"time": event.time, "action": "recover_link", "args": [a, b]}
            )
    return spec
