"""Property tests: random topologies + random fault plans never make the
invariant checker cry wolf on a static-routed physical network.

Static underlay routes are loop-free by construction (shortest-path
trees), so whatever a `FaultPlan` does — flaps, crashes, CPU bursts —
the checker must come up clean once the dust settles.  Violations on
such runs would be false alarms.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.infrastructure import VINI
from repro.faults import FaultPlan, InvariantChecker
from repro.sim.engine import Simulator
from repro.tools import Ping

END_AT = 8.0  # past every drawn fault's recovery


@st.composite
def topologies(draw):
    """A connected 3-6 node graph: a line backbone plus random chords."""
    n = draw(st.integers(min_value=3, max_value=6))
    edges = [(f"n{i}", f"n{i + 1}") for i in range(n - 1)]
    chords = [
        (f"n{i}", f"n{j}")
        for i in range(n)
        for j in range(i + 2, n)
    ]
    for chord in chords:
        if draw(st.booleans()):
            edges.append(chord)
    return n, edges


@st.composite
def fault_events(draw, nodes, edges):
    kind = draw(st.sampled_from(["flap", "crash", "burst"]))
    at = draw(st.floats(min_value=0.2, max_value=3.0))
    if kind == "flap":
        a, b = draw(st.sampled_from(edges))
        return (
            "flap", a, b, at,
            draw(st.floats(min_value=0.1, max_value=0.8)),  # down
            draw(st.floats(min_value=0.1, max_value=0.8)),  # up
            draw(st.integers(min_value=1, max_value=2)),  # count
        )
    node = draw(st.sampled_from(nodes))
    if kind == "crash":
        return ("crash", node, at,
                draw(st.floats(min_value=0.2, max_value=1.0)))
    return ("burst", node, at,
            draw(st.floats(min_value=0.1, max_value=0.5)))


@st.composite
def scenarios(draw):
    n, edges = draw(topologies())
    nodes = [f"n{i}" for i in range(n)]
    events = draw(
        st.lists(fault_events(nodes=nodes, edges=edges), min_size=1,
                 max_size=5)
    )
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
            min_size=1, max_size=3,
        )
    )
    return n, edges, events, pairs


def _build(n, edges):
    vini = VINI(seed=7)
    for i in range(n):
        vini.add_node(f"n{i}")
    for a, b in edges:
        vini.connect(a, b, delay=0.001)
    vini.install_underlay_routes()
    return vini


def _plan(events):
    """The drawn events as a plan on the physical substrate."""
    plan = FaultPlan("drawn")
    for event in events:
        if event[0] == "flap":
            _, a, b, at, down, up, count = event
            for cycle in range(count):
                plan.fail_physical(at + cycle * (down + up), a, b, duration=down)
        elif event[0] == "crash":
            _, node, at, duration = event
            plan.crash_physical(at, node, duration=duration)
        else:
            _, node, at, duration = event
            plan.cpu_burst(at, node, duration=duration)
    return plan


@settings(max_examples=15, deadline=None)
@given(scenarios())
def test_no_false_alarms_under_random_faults(scenario):
    n, edges, events, pairs = scenario
    vini = _build(n, edges)
    checker = InvariantChecker(vini).install()
    _plan(events).install(vini)
    for src, dst in pairs:
        if src == dst:
            continue
        Ping(vini.nodes[src], vini.nodes[dst].address, count=10,
             interval=0.3).start()
    vini.run(until=END_AT)
    checker.check_now()
    assert checker.violations == [], checker.report()


@settings(max_examples=15, deadline=None)
@given(scenarios(), st.integers(min_value=0, max_value=2**32 - 1))
def test_drawn_plans_resolve_deterministically(scenario, seed):
    _, edges, events, _ = scenario
    plan = _plan(events).random_flaps(edges, (4.0, 7.0), count=3)
    schedules = [
        [(a.time, a.kind, a.args)
         for a in plan.resolve(Simulator(seed=seed))]
        for _ in range(2)
    ]
    assert schedules[0] == schedules[1]
