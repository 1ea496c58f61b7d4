"""Round-trip battery: a run rebuilt from its own spec is the same run.

Section 6.2 asks that a specification hold "everything needed to
reconstruct a run". Hypothesis draws fault plans on the Abilene mirror
over every kind a spec can carry — virtual link failures and flaps,
physical link failures, virtual and physical crashes, loss episodes,
CPU bursts and both seeded generators — and installs them before the
first ``run()``: on the experiment, or (substrate kinds only) on its
VINI. ``build_experiment`` of the spec's JSON text must then give an
equal ``timetable()``, the same spec again, and a byte-identical trace
over a pinged run. ``make props`` runs it deeper, and tier-2 CI under
two str-hash seeds.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from repro.core.spec import build_experiment, experiment_spec  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.tools import Ping  # noqa: E402
from repro.topologies import build_abilene_iias  # noqa: E402
from repro.topologies.abilene import ABILENE_LINKS, ABILENE_POPS  # noqa: E402
from tests.conftest import battery  # noqa: E402

HORIZON = 25.0  # OSPF up by ~10 s; every drawn injection lands before 22 s
LINKS = sorted(ABILENE_LINKS)
SUBSTRATE = {"fail_physical", "crash_physical", "cpu_burst"}

times = st.floats(min_value=0.5, max_value=12.0)
spans = st.floats(min_value=0.2, max_value=6.0)
links = st.sampled_from(LINKS)
pops = st.sampled_from(ABILENE_POPS)


@st.composite
def calls(draw):
    """One builder call: (method, args, kwargs)."""
    kind = draw(st.sampled_from([
        "fail_link", "flap_link", "fail_physical", "crash_node",
        "crash_physical", "loss_episode", "cpu_burst", "random_flaps",
        "random_loss_episodes"]))
    at, (a, b) = draw(times), draw(links)
    if kind in ("fail_link", "fail_physical"):
        return kind, (at, a, b), {"duration": draw(st.none() | spans)}
    if kind == "flap_link":
        return kind, (a, b), {"start": at, "down": draw(spans),
                              "up": draw(spans), "count": draw(st.integers(1, 2))}
    if kind in ("crash_node", "crash_physical"):
        return kind, (at, draw(pops)), {"duration": draw(st.none() | spans)}
    if kind == "loss_episode":
        return kind, (at, a, b), {"duration": draw(spans),
                                  "drop_prob": draw(st.floats(0.0, 1.0))}
    if kind == "cpu_burst":
        return kind, (at, draw(pops), draw(spans)), {
            "share": draw(st.sampled_from([0.5, 1.0, 4.0]))}
    window = (at, at + draw(spans))
    chosen = draw(st.lists(links, min_size=1, max_size=3))
    return kind, (chosen, window, draw(st.integers(1, 3))), {}


@st.composite
def installs(draw):
    """1-3 plans: (name, offset, builder calls, on the VINI?)."""
    plans = []
    for _ in range(draw(st.integers(1, 3))):
        body = draw(st.lists(calls(), min_size=1, max_size=4))
        substrate_only = all(kind in SUBSTRATE for kind, _, _ in body)
        plans.append((
            draw(st.sampled_from(["p", "q"])),  # names may repeat
            draw(st.sampled_from([0.0, 2.5, 4.0])),
            body,
            substrate_only and draw(st.booleans()),
        ))
    return plans


def _serialize(sim):
    """The trace as text, packet ids included: each simulator numbers
    its own, so two worlds built in one process agree there too."""
    return "\n".join(
        f"{r.time:.9f} {r.kind} {sorted(r.fields.items())!r}"
        for r in sim.trace.records
    )


def _wire(link):
    return link.name, link.bandwidth, link.delay, link.queue_bytes


def _run(vini, exp):
    vini.sim.trace.enable("drop")
    washington = exp.network.nodes["washington"]
    seattle = exp.network.nodes["seattle"]
    Ping(washington.phys_node, seattle.tap_addr, sliver=washington.sliver,
         interval=0.5, count=int(HORIZON / 0.5)).start()
    exp.run(until=HORIZON)
    return _serialize(vini.sim)


# Each example is two 25 s Abilene runs; a failure is reported as drawn,
# since shrinking one would take minutes.
@settings(battery(8, thorough=150),
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(seed=st.integers(0, 3), upcalls=st.booleans(), plans=installs())
def test_spec_rebuilds_the_run_it_describes(seed, upcalls, plans):
    vini, exp = build_abilene_iias(seed=seed)
    if upcalls:
        exp.enable_upcalls()
    for name, offset, body, on_vini in plans:
        plan = FaultPlan(name)
        for kind, args, kwargs in body:
            getattr(plan, kind)(*args, **kwargs)
        plan.install(vini if on_vini else exp, offset=offset)
    spec = experiment_spec(exp)
    vini2, exp2 = build_experiment(json.loads(json.dumps(spec)))
    assert exp2.timetable() == exp.timetable()
    assert experiment_spec(exp2) == spec
    assert [_wire(link) for link in vini2.links.values()] == [
        _wire(link) for link in vini.links.values()]
    assert _run(vini2, exp2) == _run(vini, exp)
