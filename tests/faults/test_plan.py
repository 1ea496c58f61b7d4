"""FaultPlan: builder semantics, seeded determinism, installation."""

import pytest

from repro.core.infrastructure import VINI
from repro.faults import FaultPlan, UnsupportedFault
from repro.phys.load import CPUHog
from repro.sim.engine import Simulator
from repro.topologies import build_line


NAN, INF = float("nan"), float("inf")


def _pair():
    """A 2-node physical network for install tests."""
    vini = VINI(seed=3)
    vini.add_node("a")
    vini.add_node("b")
    vini.connect("a", "b", delay=0.001)
    vini.install_underlay_routes()
    return vini


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def test_fail_link_with_duration_adds_recovery():
    plan = FaultPlan().fail_link(5.0, "a", "b", duration=2.5)
    assert plan.timetable() == [(5.0, "fail a=b"), (7.5, "recover a=b")]


def test_flap_link_expands_to_cycles():
    plan = FaultPlan().flap_link("a", "b", start=1.0, down=2.0, up=3.0, count=2)
    assert plan.timetable() == [
        (1.0, "fail a=b"),
        (3.0, "recover a=b"),
        (6.0, "fail a=b"),
        (8.0, "recover a=b"),
    ]


def test_loss_episode_sets_and_restores():
    plan = FaultPlan().loss_episode(2.0, "a", "b", duration=3.0, drop_prob=0.25)
    times = [t for t, _ in plan.timetable()]
    assert times == [2.0, 5.0]
    assert plan.actions[0].args == ("a", "b", 0.25)
    assert plan.actions[1].args == ("a", "b", 0.0)


def test_crash_node_with_duration_adds_restart():
    plan = FaultPlan().crash_node(1.0, "x", duration=4.0)
    assert [a.kind for a in plan.actions] == ["crash_node", "restart_node"]
    assert plan.actions[1].time == 5.0


@pytest.mark.parametrize(
    "build",
    [
        lambda p: p.fail_link(-1.0, "a", "b"),
        lambda p: p.fail_link(0.0, "a", "b", duration=0.0),
        lambda p: p.flap_link("a", "b", start=0.0, down=0.0, up=1.0),
        lambda p: p.flap_link("a", "b", start=0.0, down=1.0, up=1.0, count=0),
        lambda p: p.loss_episode(0.0, "a", "b", duration=1.0, drop_prob=1.5),
        lambda p: p.cpu_burst(0.0, "a", duration=-1.0),
        lambda p: p.random_flaps([("a", "b")], (0.0, 1.0), count=0),
        # Each below used to build, then hang the run, raise mid-run, or
        # (a NaN recovery) leave a link failed for good. quantum=0 would
        # hang on zero-cost hog chunks at one instant: it is only built.
        pytest.param(lambda p: p.cpu_burst(1.0, "a", 1.0, quantum=0.0), id="quantum-0"),
        pytest.param(lambda p: p.cpu_burst(1.0, "a", 1.0, quantum=INF), id="quantum-inf"),
        pytest.param(lambda p: p.cpu_burst(1.0, "a", 1.0, share=0.0), id="share-0"),
        pytest.param(lambda p: p.cpu_burst(1.0, "a", 1.0, share=INF), id="share-inf"),
        pytest.param(lambda p: p.cpu_burst(1.0, "a", NAN), id="burst-duration-nan"),
        pytest.param(lambda p: p.cpu_burst(1.0, "a", INF), id="burst-duration-inf"),
        pytest.param(lambda p: p.fail_link(NAN, "a", "b"), id="time-nan"),
        pytest.param(lambda p: p.fail_link(INF, "a", "b"), id="time-inf"),
        pytest.param(lambda p: p.fail_link(1.0, "a", "b", duration=NAN), id="fail-duration-nan"),
        pytest.param(lambda p: p.crash_node(1.0, "a", duration=INF), id="crash-duration-inf"),
        pytest.param(lambda p: p.loss_episode(1.0, "a", "b", NAN, 0.5), id="loss-duration-nan"),
        pytest.param(lambda p: p.loss_episode(1.0, "a", "b", INF, 0.5), id="loss-duration-inf"),
        pytest.param(lambda p: p.random_flaps([("a", "b")], (0.0, 1.0), 1, down=(0.0, 1.0)),
                     id="flap-down-0"),
        pytest.param(lambda p: p.random_flaps([("a", "b")], (0.0, 1.0), 1, down=(-2.0, -1.0)),
                     id="flap-down-negative"),
        pytest.param(lambda p: p.random_flaps([("a", "b")], (0.0, 1.0), 1, down=(2.0, 1.0)),
                     id="flap-down-reversed"),
        pytest.param(lambda p: p.random_flaps([("a", "b")], (0.0, 1.0), 1, down=(1.0, INF)),
                     id="flap-down-inf"),
        pytest.param(lambda p: p.random_loss_episodes([("a", "b")], (0.0, 1.0), 1,
                                                      duration=(-1.0, 1.0)),
                     id="episode-duration-negative"),
        pytest.param(lambda p: p.random_loss_episodes([("a", "b")], (0.0, 1.0), 1,
                                                      duration=(1.0, NAN)),
                     id="episode-duration-nan"),
        pytest.param(lambda p: p.random_loss_episodes([("a", "b")], (0.0, 1.0), 1,
                                                      drop_prob=(1.5, 2.0)),
                     id="episode-drop-prob-above-1"),
        pytest.param(lambda p: p.random_loss_episodes([("a", "b")], (0.0, 1.0), 1,
                                                      drop_prob=(-0.5, 0.2)),
                     id="episode-drop-prob-negative"),
    ],
)
def test_builder_validation(build):
    with pytest.raises(ValueError):
        build(FaultPlan())


# ----------------------------------------------------------------------
# Seeded-random determinism
# ----------------------------------------------------------------------
def _random_plan():
    return (
        FaultPlan("storm")
        .fail_link(1.0, "a", "b", duration=1.0)
        .random_flaps([("a", "b"), ("b", "c")], (5.0, 20.0), count=6)
        .random_loss_episodes([("a", "b")], (5.0, 20.0), count=3)
    )


def _schedule(seed):
    sim = Simulator(seed=seed)
    return [
        (a.time, a.kind, a.args) for a in _random_plan().resolve(sim)
    ]


def test_seeded_generators_replay_identically():
    assert _schedule(42) == _schedule(42)


def test_different_seeds_give_different_schedules():
    assert _schedule(42) != _schedule(43)


def test_resolve_does_not_mutate_the_plan():
    plan = _random_plan()
    before = len(plan.actions)
    sim = Simulator(seed=1)
    expanded = plan.resolve(sim)
    assert len(plan.actions) == before
    assert len(expanded) > before


def test_resolve_is_sorted_and_tie_stable():
    plan = (
        FaultPlan()
        .recover_link(3.0, "x", "y")  # built first, fires first at t=3
        .fail_link(1.0, "a", "b")
        .fail_link(3.0, "a", "b")
    )
    sim = Simulator(seed=0)
    resolved = plan.resolve(sim)
    assert [a.time for a in resolved] == [1.0, 3.0, 3.0]
    assert resolved[1].label == "recover x=y"  # build order breaks the tie


def test_generator_draws_are_stream_isolated():
    """Another subsystem consuming simulator randomness does not shift
    the plan's schedule (named-stream isolation)."""
    sim_a = Simulator(seed=7)
    sim_b = Simulator(seed=7)
    sim_b.rng("other.subsystem").random()  # unrelated draw
    plan = _random_plan()
    assert [(a.time, a.args) for a in plan.resolve(sim_a)] == [
        (a.time, a.args) for a in plan.resolve(sim_b)
    ]


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def test_install_on_vini_fails_and_recovers_the_link():
    vini = _pair()
    link = vini.link_between("a", "b")
    plan = FaultPlan("t").fail_physical(1.0, "a", "b", duration=2.0)
    plan.install(vini)
    vini.run(until=1.5)
    assert not link.up
    vini.run(until=4.0)
    assert link.up
    faults = list(vini.sim.trace.select("fault", plan="t"))
    assert [r["action"] for r in faults] == ["fail_physical", "recover_physical"]


def test_install_offset_shifts_the_whole_schedule():
    vini = _pair()
    link = vini.link_between("a", "b")
    plan = FaultPlan().fail_physical(1.0, "a", "b")
    vini.run(until=5.0)
    plan.install(vini, offset=10.0)
    vini.run(until=10.5)
    assert link.up
    vini.run(until=11.5)
    assert not link.up


def test_call_escape_hatch():
    vini = _pair()
    fired = []
    plan = FaultPlan().at(2.0, fired.append, "marker", label="custom")
    plan.install(vini)
    vini.run(until=3.0)
    assert fired == ["marker"]


def test_cpu_burst_loads_the_node_then_stops():
    vini = _pair()
    node = vini.nodes["a"]
    plan = FaultPlan().cpu_burst(1.0, "a", duration=2.0)
    plan.install(vini)
    vini.run(until=10.0)
    # The hog consumed roughly the burst window and nothing more.
    assert 1.5 < node.cpu.busy_time < 2.6


def test_cpu_burst_on_a_hog_loaded_node_takes_a_fair_share():
    vini = _pair()
    node = vini.nodes["a"]
    for index in range(3):
        CPUHog(node, name=f"slice{index}", heavy_tail_prob=0.0).start()
    FaultPlan().cpu_burst(1.0, "a", duration=2.0).install(vini)
    vini.run(until=4.0)
    (burst,) = (p for p in node.cpu.processes if p.name == "faultburst0")
    # A quarter of the CPU for the two seconds of the burst; the hogs
    # kept it busy throughout.
    assert burst.cpu_used == pytest.approx(0.5, rel=0.05)
    assert node.cpu.busy_time == pytest.approx(4.0, rel=0.01)


def test_physical_target_rejects_loss_episodes():
    """A loss episode drops packets inside Click: a bare VINI has no
    overlay to carry it, and ``install`` says so before scheduling."""
    vini = _pair()
    plan = FaultPlan().loss_episode(1.0, "a", "b", duration=1.0, drop_prob=0.5)
    with pytest.raises(UnsupportedFault, match="set_loss.*overlay"):
        plan.install(vini)
    assert vini.faults == [] and vini.sim.peek() is None


@pytest.mark.parametrize("build, names", [
    (lambda p: p.fail_link(3.0, "n0", "zz"), ("fail_link", "n0=zz")),
    (lambda p: p.crash_node(3.0, "zz"), ("crash_node", "zz")),
    (lambda p: p.loss_episode(3.0, "zz", "n1", 1.0, 0.1), ("set_loss", "zz=n1")),
    (lambda p: p.fail_physical(3.0, "n0", "n2"), ("fail_physical", "n0--n2")),
    (lambda p: p.cpu_burst(3.0, "zz", 1.0), ("cpu_burst", "zz")),
])
def test_install_refuses_a_name_the_target_does_not_have(build, names):
    """Refused at install, naming the kind and the name — not a bare
    ``KeyError`` at t=3 in the middle of the run."""
    vini, exp = build_line(3)
    with pytest.raises(UnsupportedFault) as err:
        exp.apply_faults(build(FaultPlan().fail_link(1.0, "n0", "n1")))
    for name in names:
        assert name in str(err.value)
    assert exp.timetable() == [] and vini.sim.peek() is None


def test_each_kind_acts_on_one_layer_whatever_it_is_installed_on():
    """``fail_link`` is the virtual link, ``fail_physical`` the wire under
    it, on an Experiment and on its VINI alike."""
    vini, exp = build_line(2)
    exp.apply_faults(FaultPlan().fail_link(1.0, "n0", "n1"))
    FaultPlan().fail_physical(2.0, "n0", "n1").install(exp)
    vlink, wire = exp.network.link_between("n0", "n1"), vini.link_between("n0", "n1")
    vini.run(until=1.5)
    assert vlink.failed and wire.up
    vini.run(until=2.5)
    assert not wire.up
    with pytest.raises(UnsupportedFault, match="fail_link"):
        FaultPlan().fail_link(3.0, "n0", "n1").install(vini)


def test_cpu_bursts_are_numbered_per_node_not_per_install():
    """Two plans bursting one node start two distinct hogs."""
    vini = _pair()
    for name in ("p", "q"):
        FaultPlan(name).cpu_burst(1.0, "a", duration=1.0).install(vini)
    vini.run(until=1.5)
    hogs = [p.name for p in vini.nodes["a"].cpu.processes
            if p.name.startswith("faultburst")]
    assert hogs == ["faultburst0", "faultburst1"]


def test_install_rejects_unknown_targets():
    with pytest.raises(TypeError):
        FaultPlan().install(object())


def test_same_plan_installs_on_many_targets():
    plan = FaultPlan().fail_physical(1.0, "a", "b")
    for _ in range(2):
        vini = _pair()
        plan.install(vini)
        vini.run(until=2.0)
        assert not vini.link_between("a", "b").up


def test_experiment_install_records_the_timetable():
    vini, exp = build_line(3, realtime=True)
    plan = FaultPlan("lineplan").fail_link(2.0, "n0", "n1", duration=1.0)
    exp.apply_faults(plan, offset=5.0)
    assert (7.0, "fail n0=n1") in exp.timetable()
    assert (8.0, "recover n0=n1") in exp.timetable()
    vini.run(until=7.5)
    assert exp.network.link_between("n0", "n1").failed
    vini.run(until=9.0)
    assert not exp.network.link_between("n0", "n1").failed


def test_physical_target_adapter_is_reusable():
    """One VINI takes any number of plans, each recorded in its
    timetable in scheduling order."""
    vini = _pair()
    FaultPlan("down").fail_physical(1.0, "a", "b").install(vini)
    FaultPlan("up").recover_physical(2.0, "a", "b").install(vini)
    assert [(t, plan) for t, plan, _action, _on in vini.faults] == [
        (1.0, "down"), (2.0, "up")]
    vini.run(until=3.0)
    assert vini.link_between("a", "b").up
