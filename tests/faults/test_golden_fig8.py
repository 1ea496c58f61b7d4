"""Golden traces for the Fig-8 failover scenario under a FaultPlan.

Four guarantees, all byte-level:

* same seed, same plan => the full measurement trace replays
  identically (controlled experiments are *repeatable*, Section 6.2);
* that trace is the one recorded at an earlier commit (a sha256
  constant), so a change that reorders events the same way on every
  run cannot pass;
* a plan-driven run is event-for-event identical to the same scenario
  scheduled inline on the simulator — the DSL adds a ``fault`` record
  per firing and changes nothing else;
* the run rebuilt from its own specification,
  ``build_experiment(experiment_spec(exp))``, is that same trace
  (Section 6.2: the spec holds everything needed to reconstruct a run).
"""

import hashlib

from repro.core.spec import build_experiment, experiment_spec
from repro.faults import FaultPlan
from repro.tools import Ping
from repro.topologies import build_abilene_iias

WARMUP = 40.0
FAIL_AT = 10.0
RECOVER_AT = 34.0
END_AT = 45.0
SEED = 8

# sha256 of the serialized plan-driven trace, recorded at commit 57df67b
# (the last one with the timer wheel). Re-record only for a deliberate,
# documented change of simulated behaviour.
GOLDEN_SHA256 = "ebd195fe8934807f21f3aa5449cbcc1a0eb245ea84b5c6e95743421228f5e130"


def _serialize(sim, exclude=()):
    return "\n".join(
        f"{r.time:.9f} {r.kind} {sorted(r.fields.items())!r}"
        for r in sim.trace.records
        if r.kind not in exclude
    )


def _run(schedule, build=lambda: build_abilene_iias(seed=SEED)):
    """Build the scenario, let ``schedule(exp)`` inject the failure."""
    vini, exp = build()
    exp.run(until=WARMUP)
    schedule(exp)
    washington = exp.network.nodes["washington"]
    seattle = exp.network.nodes["seattle"]
    Ping(
        washington.phys_node, seattle.tap_addr, sliver=washington.sliver,
        interval=0.5, count=int(END_AT / 0.5),
    ).start()
    vini.run(until=WARMUP + END_AT + 2.0)
    return vini.sim


def _with_plan(exp):
    plan = FaultPlan("fig8").fail_link(
        FAIL_AT, "denver", "kansascity", duration=RECOVER_AT - FAIL_AT
    )
    exp.apply_faults(plan, offset=WARMUP)


def _inline(exp):
    exp.sim.schedule(WARMUP + FAIL_AT, exp.network.fail_link, "denver", "kansascity")
    exp.sim.schedule(WARMUP + RECOVER_AT, exp.network.recover_link,
                     "denver", "kansascity")


def test_fig8_fault_plan_replays_byte_identically():
    first = _serialize(_run(_with_plan))
    second = _serialize(_run(_with_plan))
    assert first == second
    assert "fault" in first  # the plan actually drove the failure
    assert hashlib.sha256(first.encode()).hexdigest() == GOLDEN_SHA256


def test_fig8_unchanged_with_policy_layer_loaded():
    """The Gao-Rexford policy layer is importable — and even running,
    on its own simulator — without perturbing a policy-free golden
    run by a byte."""
    baseline = _serialize(_run(_with_plan))

    from repro.sim.engine import Simulator
    from repro.topologies.internet import build_policy_graph

    side_sim = Simulator(seed=99)
    build_policy_graph(side_sim, 3, [(1, 2), (1, 3)], [(2, 3)])
    side_sim.run(until=20.0)

    assert _serialize(_run(_with_plan)) == baseline


def test_fig8_fault_plan_matches_inline_baseline():
    """Modulo its own ``fault`` records, a plan-driven run is the same
    simulation as the hand-scheduled baseline."""
    planned_sim = _run(_with_plan)
    baseline_sim = _run(_inline)
    planned = _serialize(planned_sim, exclude=("fault",))
    baseline = _serialize(baseline_sim, exclude=("fault",))
    assert planned == baseline
    assert planned.count("vlink_state") == 2  # the failure and recovery
    # And the plan logged exactly its two firings.
    assert planned_sim.trace.count("fault", plan="fig8") == 2
    assert baseline_sim.trace.count("fault") == 0


def test_fig8_rebuilt_from_its_own_spec_hashes_to_the_golden():
    """The spec of the run — taken after the warm-up, with the plan
    installed — rebuilds the golden run byte for byte, although the
    rebuilt plan is scheduled at build time rather than after warm-up."""
    vini, exp = build_abilene_iias(seed=SEED)
    exp.run(until=WARMUP)
    _with_plan(exp)
    spec = experiment_spec(exp)
    assert spec["events"] == [
        {"time": WARMUP + FAIL_AT, "plan": "fig8", "action": "fail_link",
         "args": ["denver", "kansascity"]},
        {"time": WARMUP + RECOVER_AT, "plan": "fig8", "action": "recover_link",
         "args": ["denver", "kansascity"]},
    ]
    rebuilt = _serialize(_run(lambda exp: None,
                              build=lambda: build_experiment(spec)))
    assert hashlib.sha256(rebuilt.encode()).hexdigest() == GOLDEN_SHA256
