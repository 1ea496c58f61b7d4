"""A deterministic pin on what one fluid re-solve costs.

Tier-1 cannot gate wall-clock, so the solve is pinned the way the
per-packet path is (``tests/integration/test_packet_path_budget.py``):
by a count that repeats exactly — Python frames entered in
``repro/traffic`` and ``repro/phys/link.py`` per solve, over a seeded
Abilene churn with every PoP pair's class live throughout. It fails at
07f9da8, where a solve called ``_advance_class`` once per class,
``measure_packets`` and ``_apply_channel`` -> ``set_fluid`` once per
channel (the ``Link.bandwidth`` property four times each) and built
its fill inputs in three comprehensions.
"""

import os
import random
import sys

from repro.topologies.abilene import ABILENE_POPS, build_abilene
from repro.traffic import FluidTrafficPlane

TRAFFIC = os.sep + os.path.join("repro", "traffic") + os.sep
LINK = os.sep + os.path.join("repro", "phys", "link.py")

# Measured on this schedule under Python 3.11 (exact, seeded): 33 877
# frames over 601 solves = 56.4 each; 07f9da8 measured 192 500 = 320.3
# each. Comprehensions are frames up to 3.11 and inlined from 3.12, so
# 3.11 is the interpreter that counts more. The budget is the new value
# + 10 %.
FRAMES_PER_SOLVE_BUDGET = 62.0


def test_frames_per_solve(gc_paused):
    vini = build_abilene(seed=3)
    plane = FluidTrafficPlane(vini)
    sim = vini.sim
    rng = random.Random(3)
    pairs = [(a, b) for a in ABILENE_POPS for b in ABILENE_POPS if a != b]
    for src, dst in pairs:  # all 110 classes stay live to the end
        plane.add_flow(src, dst, demand_bps=30e3, count=100)

    def session(src, dst, users, stop_at):
        flow = plane.add_flow(src, dst, demand_bps=30e3, count=users)
        sim.schedule(stop_at, flow.stop)

    for _ in range(300):
        start = rng.uniform(0.1, 9.0)
        src, dst = rng.choice(pairs)
        sim.schedule(start, session, src, dst, rng.choice((1, 10, 100)),
                     start + rng.expovariate(1.0 / 3.0))

    frames = 0

    def count(frame, event, _arg):
        nonlocal frames
        if event == "call":
            filename = frame.f_code.co_filename
            if TRAFFIC in filename or filename.endswith(LINK):
                frames += 1

    sys.setprofile(count)
    try:
        vini.run(until=40.0)
    finally:
        sys.setprofile(None)
    stats = plane.stats
    assert stats["classes"] == len(pairs) == 110
    assert stats["flows_active"] == 110 * 100  # every session came and went
    # A start and a stop each dirty the plane; some rounds bottleneck.
    assert 550 <= stats["solver_runs"] <= 601
    assert stats["solver_iterations"] > stats["solver_runs"]
    assert frames / stats["solver_runs"] <= FRAMES_PER_SOLVE_BUDGET, (
        frames, stats["solver_runs"])
