"""A deterministic pin on what one fluid re-solve costs.

Tier-1 cannot gate wall-clock, so the solve is pinned the way the
per-packet path is (``tests/integration/test_packet_path_budget.py``):
by counts that repeat exactly, over a seeded Abilene churn with every
PoP pair's class live throughout. One is the Python frames entered in
``repro/traffic`` and ``repro/phys/link.py`` per solve; it fails at
07f9da8, where a solve called ``_advance_class`` once per class,
``measure_packets`` and ``_apply_channel`` -> ``set_fluid`` once per
channel (the ``Link.bandwidth`` property four times each) and built
its fill inputs in three comprehensions. The other is the source lines
run in ``repro/traffic`` per solve, which sees a walk over every class
where a frame count does not; it fails at 1d5a25b, whose fill tested
every active class in every round and whose solve summed every
channel's load afresh.
"""

import os
import random
import sys

from repro.topologies.abilene import ABILENE_POPS, build_abilene
from repro.traffic import FluidTrafficPlane

TRAFFIC = os.sep + os.path.join("repro", "traffic") + os.sep
LINK = os.sep + os.path.join("repro", "phys", "link.py")

# Measured on this schedule under Python 3.11 (exact, seeded); 3.9 and
# 3.12 are held to the same figures. Frames: 32 484 over 601 solves =
# 54.0 each; 1d5a25b measured 35 679 = 59.4, 07f9da8 192 500 = 320.3.
# Comprehensions are frames up to 3.11 and inlined from 3.12, so 3.11
# is the interpreter that counts more; a generator expression resumes
# its frame at every item, so the solve has none. About 36 of the 54
# are the ``Link.bandwidth`` reads of the per-channel EWMA walk. Lines:
# 1 029 171 = 1 712.4 each; 1d5a25b measured 2 572 128 = 4 279.7. Each
# budget is the figure + 10 %.
FRAMES_PER_SOLVE_BUDGET = 59.5
LINES_PER_SOLVE_BUDGET = 1883.7


def _churn():
    """Abilene with all 110 PoP-pair classes live and 300 sessions on
    top, not yet run."""
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
    return vini, plane


def _solves(plane) -> int:
    stats = plane.stats
    assert stats["classes"] == 110
    assert stats["flows_active"] == 110 * 100  # every session came and went
    # A start and a stop each dirty the plane; some rounds bottleneck.
    assert 550 <= stats["solver_runs"] <= 601
    assert stats["solver_iterations"] > stats["solver_runs"]
    return stats["solver_runs"]


def test_frames_per_solve(gc_paused):
    vini, plane = _churn()
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
    solves = _solves(plane)
    assert frames / solves <= FRAMES_PER_SOLVE_BUDGET, (frames, solves)


def test_lines_per_solve(gc_paused):
    vini, plane = _churn()
    lines = 0

    def local(_frame, event, _arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def call(frame, _event, _arg):
        return local if TRAFFIC in frame.f_code.co_filename else None

    sys.settrace(call)
    try:
        vini.run(until=40.0)
    finally:
        sys.settrace(None)
    solves = _solves(plane)
    assert lines / solves <= LINES_PER_SOLVE_BUDGET, (lines, solves)
