"""A deterministic pin on what a standing-demand chunk costs.

Tier-1 cannot gate wall-clock, so the CPU's background load is pinned
the way the per-packet path is
(``tests/integration/test_packet_path_budget.py``): by a count that
repeats exactly. One node runs seven contending slices shaped like
Table 4's (``SLICE_HOG``), and nothing else, so every chunk ends inside
``CPUScheduler.catch_up``; the Python frames entered per chunk drawn
(``CPUHog._next``) are counted. It fails at 60c1fc5, where each chunk
went ``_complete`` -> ``wake`` -> ``_dispatch`` and drew through
``CPUHog._chunk``.
"""

import os
import sys

from repro.phys.load import CPUHog
from repro.phys.node import PhysicalNode
from repro.sim import Simulator
from repro.topologies.planetlab import SLICE_HOG

LOAD = os.sep + os.path.join("repro", "phys", "load.py")

# Measured under Python 3.11 (exact, seeded): 22 607 frames over 3 226
# chunks = 7.0 each (``is_due``, ``_charge``, ``_next``, ``_run``, the
# latency histogram's ``observe``, ``due`` and its ``_arm``); 60c1fc5
# measured 35 511 = 11.0. The budget is the figure + 10 %.
FRAMES_PER_CHUNK_BUDGET = 7.7


def test_frames_per_standing_chunk(gc_paused):
    sim = Simulator(seed=0)
    node = PhysicalNode(sim, "n")
    for index in range(7):
        CPUHog(node, name=f"slice{index}", **SLICE_HOG).start()
    sim.run(until=0.5)

    frames = chunks = 0

    def count(frame, event, _arg):
        nonlocal frames, chunks
        if event != "call":
            return
        frames += 1
        code = frame.f_code
        if code.co_name == "_next" and code.co_filename.endswith(LOAD):
            chunks += 1

    sys.setprofile(count)
    try:
        sim.run(until=2.5)
    finally:
        sys.setprofile(None)
    assert chunks >= 3000  # mostly 0.5 ms chunks over 2 sim-s
    assert frames / chunks <= FRAMES_PER_CHUNK_BUDGET, (frames, chunks)
