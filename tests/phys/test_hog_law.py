"""The hog law: a sleeper's scheduling wait on a PlanetLab node, against
renewal theory rather than against an older copy of the scheduler.

Seven contending slices (``CPUHog``, with the chunk law of
``topologies/planetlab.py``) keep the CPU busy; their chunks, drawn
i.i.d. whichever hog runs, form a renewal process. A plain process
waking at a random instant waits out the chunk on the CPU (the sleeper
credit puts it ahead of every hog), so its wait is that process's
residual life R, with E[R] = E[Q²]/2E[Q] and E[R²] = E[Q³]/3E[Q].

The sleeper's work costs nothing, so it never moves the hogs' chunks,
and its wakes are a Poisson process on their own stream: by PASTA each
wait is a draw of R. The sleeper waits in the fair-share heap beside the
hogs, and the hogs' chunks complete at the engine's horizon, so this
holds both against arithmetic.
"""

import inspect
import math
import statistics

import pytest

from repro.phys.load import CPUHog
from repro.phys.node import PhysicalNode
from repro.phys.process import Process
from repro.sim import Simulator
from repro.topologies.planetlab import SLICE_HOG, build_planetlab

SAMPLES = 1500
MEAN_GAP = 0.1  # s between wakes: about two 45 ms chunks
Z = 5.0  # tolerance in standard errors of independent samples


def chunk_moment(k):
    """E[Q^k] of a hog chunk: the quantum, or with the tail probability
    uniform on [quantum, tail max]."""
    q, p, m = (SLICE_HOG[key] for key in ("quantum", "heavy_tail_prob", "heavy_tail_max"))
    return (1 - p) * q ** k + p * (m ** (k + 1) - q ** (k + 1)) / ((k + 1) * (m - q))


def residual_moment(k):
    """E[R^k] = E[Q^(k+1)] / ((k+1) E[Q]) of the residual chunk life."""
    return chunk_moment(k + 1) / ((k + 1) * chunk_moment(1))


def sleeper_waits(seed):
    sim = Simulator(seed=seed)
    node = PhysicalNode(sim, "n0")
    for index in range(inspect.signature(build_planetlab).parameters["hogs"].default):
        CPUHog(node, name=f"slice{index}", **SLICE_HOG).start()
    sleeper = Process(node, "sleeper")
    gaps = sim.rng("sleeper.gaps")
    waits = []

    def ran(woke_at):
        waits.append(sim.now - woke_at)
        if len(waits) == SAMPLES:
            sim.stop()

    def wake():
        sleeper.exec_after(0.0, ran, sim.now)
        sim.at(gaps.expovariate(1 / MEAN_GAP), wake)

    sim.at(gaps.expovariate(1 / MEAN_GAP), wake)
    sim.run(until=2 * SAMPLES * MEAN_GAP)  # twice the wakes' expected span
    return waits


def test_closed_form_is_the_paper_world_s():
    mean = residual_moment(1)
    sd = math.sqrt(residual_moment(2) - mean ** 2)
    assert (round(mean * 1e3, 2), round(sd * 1e3, 2)) == (3.43, 7.81)


def test_sleeper_wait_obeys_the_hog_law():
    waits = sleeper_waits(seed=1)
    assert len(waits) == SAMPLES
    mean = residual_moment(1)
    var = residual_moment(2) - mean ** 2
    # Standard errors of the sample mean and (delta method) sample sd.
    se_mean = math.sqrt(var / SAMPLES)
    se_sd = math.sqrt(residual_moment(4) - residual_moment(2) ** 2) / (
        2 * math.sqrt(var) * math.sqrt(SAMPLES))
    assert statistics.mean(waits) == pytest.approx(mean, abs=Z * se_mean)
    assert statistics.pstdev(waits) == pytest.approx(math.sqrt(var), abs=Z * se_sd)
