"""Golden-trace determinism: event order is pinned, within a commit
and across commits.

A torture workload exercises every nasty scheduling path — same-time
ties, call_soon chains from inside callbacks, cancellation churn, far
timers, run(until=...) resumption — and its serialized trace must be
the same whether the run is chunked or not, the same on every
same-seed run, and the same as the one recorded before the engine
became a plain binary heap (a sha256 constant, so an engine change
that reorders ties consistently cannot pass).
"""

import hashlib

import pytest

from repro.sim import PeriodicTimer, Simulator, Timeout


def _serialize(sim: Simulator) -> str:
    return "\n".join(
        f"{r.time:.9f} {r.kind} {sorted(r.fields.items())!r}" for r in sim.trace.records
    )


def _torture_workload(sim: Simulator) -> None:
    """A mixed workload touching every scheduling path."""
    log = sim.trace.log

    # Periodic timers: fixed (native periodic events) and jittered
    # (timer rescheduled in place, drawing from the rng stream).
    for i, interval in enumerate((0.003, 0.01, 0.0501, 0.24, 1.0)):
        PeriodicTimer(sim, interval, lambda i=i: log("tick", timer=i))
    for i, interval in enumerate((0.02, 0.77)):
        PeriodicTimer(sim, interval, lambda i=i: log("jtick", timer=i), jitter=0.3)

    # A hello/dead pair: the timeout is restarted on every hello,
    # littering the heap with cancelled events.
    dead = Timeout(sim, 1.3, lambda: log("dead"))
    dead.start()

    def hello():
        log("hello")
        dead.restart()

    PeriodicTimer(sim, 0.4, hello)

    # Same-time ties and call_soon chains from inside a callback.
    def burst(depth: int):
        log("burst", depth=depth)
        if depth:
            sim.call_soon(burst, depth - 1)
            sim.at(0.0005, burst, 0)

    for t in (0.1, 0.1, 2.5):
        sim.schedule(t, burst, 2)

    # Far timers, one of which reschedules short-horizon work when
    # it fires.
    def far():
        log("far")
        sim.at(0.002, lambda: log("far_child"))

    sim.at(60.0, far)
    sim.at(90.0, lambda: log("far2"))

    # Cancellations, including cancel-from-the-same-timestamp.
    doomed = [sim.at(5.0 + 0.001 * i, lambda i=i: log("doomed", i=i)) for i in range(50)]

    def reap():
        log("reap")
        for event in doomed:
            sim.cancel(event)

    sim.at(4.9, reap)
    same_t = sim.at(7.0, lambda: log("never"))
    sim.schedule(7.0, sim.cancel, same_t)  # earlier seq at the same time wins

    # Random-stream consumers interleaved with the timers.
    def draw():
        log("draw", value=round(sim.rng("load").random(), 12))

    PeriodicTimer(sim, 0.33, draw)


# sha256 of the serialized torture trace after run(until=120.0), recorded
# at commit 57df67b (the last one with the timer wheel). Re-record only
# for a deliberate, documented change of event order.
GOLDEN_SHA256 = {
    0: "d267a3e0c11eab8497edba73a338094bd3de79a4de5c471550ed72d4504787a3",
    7: "aa23c07efbc5ae4cb70d4b6b6963714d4b0d202a87f9bbb82671c3fe46cdee67",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SHA256))
def test_trace_matches_recorded_hash(seed):
    sim = Simulator(seed=seed)
    _torture_workload(sim)
    sim.run(until=120.0)
    digest = hashlib.sha256(_serialize(sim).encode()).hexdigest()
    assert digest == GOLDEN_SHA256[seed]


def test_chunked_run_matches_single_run():
    """run(until=...) resumption changes nothing."""
    whole = Simulator(seed=3)
    _torture_workload(whole)
    whole.run(until=100.0)

    chunked = Simulator(seed=3)
    _torture_workload(chunked)
    t = 0.0
    for step in (0.0001, 0.05, 0.1003, 1.0, 2.31, 10.0, 40.0, 46.5396):
        t += step
        chunked.run(until=t)
    assert t == pytest.approx(100.0)
    assert _serialize(whole) == _serialize(chunked)
    assert whole.pending == chunked.pending


def test_same_seed_run_is_reproducible():
    runs = []
    for _ in range(2):
        sim = Simulator(seed=11)
        _torture_workload(sim)
        sim.run(until=50.0)
        runs.append(_serialize(sim))
    assert runs[0] == runs[1]
