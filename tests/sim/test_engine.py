"""Unit tests for the discrete-event engine."""

import gc
import weakref

import pytest

from repro.obs.sampler import PeriodicSampler
from repro.sim import PeriodicTimer, Simulator, Timeout


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.at(2.0, order.append, "late")
    sim.at(1.0, order.append, "early")
    sim.at(1.5, order.append, "middle")
    sim.run()
    assert order == ["early", "middle", "late"]


def test_ties_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for name in "abc":
        sim.at(1.0, order.append, name)
    sim.run()
    assert order == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.at(3.25, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [3.25]
    assert sim.now == 3.25


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, 1)
    sim.at(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 5]


def test_nested_scheduling_from_event():
    sim = Simulator()
    hits = []

    def outer():
        hits.append(("outer", sim.now))
        sim.at(1.0, inner)

    def inner():
        hits.append(("inner", sim.now))

    sim.at(1.0, outer)
    sim.run()
    assert hits == [("outer", 1.0), ("inner", 2.0)]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.at(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.at(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.pending == 0
    sim.run()
    assert sim.pending == 0 and sim._heap_cancelled == 0



def test_a_cancelled_event_lets_go_of_its_callback():
    """A corpse waiting in the heap must not keep packets or closures
    alive: cancel drops the callback and the args."""
    class Payload:
        def fire(self, *_args):
            raise AssertionError("a cancelled event fired")

    sim = Simulator()
    payload = Payload()
    gone = weakref.ref(payload)
    event = sim.at(1.0, payload.fire, "x")
    sim.cancel(event)
    del payload
    gc.collect()
    assert gone() is None and event[2:] == [None, ()]
    sim.run()
def test_scheduling_in_past_raises():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule(0.5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.at(-0.1, lambda: None)


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.at(1.0, lambda: (fired.append(1), sim.stop()))
    sim.at(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]
    # Remaining events still pending.
    assert sim.pending == 1


def test_stop_during_run_until_preserves_order():
    # Regression: run(until) used to fast-forward now to `until` even
    # after stop(); a later run() then fired the events still pending
    # before `until` and sent the clock backwards.
    sim = Simulator()
    fired = []
    sim.at(2.0, sim.stop)
    sim.at(5.0, lambda: fired.append((5.0, sim.now)))
    sim.at(12.0, lambda: fired.append((12.0, sim.now)))
    sim.run(until=20.0)
    # Stopped before draining: the clock must not pass pending events.
    assert sim.now == 2.0
    # Resume with an interleaved step() then drain; order and clock
    # monotonicity must hold.
    assert sim.step()
    sim.run()
    assert fired == [(5.0, 5.0), (12.0, 12.0)]
    # Fast-forward still applies when the queue genuinely drains.
    sim2 = Simulator()
    sim2.at(1.0, lambda: None)
    assert sim2.run(until=30.0) == 30.0


def test_step_executes_single_event():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, 1)
    sim.at(2.0, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert fired == [1, 2]
    assert not sim.step()


def test_peek_skips_cancelled():
    sim = Simulator()
    event = sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    sim.cancel(event)
    assert sim.peek() == 2.0


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.at(1.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.0]


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except RuntimeError as exc:
            errors.append(exc)

    sim.at(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_deterministic_rng_streams():
    sim_a = Simulator(seed=42)
    sim_b = Simulator(seed=42)
    draws_a = [sim_a.rng("ospf").random() for _ in range(5)]
    draws_b = [sim_b.rng("ospf").random() for _ in range(5)]
    assert draws_a == draws_b
    # Distinct streams are decorrelated.
    assert draws_a != [sim_a.rng("tcp").random() for _ in range(5)]


def test_different_seeds_differ():
    assert (
        Simulator(seed=1).rng("x").random()
        != Simulator(seed=2).rng("x").random()
    )


# ----------------------------------------------------------------------
# Hot-path machinery: O(1) pending, heap compaction, in-place
# rescheduling, native periodic events.
# ----------------------------------------------------------------------
def test_pending_counter_is_live():
    sim = Simulator()
    events = [sim.at(1.0 + i, lambda: None) for i in range(10)]
    assert sim.pending == 10
    sim.cancel(events[3])
    sim.cancel(events[7])
    assert sim.pending == 8
    sim.cancel(events[3])  # idempotent: no double decrement
    assert sim.pending == 8
    sim.run()
    assert sim.pending == 0


def test_pending_counts_wheel_and_heap_events():
    sim = Simulator()
    sim.at(0.001, lambda: None)
    sim.at(500.0, lambda: None)
    assert sim.pending == 2
    sim.run(until=1.0)
    assert sim.pending == 1


def test_cancelled_heap_entries_are_compacted():
    sim = Simulator()
    events = [sim.at(10.0 + i * 0.01, lambda: None) for i in range(1000)]
    assert len(sim._heap) == 1000
    for event in events[:900]:
        sim.cancel(event)
    # Compaction kicked in well before 900 corpses accumulated.
    assert len(sim._heap) < 500
    assert sim.pending == 100


def test_compaction_inside_run_keeps_time_seq_order():
    # A callback's cancels compact the heap while run() is draining it;
    # the events queued before and after the compaction must all fire,
    # in (time, seq) order.
    sim = Simulator()
    fired = []
    doomed = [sim.at(5.0 + i * 0.001, fired.append, "doomed") for i in range(400)]
    instants = [2.0 + i * 0.01 for i in range(50)]
    # Several events per instant, so equal times are decided by seq.
    for when in instants:
        sim.schedule(when, fired.append, (when, "a"))
        sim.schedule(when, fired.append, (when, "b"))

    def cancel_all():
        for event in doomed:
            sim.cancel(event)
        fired.append(("corpses left", sim._heap_cancelled))
        for when in reversed(instants):
            sim.schedule(when, fired.append, (when, "c"))

    sim.at(1.0, cancel_all)
    sim.run()
    assert fired[0][0] == "corpses left" and fired[0][1] < len(doomed)
    assert fired[1:] == [(when, tag) for when in instants for tag in "abc"]
    assert sim.pending == 0 and sim.now == instants[-1]


def test_events_beyond_wheel_horizon_fire_in_order():
    sim = Simulator()
    order = []
    sim.at(5.0, order.append, "far")
    sim.at(0.05, order.append, "near")
    sim.at(1.0, order.append, "mid")
    sim.run()
    assert order == ["near", "mid", "far"]
    assert sim.now == 5.0


def test_schedule_from_callback_into_current_drain():
    # An event scheduled from a callback to land before an already
    # queued one still fires in correct order.
    sim = Simulator()
    order = []

    def first():
        order.append(("first", sim.now))
        sim.at(0.0001, lambda: order.append(("wedge", sim.now)))

    sim.at(0.005, first)
    sim.at(0.0052, lambda: order.append(("second", sim.now)))
    sim.run()
    assert [name for name, _ in order] == ["first", "wedge", "second"]


def test_stop_mid_slot_preserves_remaining_events():
    sim = Simulator()
    fired = []
    # Two events 0.1 ms apart; the first stops the run.
    sim.at(0.0041, lambda: (fired.append("a"), sim.stop()))
    sim.at(0.0042, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    assert sim.pending == 1
    sim.run()
    assert fired == ["a", "b"]


def test_cancel_call_soon_event_before_it_fires():
    sim = Simulator()
    fired = []

    def outer():
        event = sim.call_soon(fired.append, "soon")
        sim.cancel(event)
        sim.call_soon(fired.append, "kept")

    sim.at(1.0, outer)
    sim.run()
    assert fired == ["kept"]
    assert sim.pending == 0


def test_step_and_peek_merge_wheel_and_heap():
    sim = Simulator()
    order = []
    sim.at(500.0, order.append, "far")
    sim.at(0.01, order.append, "near")
    assert sim.peek() == 0.01
    assert sim.step()
    assert order == ["near"]
    assert sim.peek() == 500.0
    assert sim.step()
    assert not sim.step()
    assert order == ["near", "far"]


_NAN = float("nan")
_INF = float("inf")


def _restart_timeout(sim):
    timeout = Timeout(sim, 1.0, lambda: None)
    try:
        timeout.restart(_NAN)
    finally:
        assert timeout.delay == 1.0 and not timeout.armed


@pytest.mark.parametrize("arm", [
    lambda sim: sim.at(_NAN, lambda: None),
    lambda sim: sim.schedule(_NAN, lambda: None),
    lambda sim: PeriodicTimer(sim, _NAN, lambda: None, start=False),
    lambda sim: Timeout(sim, _NAN, lambda: None),
    lambda sim: PeriodicSampler(sim, _NAN),
    _restart_timeout,
    lambda sim: sim.run(until=_NAN),
    lambda sim: PeriodicTimer(sim, _INF, lambda: None, start=False),
    lambda sim: PeriodicSampler(sim, _INF),
], ids=["at", "schedule", "PeriodicTimer", "Timeout", "PeriodicSampler",
        "Timeout.restart", "run-until", "PeriodicTimer-inf", "PeriodicSampler-inf"])
def test_nan_time_or_delay_raises(arm):
    # NaN compares false both ways, so ``delay < 0`` let it through and
    # the event fired at an arbitrary heap position with now = nan, and
    # ``run(until=nan)`` ran every pending event whatever its time. A
    # timer or sampler rejects a NaN period itself, not at its first arm,
    # and an infinite one too: it would tick forever at t = inf.
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.schedule(t, lambda t=t: fired.append(sim.now))
    with pytest.raises(ValueError):
        arm(sim)
    sim.run()
    assert fired == [1.0, 2.0, 3.0, 4.0]
    assert sim.pending == 0


class _Lazy:
    """Pieces of work ``length`` long, back to back from when it is
    made, advanced off the heap."""

    def __init__(self, sim, length, log):
        self.sim, self.length, self.log = sim, length, log
        self.end = sim.now + length
        self.mark = sim.due(self.end)
        sim.catch_ups.append(self.catch_up)

    def catch_up(self):
        while self.sim.is_due(self.end, self.mark):
            self.log.append(("lazy", self.end))
            self.end += self.length
            self.mark = self.sim.due(self.end)
        return self.end, self.mark


@pytest.mark.parametrize("drive", ["run", "step"])
def test_lazy_work_ends_where_an_event_per_piece_would(drive):
    sim = Simulator()
    log = []
    sim.at(1.0, log.append, "before")
    _Lazy(sim, 1.0, log)
    sim.at(1.0, log.append, "after")
    # At 2.0, scheduled before and after the piece ending then began.
    sim.at(0.5, sim.at, 1.5, log.append, "relayed")
    sim.at(1.0, sim.at, 1.0, log.append, "relayed late")
    sim.at(10.0, log.append, "end")
    if drive == "run":
        sim.run(until=2.5)
    else:
        while sim.peek() <= 2.5:
            sim.step()
    assert log == ["before", ("lazy", 1.0), "after", "relayed", ("lazy", 2.0),
                   "relayed late"]
    # The piece ending at the bound, or at the instant stepped to, only.
    if drive == "run":
        sim.run(until=3.0)
    else:
        sim.step()
    assert (log[-1], sim.now, sim.peek()) == (("lazy", 3.0), 3.0, 4.0)
