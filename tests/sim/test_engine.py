"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator


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
    event.cancel()
    sim.run()
    assert fired == []
    assert not event.active


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.at(1.0, lambda: None)
    event.cancel()
    event.cancel()
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
    event.cancel()
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
    events[3].cancel()
    events[7].cancel()
    assert sim.pending == 8
    events[3].cancel()  # idempotent: no double decrement
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
        event.cancel()
    # Compaction kicked in well before 900 corpses accumulated.
    assert len(sim._heap) < 500
    assert sim.pending == 100


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


def test_reschedule_reuses_event_object():
    sim = Simulator()
    fired = []
    event = sim.at(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0]
    again = sim.reschedule(event, 2.0)
    assert again is event
    sim.run()
    assert fired == [1.0, 2.0]


def test_reschedule_rejects_queued_or_cancelled_events():
    sim = Simulator()
    queued = sim.at(1.0, lambda: None)
    with pytest.raises(RuntimeError):
        sim.reschedule(queued, 2.0)
    queued.cancel()
    with pytest.raises(RuntimeError):
        sim.reschedule(queued, 2.0)


def test_schedule_periodic_fires_and_cancels():
    sim = Simulator()
    times = []
    event = sim.schedule_periodic(0.5, lambda: times.append(sim.now))
    sim.run(until=2.2)
    assert times == [0.5, 1.0, 1.5, 2.0]
    event.cancel()
    sim.run(until=5.0)
    assert times == [0.5, 1.0, 1.5, 2.0]
    with pytest.raises(ValueError):
        sim.schedule_periodic(0.0, lambda: None)


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
        event.cancel()
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
