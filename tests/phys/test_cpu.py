"""Unit tests for the CPU scheduler: fair share, reservations, RT."""

import pytest

from repro.phys.load import CPUHog
from repro.phys.node import PhysicalNode
from repro.phys.process import Process
from repro.sim import Simulator


def make_node(speed=1.0):
    sim = Simulator()
    node = PhysicalNode(sim, "n0", cpu_speed=speed)
    return sim, node


def test_work_executes_after_cost():
    sim, node = make_node()
    proc = Process(node, "p")
    done = []
    proc.exec_after(0.010, lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(0.010)]


def test_speed_scales_execution_time():
    sim, node = make_node(speed=2.0)
    proc = Process(node, "p")
    done = []
    proc.exec_after(0.010, lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(0.005)]


def test_serial_execution_single_cpu():
    sim, node = make_node()
    a = Process(node, "a")
    b = Process(node, "b")
    done = []
    a.exec_after(0.010, lambda: done.append(("a", sim.now)))
    b.exec_after(0.010, lambda: done.append(("b", sim.now)))
    sim.run()
    # Two 10 ms items on one CPU finish at 10 and 20 ms.
    assert done[0] == ("a", pytest.approx(0.010))
    assert done[1] == ("b", pytest.approx(0.020))


def test_fair_share_is_proportional():
    sim, node = make_node()
    heavy = Process(node, "heavy", share=3.0)
    light = Process(node, "light", share=1.0)

    def refill(proc):
        proc.exec_after(0.001, refill, proc)

    refill(heavy)
    refill(light)
    sim.run(until=10.0)
    ratio = heavy.cpu_used / light.cpu_used
    assert 2.5 < ratio < 3.5


def test_equal_shares_split_evenly():
    sim, node = make_node()
    procs = [Process(node, f"p{i}") for i in range(4)]

    def refill(proc):
        proc.exec_after(0.001, refill, proc)

    for proc in procs:
        refill(proc)
    sim.run(until=8.0)
    usages = [p.cpu_used for p in procs]
    for usage in usages:
        assert usage == pytest.approx(2.0, rel=0.1)


def test_reservation_gets_minimum_under_contention():
    sim, node = make_node()
    reserved = Process(node, "rsv", reservation=0.25)
    hogs = [Process(node, f"hog{i}") for i in range(7)]

    def refill(proc):
        proc.exec_after(0.001, refill, proc)

    refill(reserved)
    for hog in hogs:
        refill(hog)
    sim.run(until=10.0)
    # Fair share would give 1/8 = 12.5%; the reservation guarantees 25%.
    assert reserved.cpu_used / 10.0 >= 0.22


def test_reservation_does_not_starve_others():
    sim, node = make_node()
    reserved = Process(node, "rsv", reservation=0.25)
    other = Process(node, "other")

    def refill(proc):
        proc.exec_after(0.001, refill, proc)

    refill(reserved)
    refill(other)
    sim.run(until=10.0)
    # With only two runnable processes the non-reserved one still gets
    # a meaningful allocation (reservation is a floor, not ownership).
    assert other.cpu_used / 10.0 > 0.3


def test_realtime_preempts_running_work():
    sim, node = make_node()
    node.cpu.max_nonpreempt = 0.0  # deterministic preemption timing
    slow = Process(node, "slow")
    rt = Process(node, "rt", realtime=True)
    done = []
    slow.exec_after(0.100, lambda: done.append(("slow", sim.now)))
    # RT work arrives 10ms into slow's 100ms chunk.
    sim.at(0.010, lambda: rt.exec_after(0.001, lambda: done.append(("rt", sim.now))))
    sim.run()
    assert done[0] == ("rt", pytest.approx(0.011))
    # Slow's remainder resumes and finishes at its original cost + 1ms.
    assert done[1] == ("slow", pytest.approx(0.101))


def test_preemption_waits_for_nonpreemptible_section():
    """An RT wakeup waits up to max_nonpreempt for the running chunk."""
    sim, node = make_node()
    node.cpu.max_nonpreempt = 0.0003
    slow = Process(node, "slow")
    rt = Process(node, "rt", realtime=True)
    done = []
    slow.exec_after(0.100, lambda: done.append(("slow", sim.now)))
    sim.at(0.010, lambda: rt.exec_after(0.001, lambda: done.append(("rt", sim.now))))
    sim.run()
    assert done[0][0] == "rt"
    # RT ran after a bounded non-preemptible delay, not instantly.
    assert 0.011 <= done[0][1] <= 0.011 + 0.0003


def test_realtime_does_not_preempt_realtime():
    sim, node = make_node()
    rt1 = Process(node, "rt1", realtime=True)
    rt2 = Process(node, "rt2", realtime=True)
    done = []
    rt1.exec_after(0.010, lambda: done.append(("rt1", sim.now)))
    sim.at(0.001, lambda: rt2.exec_after(0.001, lambda: done.append(("rt2", sim.now))))
    sim.run()
    assert done[0] == ("rt1", pytest.approx(0.010))
    assert done[1] == ("rt2", pytest.approx(0.011))


def test_realtime_wakeup_latency_is_zero_when_idle():
    sim, node = make_node()
    rt = Process(node, "rt", realtime=True)
    done = []
    sim.at(5.0, lambda: rt.exec_after(0.0, lambda: done.append(sim.now)))
    sim.run()
    assert done == [pytest.approx(5.0)]


def test_default_share_wakeup_waits_behind_quantum():
    sim, node = make_node()
    hog = Process(node, "hog")
    click = Process(node, "click")
    done = []

    def refill():
        hog.exec_after(0.005, refill)

    refill()
    # Click wakes mid-quantum; without RT it waits for the quantum end.
    sim.at(0.0025, lambda: click.exec_after(0.0001, lambda: done.append(sim.now)))
    sim.run(until=0.1)
    assert done[0] == pytest.approx(0.0051, abs=1e-4)


def test_cancelled_work_item_not_executed():
    """A crash cancels the item on the CPU and the one queued: neither
    callback runs, the first still takes its CPU time, and work queued
    after the crash runs behind it."""
    sim, node = make_node()
    proc = Process(node, "p")
    done = []
    proc.exec_after(0.001, lambda: done.append("first"))
    proc.exec_after(0.001, lambda: done.append("second"))
    sim.at(0.0005, node.cpu.crash_flush)
    sim.at(0.0005, proc.exec_after, 0.001, done.append, ("after", 0.0005))
    sim.run()
    assert done == [("after", 0.0005)]
    assert sim.now == node.cpu.busy_time == pytest.approx(0.002)


def test_cpu_used_and_busy_time_account():
    sim, node = make_node()
    proc = Process(node, "p")
    proc.exec_after(0.020, lambda: None)
    proc.exec_after(0.030, lambda: None)
    sim.run()
    assert proc.cpu_used == pytest.approx(0.050)
    # kernel process exists but did nothing.
    assert node.cpu.busy_time == pytest.approx(0.050)


def test_usage_fraction_tracks_recent_load():
    sim, node = make_node()
    proc = Process(node, "p")
    active = [True]

    def refill():
        if active[0]:
            proc.exec_after(0.001, refill)

    refill()
    sim.run(until=1.0)
    assert node.cpu.usage_fraction(proc) > 0.9
    # After going idle, the EWMA decays.
    active[0] = False
    sim.at(2.0, lambda: None)
    sim.run(until=2.0)
    assert node.cpu.usage_fraction(proc) < 0.05


def test_invalid_parameters_rejected():
    sim, node = make_node()
    with pytest.raises(ValueError):
        Process(node, "bad", share=0.0)
    with pytest.raises(ValueError):
        Process(node, "bad", reservation=1.5)
    proc = Process(node, "p")
    with pytest.raises(ValueError):
        proc.exec_after(-1.0, lambda: None)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_a_share_or_speed_that_is_not_positive_and_finite_is_refused(bad):
    # NaN passed a ``<= 0`` check: a NaN speed died mid-run on a NaN
    # delay, and a NaN share ran elections on NaN vruntimes.
    sim, node = make_node()
    with pytest.raises(ValueError, match="share"):
        Process(node, "bad", share=bad)
    with pytest.raises(ValueError, match="speed"):
        make_node(speed=bad)


# ----------------------------------------------------------------------
# The ready set: exactly the processes with queued work, at every instant
# ----------------------------------------------------------------------
def queued(node):
    return {p for p in node.cpu.processes if p.queue}


def test_preempted_leftover_reenters_a_drained_process():
    """Dispatching slow's only item empties its queue, so it leaves the
    ready set; the preempted remainder must put it back."""
    sim, node = make_node()
    node.cpu.max_nonpreempt = 0.0
    slow = Process(node, "slow")
    rt = Process(node, "rt", realtime=True)
    done = []
    slow.exec_after(0.100, lambda: done.append(("slow", sim.now)))
    assert node.cpu._ready == set()  # on the CPU, nothing queued
    sim.at(0.010, lambda: rt.exec_after(0.001, done.append, "rt"))
    sim.run(until=0.0105)
    assert node.cpu._ready == queued(node) == {slow}
    sim.run()
    assert done == ["rt", ("slow", pytest.approx(0.101))]
    assert node.cpu._ready == set()


def test_crash_with_an_item_on_the_cpu_strips_its_leftover():
    """crash_flush cancels the running item; when a real-time wakeup
    then preempts it, the leftover carries the cancellation and is
    stripped at the next election, not run."""
    sim, node = make_node()
    node.cpu.max_nonpreempt = 0.0
    slow = Process(node, "slow")
    rt = Process(node, "rt", realtime=True)
    done = []
    slow.exec_after(0.100, done.append, "slow")
    slow.exec_after(0.100, done.append, "queued behind")
    sim.at(0.010, node.cpu.crash_flush)
    sim.at(0.020, lambda: rt.exec_after(0.001, done.append, "rt"))
    sim.run(until=0.015)
    assert node.cpu._ready == queued(node) == set()
    sim.run(until=0.0205)  # rt is on the CPU, slow's leftover is stripped
    assert node.cpu._ready == queued(node) == set()
    sim.run()
    assert done == ["rt"]
    assert node.cpu.busy_time == pytest.approx(0.021)


def test_capped_only_ready_set_arms_the_idle_timer():
    """With every ready process at its cap the CPU idles, but not for
    ever: a timer fires when the first average has decayed enough."""
    sim, node = make_node()
    capped = Process(node, "capped", cpu_cap=0.25)
    done = []
    capped.exec_after(0.050, lambda: None)  # usage 0.05 / tau 0.1 = 0.5
    capped.exec_after(0.010, lambda: done.append(sim.now))
    sim.run(until=0.060)
    assert node.cpu._running is None and node.cpu._ready == {capped}
    assert sim.pending == 1
    sim.run()
    # Idle for tau * ln(0.5 / 0.25) from t = 0.05, then 10 ms of work.
    assert done == [pytest.approx(0.050 + 0.1 * 0.6931 + 0.010, abs=1e-4)]


# ----------------------------------------------------------------------
# Plain processes wait in the fair-share heap (once the standby heap)
# ----------------------------------------------------------------------
Q = 2 ** -8  # a dyadic hog quantum: sums of it are exact


def hogs(node, count):
    return [CPUHog(node, f"h{i}", quantum=Q, heavy_tail_prob=0.0)
            for i in range(count)]


def elections(cpu):
    """The names of the processes put on the CPU, in order."""
    log, run = [], cpu._run

    def recording(process, item):
        log.append(process.name)
        run(process, item)

    cpu._run = recording
    return log


def test_a_completing_callback_queues_all_its_work_before_the_election():
    """``a``'s callback wakes ``b`` (vruntime 0.002), then queues its own
    follow-up (vruntime 0.001 once charged): the CPU elects after the
    callback returns, so the follow-up goes first."""
    sim, node = make_node()
    a, b = Process(node, "a"), Process(node, "b")
    b.vruntime = 0.002
    log = elections(node.cpu)

    def callback():
        b.exec_after(0.001, lambda: None)
        a.exec_after(0.001, lambda: None)

    a.exec_after(0.001, callback)
    sim.run()
    assert log == ["a", "a", "b"]


def test_standby_ties_are_elected_by_index():
    """Hogs of equal virtual runtime leave the heap in registration
    order, whatever order they woke in."""
    sim, node = make_node()
    log = elections(node.cpu)
    for hog in reversed(hogs(node, 3)):
        hog.start()
    assert [key for key, _, _ in node.cpu._fair] == [0.0, 0.0]
    sim.run(until=6.5 * Q)
    # From 3Q on all three have run one quantum: h0 before h2 by index.
    assert log == ["h2", "h0", "h1", "h0", "h1", "h2", "h0"]


def test_a_preempted_hog_resumes_before_the_standby_heap():
    """A real-time wakeup preempts a hog mid-chunk; the remainder goes
    to the ready set and resumes before the hogs of lesser virtual
    runtime waiting in the heap."""
    sim, node = make_node()
    node.cpu.max_nonpreempt = 0.0
    rt = Process(node, "rt", realtime=True)
    log = elections(node.cpu)
    for hog in hogs(node, 3):
        hog.start()
    sim.at(Q / 2, rt.exec_after, Q / 4, lambda: None)
    sim.run(until=2 * Q)
    assert log == ["h0", "rt", "h0", "h1"]
    assert node.cpu._resume is None
    assert [p.name for _, _, p in node.cpu._fair] == ["h2", "h0"]
    assert node.cpu._ready == set() and node.cpu._running.name == "h1"


def chunks(cpu, process):
    """The live (uncancelled) chunks ``process`` holds, queued or on the CPU."""
    held = [*process.queue] + ([cpu._item] if cpu._running is process else [])
    return sum(not item.cancelled for item in held)


def test_a_hog_restarted_on_the_cpu_keeps_its_one_chunk():
    """A hog stopped and started again while its chunk is on the CPU
    queues no second chunk: the chunk on the CPU carries its chain on."""
    sim, node = make_node()
    log = elections(node.cpu)
    h0, h1, h2 = hogs(node, 3)
    for hog in (h0, h1, h2):
        hog.start()

    def restart():
        h0.stop()
        h0.start()

    sim.at(Q / 2, restart)
    sim.run(until=Q / 2)
    assert chunks(node.cpu, h0.process) == 1
    assert node.cpu._ready == set() and len(node.cpu._fair) == 2
    sim.run(until=6.5 * Q)
    # One chain per hog: each runs every third chunk, in index order.
    assert log == ["h0", "h1", "h2"] * 2 + ["h0"]
    assert all(chunks(node.cpu, hog.process) == 1 for hog in (h0, h1, h2))


def test_a_hog_restarted_while_queued_keeps_its_one_chunk():
    sim, node = make_node()
    log = elections(node.cpu)
    h0, h1 = hogs(node, 2)
    h0.start()
    h1.start()

    def restart():
        h1.stop()
        h1.start()

    sim.at(Q / 2, restart)
    sim.run(until=Q / 2)
    assert chunks(node.cpu, h1.process) == 1
    sim.run(until=4.5 * Q)
    assert log == ["h0", "h1"] * 2 + ["h0"]


def test_a_hog_restarted_after_a_crash_starts_a_new_chain():
    """A crash cancels the chunk on the CPU, which ends its chain: a
    restart then draws a new chunk."""
    sim, node = make_node()
    log = elections(node.cpu)
    (h0,) = hogs(node, 1)
    h0.start()

    def crash_and_restart():
        h0.stop()
        node.cpu.crash_flush()
        h0.start()

    sim.at(Q / 2, crash_and_restart)
    sim.run(until=Q / 2)
    assert chunks(node.cpu, h0.process) == 1
    sim.run(until=3.5 * Q)
    assert log == ["h0"] * 4


def test_crash_flush_empties_the_standby_heap():
    sim, node = make_node()
    for hog in hogs(node, 3):
        hog.start()
    assert len(node.cpu._fair) == 2
    node.cpu.crash_flush()
    assert node.cpu._fair == [] and queued(node) == set()
    sim.run(until=1.0)
    assert node.cpu.busy_time == Q  # the cancelled chunk on the CPU, alone


def test_runq_depth_counts_the_standby_heap():
    """The run-queue gauge counts every queued item, the standing
    demand in the heap included."""
    sim, node = make_node()
    for hog in hogs(node, 3):
        hog.start()
    proc = Process(node, "p")
    proc.exec_after(0.001, lambda: None)
    proc.exec_after(0.001, lambda: None)

    def depth():
        return sim.metrics.value("cpu.runq_depth", cpu=node.cpu.name)

    assert depth() == sum(len(p.queue) for p in node.cpu.processes) == 4
    sim.run(until=3.5 * Q)  # p's second item is on the CPU
    assert depth() == sum(len(p.queue) for p in node.cpu.processes) == 3
    assert len(node.cpu._fair) == 3


def test_a_resume_owner_that_drained_its_leftover_resumes_first():
    """A crash cancels p's chunk on the CPU; real-time work then preempts
    it, so p owns the (cancelled) remainder, which the election strips.
    When p wakes again it still owns the slice: it waits in the ready
    set, not the heap, and resumes before q, whose vruntime is lower."""
    sim, node = make_node()
    node.cpu.max_nonpreempt = 0.0
    p, q = Process(node, "p"), Process(node, "q")
    rt = Process(node, "rt", realtime=True)
    log = elections(node.cpu)
    done = []
    p.exec_after(0.100, done.append, "cancelled")
    sim.at(0.010, node.cpu.crash_flush)
    sim.at(0.015, q.exec_after, 0.001, done.append, "q")
    sim.at(0.020, rt.exec_after, 0.001, done.append, "rt")
    sim.at(0.0205, p.exec_after, 0.001, done.append, "p")
    sim.run(until=0.0205)
    assert node.cpu._resume is p and q.vruntime < p.vruntime
    assert node.cpu._ready == {p} and [w for _, _, w in node.cpu._fair] == [q]
    sim.run()
    assert log == ["p", "rt", "p", "q"]
    assert done == ["rt", "p", "q"]
