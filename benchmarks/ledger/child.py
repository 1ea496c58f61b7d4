"""One ledger run: a fresh single-threaded interpreter, one workload.

Spawned by ``run.py`` (never imported by it), so every measurement
starts from a clean heap: ISSUE 11's sizing found re-running a workload
in the same interpreter 20-80 % slower than in a fresh one (heap and GC
drift), which makes in-process repeats incomparable.

Times are reported twice: as wall-clock (``*_wall_s``) and in
reference seconds (``setup_s``, ``run_s``), see ``HostClock``.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import heapq
import json
import os
import pstats
import resource
import sys
import time

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(LEDGER_DIR)), "src")


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
class _SpinEvent:
    __slots__ = ("time", "fn", "args")

    def __init__(self, time, fn, args):
        self.time = time
        self.fn = fn
        self.args = args

    def __lt__(self, other):
        return self.time < other.time


class HostClock:
    """Wall-clock and reference seconds of one phase.

    The reference VM's speed wanders by +-20 % at every time scale from
    milliseconds to minutes (a shared host), so the wall-clock of an
    identical run does too, and two commits measured minutes apart
    cannot be told apart. The clock therefore reads the host's speed
    next to the work: a fixed *spin* (a small heap-and-dict event loop,
    the simulator's own instruction mix, a few ms) runs before and after
    every slice of a phase, and the slice's wall-clock is divided by how
    slow its two neighbouring spins ran relative to ``REF_SPIN_S``.
    Summed over the slices that is the phase in *reference seconds*:
    what it would have taken on a host that runs the spin in
    ``REF_SPIN_S`` throughout. Spins are outside both the wall-clock sum
    and the profile.
    """

    # The spin's median time between ledger slices on the reference box
    # over a sizing run; pinned, so reference seconds read as that
    # box's typical seconds.
    REF_SPIN_S = 0.0042
    SPIN_EVENTS = 1500

    def __init__(self):
        self._heap = []
        self._table = {}
        self._count = 0
        for index in range(2000):
            heapq.heappush(
                self._heap, _SpinEvent(index * 1e-3, self._fire, (index, index))
            )
        self.spin()  # warm the code path
        self.last_spin = self.spin()
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.cpu_s = 0.0

    def _fire(self, key, value) -> None:
        self._table[key % 5000] = (key, value, {"seq": key})

    def spin(self) -> float:
        heap, push, pop = self._heap, heapq.heappush, heapq.heappop
        started = time.perf_counter()
        for _ in range(self.SPIN_EVENTS):
            self._count = count = self._count + 1
            event = pop(heap)
            event.fn(*event.args)
            push(heap, _SpinEvent(
                event.time + (count * 7919 % 1000) * 1e-3, self._fire,
                (count, event.time),
            ))
        return time.perf_counter() - started

    def add(self, wall_s: float) -> None:
        """Account a slice that has just ended."""
        after = self.spin()
        self.wall_s += wall_s
        self.ref_s += wall_s * self.REF_SPIN_S * 2.0 / (self.last_spin + after)
        self.last_spin = after

    def drive(self, phase, profile=None) -> None:
        """Run a workload phase (a generator) slice by slice; with
        ``profile``, only the slices are profiled, never the spins."""
        steps = iter(phase)
        done = object()
        step = None
        while step is not done:
            cpu_started = time.process_time()
            started = time.perf_counter()
            if profile is not None:
                profile.enable()
            step = next(steps, done)
            if profile is not None:
                profile.disable()
            elapsed = time.perf_counter() - started
            self.cpu_s += time.process_time() - cpu_started
            self.add(elapsed)


class GcClock:
    """Collector pauses via ``gc.callbacks``. They overlap the layers'
    ``self_s`` (a collection runs inside whatever function allocated),
    so they are reported beside the layers, not subtracted."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1


def digest_of(counters: dict, outputs: dict) -> str:
    """sha256 over the exact counters and the headline outputs: a
    change that is only meant to be faster must leave it identical."""
    blob = json.dumps({"counters": counters, "outputs": outputs}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    # time.monotonic() in the parent just before it spawned this
    # process: CLOCK_MONOTONIC is system-wide, so the difference puts
    # interpreter start and imports inside setup_s.
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"no repro package under {SRC_DIR}", file=sys.stderr)
        return 2
    clock_started = time.monotonic()
    setup_clock = HostClock()
    clock_cost_s = time.monotonic() - clock_started
    sys.path.insert(0, SRC_DIR)
    # Interpreter start and the imports are setup's first slices; the
    # largest dependency is imported on its own so that a host-speed
    # reading falls between it and the rest.
    import networkx  # noqa: F401
    setup_clock.add(time.monotonic() - args.spawned_at - clock_cost_s)
    imports_started = time.perf_counter()
    import layers
    import scenarios
    setup_clock.add(time.perf_counter() - imports_started)
    workload = scenarios.WORKLOADS[args.workload](args.seed, args.scale, args.workdir)
    setup_clock.drive(workload.setup())
    sims = workload.sims()
    before = scenarios.read_counters(sims)
    gc_clock = GcClock()
    profile = cProfile.Profile() if args.traced else None

    run_clock = HostClock()
    gc.callbacks.append(gc_clock)
    run_clock.drive(workload.run(), profile)
    gc.callbacks.remove(gc_clock)
    run_s = run_clock.ref_s

    after = scenarios.read_counters(sims)
    counters = {
        name: round(after[name] - before[name], 9) for name in after
    }
    counters["obs.artifact_bytes"] = workload.artifact_bytes()
    work, outputs, checks = workload.results(counters)
    events = counters["sim.events_scheduled"]
    result = {
        "workload": workload.name,
        "version": workload.version,
        "unit": workload.unit,
        "seed": args.seed,
        "scale": args.scale,
        "python": "%d.%d" % sys.version_info[:2],
        "traced": bool(args.traced),
        "setup_s": setup_clock.ref_s,
        "setup_wall_s": setup_clock.wall_s,
        "run_s": run_s,
        "run_wall_s": run_clock.wall_s,
        "host_slowdown": run_clock.wall_s / run_s,
        "work": work,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": [
            {"name": name, "ok": bool(ok), "seen": seen} for name, ok, seen in checks
        ],
        "outputs": outputs,
        "counters": counters,
        "digest": digest_of(counters, outputs),
        "runtime": {
            "gc_s": gc_clock.seconds,
            "gc_collections": gc_clock.collections,
            "cpu_s": run_clock.cpu_s,
            "host_us_per_event": 1e6 * run_s / events if events else 0.0,
        },
    }
    if profile is not None:
        result["profile"] = layers.fold_profile(pstats.Stats(profile).stats)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
