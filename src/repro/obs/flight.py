"""``python -m repro.obs flight`` — per-flight latency decomposition.

Rebuilds the paper's Table 4/5 PlanetLab setting (Chicago -- New York
-- Washington over Abilene, with contending-slice background load),
runs a Table-5-style ping with a :class:`~repro.obs.spans.FlightRecorder`
installed, and answers the headline question: *show the slowest N
flights and break each one down per stage*.

For every retained flight the stage spans tile the whole journey, so
the printed per-stage microseconds sum to the flight's end-to-end RTT
exactly (the CLI asserts this, within float round-off). ``--export``
additionally renders the retained flights as deterministic Perfetto /
Chrome-trace JSON (load it at https://ui.perfetto.dev or
``chrome://tracing``); ``--diff A B`` re-runs two ``config:seed`` specs
and compares their mean stage decompositions.
"""

from __future__ import annotations

from typing import Tuple

from repro.obs.export import export_perfetto, flight_rows
from repro.obs.spans import FlightRecorder, Flight

#: How far a flight's stage-duration sum may drift from its measured
#: end-to-end duration before the CLI flags it (ISSUE acceptance: 1 µs).
SUM_TOLERANCE = 1e-6


def run_flights(
    config: str = "plvini",
    count: int = 100,
    interval: float = 0.1,
    seed: int = 17,
    warmup: float = 30.0,
    loaded: bool = True,
) -> Tuple[FlightRecorder, "object"]:
    """Build the world, run the traced ping, return (recorder, ping)."""
    from repro.tools.ping import Ping
    from repro.topologies.planetlab import PLANETLAB_CONFIGS, build_planetlab

    if config not in PLANETLAB_CONFIGS:
        raise ValueError(f"unknown config {config!r}")
    vini, exp = build_planetlab(seed, hogs=7 if loaded else 0, warmup=warmup,
                                **PLANETLAB_CONFIGS[config])
    recorder = FlightRecorder(vini.sim, policy="slowest").install()
    sliver, dst = None, vini.nodes["washington"].address
    if exp is not None:
        sliver = exp.network.nodes["chicago"].sliver
        dst = exp.network.nodes["washington"].tap_addr
    ping = Ping(vini.nodes["chicago"], dst, sliver=sliver, interval=interval,
                count=count).start()
    start = vini.sim.now
    vini.run(until=start + count * interval + 5.0)
    return recorder, ping


def decomposition_error(flight: Flight) -> float:
    """|sum of stage durations - end-to-end duration| in seconds."""
    return abs(sum(d for _n, _l, d in flight.stage_durations())
               - flight.duration)


def format_flight(flight: Flight, index: int) -> str:
    total = flight.duration
    meta = flight.meta or {}
    lines = [
        "#%d flight %d (%s seq=%s) %s: rtt %.1f us over %d stages" % (
            index, flight.trace_id, flight.name, meta.get("seq", "?"),
            flight.status, total * 1e6, len(flight.spans),
        )
    ]
    for name, node, duration in flight.stage_durations():
        share = (100.0 * duration / total) if total else 0.0
        lines.append("    %-14s %-12s %12.1f us  %5.1f%%" % (
            name, node or "-", duration * 1e6, share))
    error = decomposition_error(flight)
    lines.append("    %-14s %-12s %12.1f us  100.0%%  (sum-vs-rtt err %.3g us)"
                 % ("total", "", total * 1e6, error * 1e6))
    return "\n".join(lines)


def parse_run_spec(spec: str, default_config: str,
                   default_seed: int) -> Tuple[str, int]:
    """``config:seed`` | ``config`` | ``seed`` -> (config, seed)."""
    if ":" in spec:
        config, _, seed = spec.partition(":")
        return config, int(seed)
    try:
        return default_config, int(spec)
    except ValueError:
        return spec, default_seed


def stage_profile(recorder: FlightRecorder,
                  n: int) -> Tuple[dict, float, int]:
    """Mean per-stage seconds over the slowest ``n`` flights, plus the
    mean RTT and how many flights the means cover."""
    flights = recorder.slowest(n)
    count = len(flights)
    totals: dict = {}
    for flight in flights:
        for name, duration in flight.stage_totals().items():
            totals[name] = totals.get(name, 0.0) + duration
    if count:
        means = {name: total / count for name, total in totals.items()}
        mean_rtt = sum(f.duration for f in flights) / count
    else:
        means, mean_rtt = {}, 0.0
    return means, mean_rtt, count


def run_diff(args) -> int:
    """``--diff A B``: compare slowest-flight stage decompositions of
    two runs (two seeds, two configs, or both)."""
    spec_a = parse_run_spec(args.diff[0], args.config, args.seed)
    spec_b = parse_run_spec(args.diff[1], args.config, args.seed)
    profiles = []
    for config, seed in (spec_a, spec_b):
        recorder, _ping = run_flights(
            config=config, count=args.count, interval=args.interval,
            seed=seed, warmup=args.warmup, loaded=not args.unloaded,
        )
        profiles.append(stage_profile(recorder, args.slowest))
    (means_a, rtt_a, count_a), (means_b, rtt_b, count_b) = profiles
    label_a = "%s:%d" % spec_a
    label_b = "%s:%d" % spec_b
    print("stage diff: A=%s vs B=%s (mean over slowest %d/%d flights)" % (
        label_a, label_b, count_a, count_b))
    print("%-14s %12s %12s %12s %8s" % (
        "stage", "A us", "B us", "delta us", "delta%"))
    stages = sorted(set(means_a) | set(means_b),
                    key=lambda s: -max(means_a.get(s, 0.0),
                                       means_b.get(s, 0.0)))
    for stage in stages:
        a = means_a.get(stage, 0.0)
        b = means_b.get(stage, 0.0)
        share = (100.0 * (b - a) / a) if a else float("inf") if b else 0.0
        print("%-14s %12.1f %12.1f %+12.1f %+7.1f%%" % (
            stage, a * 1e6, b * 1e6, (b - a) * 1e6, share))
    delta = rtt_b - rtt_a
    share = (100.0 * delta / rtt_a) if rtt_a else 0.0
    print("%-14s %12.1f %12.1f %+12.1f %+7.1f%%" % (
        "mean rtt", rtt_a * 1e6, rtt_b * 1e6, delta * 1e6, share))
    return 0


def run_slowest(args) -> int:
    """Run one config and print its slowest flights stage by stage;
    ``--export`` also writes them as a Perfetto trace."""
    recorder, ping = run_flights(
        config=args.config, count=args.count, interval=args.interval,
        seed=args.seed, warmup=args.warmup, loaded=not args.unloaded,
    )
    stats = ping.stats()
    print("config=%s seed=%d: %d transmitted, %d received, "
          "rtt min/avg/max = %.1f/%.1f/%.1f us" % (
              args.config, args.seed, stats.transmitted, stats.received,
              stats.min_rtt * 1e6, stats.avg_rtt * 1e6, stats.max_rtt * 1e6))
    print("flights: %d started, %d completed, %d retained, %d evicted, "
          "%d still open" % (
              recorder.flights_started, recorder.flights_completed,
              len(recorder.flights()), recorder.flights_evicted,
              len(recorder.open_flights())))
    print()
    worst_error = 0.0
    for index, flight in enumerate(recorder.slowest(args.slowest), start=1):
        print(format_flight(flight, index))
        print()
        worst_error = max(worst_error, decomposition_error(flight))
    if worst_error > SUM_TOLERANCE:
        print("WARNING: stage sums drift from RTT by up to %.3g us"
              % (worst_error * 1e6))
        return 1
    if args.export:
        path = export_perfetto(flight_rows(recorder), args.export)
        print("wrote Perfetto trace: %s" % path)
    return 0
