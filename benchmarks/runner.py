"""Multiprocess scenario runner: shard (bench x config x seed) cells
across cores and aggregate one perf-trajectory artifact.

The seed ran every benchmark serially inside one interpreter. This
runner treats each (bench, config, seed) triple as an independent
*cell*, dispatches cells over a ``multiprocessing.Pool``, and folds the
results into ``benchmarks/results/BENCH_core.json`` — an append-style
artifact whose ``runs`` list records one entry per invocation, so the
performance trajectory of the repo is visible across commits.

Cells must be pure functions of (config, seed, scale): the runner
asserts nothing about execution order, and ``--workers N`` must produce
the same deterministic ``metrics`` as ``--workers 1`` (covered by
``tests/benchmarks/test_runner.py``). Wall-clock ``perf`` numbers are
machine-dependent and excluded from that comparison.

Usage::

    PYTHONPATH=src python benchmarks/runner.py --workers 4
    PYTHONPATH=src python benchmarks/runner.py --scale 0.1 --dry-run
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import time
from typing import Dict, List

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks import bench_core_engine as core  # noqa: E402
from benchmarks import bench_internet_zoo as zoo  # noqa: E402
from benchmarks import bench_traffic_plane as traffic  # noqa: E402
from repro.obs import BenchTrajectory, RunArchive, detect_commit  # noqa: E402
from repro.obs.archive import MANIFEST_NAME, load_manifest  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
DEFAULT_ARTIFACT = os.path.join(RESULTS_DIR, "BENCH_core.json")

# bench name -> (cell function, configs)
BENCHES = {
    "engine": (core.run_engine_cell, ("heap",)),
    "engine_far": (core.run_engine_far_cell, ("heap",)),
    "packet": (core.run_packet_cell, ("cow",)),
    "lookup": (core.run_lookup_cell, ("radix",)),
    "internet_zoo": (zoo.run_internet_zoo_cell, ("incr", "full")),
    "traffic_plane": (traffic.run_traffic_plane_cell, ("hybrid", "packet")),
}


def default_cells(scale: float = 1.0, seeds=(0, 1)) -> List[dict]:
    """The full grid. Engine cells sweep every seed (their workload is
    rng-free but seed-tagged for the artifact); packet/lookup cells run
    the first seed only."""
    cells = []
    for bench, (_fn, configs) in BENCHES.items():
        bench_seeds = seeds if bench == "engine" else seeds[:1]
        for config in configs:
            for seed in bench_seeds:
                cells.append(
                    {"bench": bench, "config": config, "seed": seed, "scale": scale}
                )
    return cells


def cell_feed_path(spec: dict) -> str:
    """The live-feed file of one cell under its ``live_dir``."""
    return os.path.join(
        spec["live_dir"],
        "{bench}_{config}_{seed}.jsonl".format(**spec),
    )


def cell_archive_root(spec: dict) -> str:
    """The per-cell RunArchive directory under ``archive_dir``."""
    return os.path.join(
        spec["archive_dir"],
        "{bench}_{config}_{seed}".format(**spec),
    )


def run_cell(spec: dict) -> dict:
    """Execute one cell. Top-level so Pool workers can pickle it.

    With ``live_dir`` in the spec, ``REPRO_LIVE_FEED`` is exported for
    the cell's duration so every scenario that runs through
    ``Experiment.run``/``VINI.run`` (the zoo, the traffic plane, the
    figure benches) streams a per-cell live JSONL feed there. The raw
    engine/packet/lookup microbenches drive a bare ``Simulator`` and
    stay feed-less by design.

    With ``archive_dir`` in the spec, the cell gets a
    :class:`~repro.obs.archive.RunArchive` under
    ``<archive_dir>/<bench>_<config>_<seed>/``: scenario cells attach
    it through ``REPRO_RUN_ARCHIVE`` (their artifacts self-register),
    and every cell — microbenches included — lands its deterministic
    result as a ``cell.json`` artifact. The manifest path and content
    hashes ride back in the cell dict, so ``BENCH_core.json`` rows are
    tied to concrete, diffable artifacts (``python -m repro.obs diff``).
    """
    fn = BENCHES[spec["bench"]][0]
    live_dir = spec.get("live_dir")
    archive_dir = spec.get("archive_dir")
    if live_dir:
        os.makedirs(live_dir, exist_ok=True)
        os.environ["REPRO_LIVE_FEED"] = cell_feed_path(spec)
    if archive_dir:
        os.environ["REPRO_RUN_ARCHIVE"] = cell_archive_root(spec)
    try:
        result = fn(spec["config"], spec["seed"], spec["scale"])
    finally:
        if live_dir:
            os.environ.pop("REPRO_LIVE_FEED", None)
        if archive_dir:
            os.environ.pop("REPRO_RUN_ARCHIVE", None)
    merged = dict(spec, **result)
    merged.pop("live_dir", None)  # per-invocation knob, not cell data
    merged.pop("archive_dir", None)
    if archive_dir:
        merged["archive"] = _archive_cell(spec, result)
    return merged


def _archive_cell(spec: dict, result: dict) -> dict:
    """Fold one cell's deterministic result into its RunArchive and
    return the manifest reference recorded in ``BENCH_core.json``.

    ``perf`` (wall-clock) stays out of ``cell.json`` so a same-seed
    re-run hashes identically; the perf numbers live only in the
    trajectory artifact.
    """
    root = cell_archive_root(spec)
    manifest_path = os.path.join(root, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        archive = RunArchive.from_manifest(manifest_path)
    else:
        archive = RunArchive(
            root,
            name="{bench}_{config}_{seed}".format(**spec),
            meta={"seed": spec["seed"], "commit": detect_commit(_ROOT)},
        )
    payload = {
        "bench": spec["bench"],
        "config": spec["config"],
        "seed": spec["seed"],
        "scale": spec["scale"],
    }
    payload.update(
        (key, value) for key, value in result.items() if key != "perf"
    )
    archive.add_json("cell.json", payload, kind="bench_cell")
    archive.write()
    manifest = load_manifest(manifest_path)
    return {
        "manifest": os.path.relpath(manifest_path, _ROOT),
        "artifacts": {
            name: entry["sha256"]
            for name, entry in sorted(manifest["artifacts"].items())
        },
    }


def run_cells(cells: List[dict], workers: int = 1, watch: bool = False) -> List[dict]:
    """Run cells, sharded across ``workers`` processes.

    ``Pool.map`` preserves input order, so the result list is identical
    to the sequential one regardless of which worker ran which cell.
    ``watch`` prints a one-line aggregate view as each cell completes
    (completion order), while the returned list keeps input order so
    the artifact stays deterministic.
    """
    if workers <= 1 or len(cells) <= 1:
        results = []
        for index, cell in enumerate(cells):
            result = run_cell(cell)
            if watch:
                _watch_line(result, index + 1, len(cells))
            results.append(result)
        return results
    with multiprocessing.Pool(processes=min(workers, len(cells))) as pool:
        if not watch:
            return pool.map(run_cell, cells)
        indexed: List = [None] * len(cells)
        done = 0
        for index, result in pool.imap_unordered(_run_indexed, list(enumerate(cells))):
            done += 1
            _watch_line(result, done, len(cells))
            indexed[index] = result
        return indexed


def _run_indexed(pair):
    """(index, spec) -> (index, result); top-level for pickling."""
    index, spec = pair
    return index, run_cell(spec)


def _watch_line(result: dict, done: int, total: int) -> None:
    perf = result.get("perf", {})
    rates = ", ".join(
        f"{key}={value:,.0f}" for key, value in sorted(perf.items())
        if isinstance(value, (int, float)) and key != "wall_s"
    )
    wall = perf.get("wall_s")
    wall_text = f" wall={wall:.2f}s" if isinstance(wall, (int, float)) else ""
    print(f"[{done}/{total}] {result['bench']}/{result['config']} "
          f"seed={result['seed']}{wall_text} {rates}", flush=True)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _rate(results: List[dict], bench: str, config: str, key: str) -> float:
    return _mean(
        [
            r["perf"][key]
            for r in results
            if r["bench"] == bench and r["config"] == config
        ]
    )


def aggregate(results: List[dict]) -> dict:
    """Fold cell results into a summary plus the raw cells."""
    events = {
        config: _rate(results, "engine", config, "events_per_sec")
        for config in BENCHES["engine"][1]
    }
    far = {
        config: _rate(results, "engine_far", config, "events_per_sec")
        for config in BENCHES["engine_far"][1]
    }
    fanout = {
        config: _rate(results, "packet", config, "fanout_packets_per_sec")
        for config in BENCHES["packet"][1]
    }
    forward = {
        config: _rate(results, "packet", config, "forward_packets_per_sec")
        for config in BENCHES["packet"][1]
    }
    zoo_spf = {
        config: _rate(results, "internet_zoo", config, "spf_events_per_sec")
        for config in BENCHES["internet_zoo"][1]
    }
    zoo_converged = {
        config: _rate(
            results, "internet_zoo", config, "routers_converged_per_sec"
        )
        for config in BENCHES["internet_zoo"][1]
    }
    traffic_flows = {
        config: _rate(results, "traffic_plane", config, "bg_flow_secs_per_sec")
        for config in BENCHES["traffic_plane"][1]
    }
    traffic_walls = {
        config: _rate(results, "traffic_plane", config, "wall_s")
        for config in BENCHES["traffic_plane"][1]
    }
    summary = {
        "events_per_sec": events,
        "far_events_per_sec": far,
        "fanout_packets_per_sec": fanout,
        "forward_packets_per_sec": forward,
        "lookups_per_sec": _rate(results, "lookup", "radix", "lookups_per_sec"),
        "internet_spf_events_per_sec": zoo_spf,
        # Incremental vs full-Dijkstra SPF on the converging internet:
        # the scale headline for the multi-AS zoo.
        "internet_spf_speedup": (
            zoo_spf["incr"] / zoo_spf["full"] if zoo_spf.get("full") else 0.0
        ),
        "internet_routers_converged_per_sec": zoo_converged,
        "traffic_bg_flow_secs_per_sec": traffic_flows,
        # 100k fluid users vs the packet crowd at its affordable size:
        # the wall-clock ratio is the hybrid plane's headline (the
        # hybrid cell also carries ~100x the users while winning it).
        "traffic_hybrid_speedup": (
            traffic_walls["packet"] / traffic_walls["hybrid"]
            if traffic_walls.get("hybrid")
            else 0.0
        ),
        "traffic_solver_resolves_per_sec": _rate(
            results, "traffic_plane", "hybrid", "solver_resolves_per_sec"
        ),
    }
    return {"summary": summary, "cells": results}


def write_artifact(entry: dict, path: str = DEFAULT_ARTIFACT) -> str:
    """Append one run entry to the perf-trajectory artifact."""
    artifact = {"schema": 1, "runs": []}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                loaded = json.load(handle)
            if isinstance(loaded.get("runs"), list):
                artifact = loaded
        except (ValueError, OSError):
            pass  # corrupt artifact: start a fresh trajectory
    artifact["runs"].append(entry)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=max(1, os.cpu_count() or 1),
                        help="process pool size (1 = sequential)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (0.1 = quick smoke)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1],
                        help="seeds for the engine sweep")
    parser.add_argument("--out", default=DEFAULT_ARTIFACT,
                        help="perf-trajectory artifact path")
    parser.add_argument("--dry-run", action="store_true",
                        help="run and print, but do not touch the artifact")
    parser.add_argument("--watch", action="store_true",
                        help="print a one-line aggregate view as each cell "
                             "completes (the artifact stays byte-identical)")
    parser.add_argument("--live-dir", default=None, metavar="DIR",
                        help="write a per-cell live JSONL feed "
                             "(<bench>_<config>_<seed>.jsonl) into DIR for "
                             "every scenario cell")
    parser.add_argument("--archive-dir", default=None, metavar="DIR",
                        help="write a per-cell RunArchive "
                             "(<bench>_<config>_<seed>/manifest.json) into "
                             "DIR and record manifest paths + artifact "
                             "hashes in BENCH_core.json")
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error(f"--scale must be positive, got {args.scale}")

    cells = default_cells(scale=args.scale, seeds=tuple(args.seeds))
    if args.live_dir:
        for cell in cells:
            cell["live_dir"] = args.live_dir
    if args.archive_dir:
        for cell in cells:
            cell["archive_dir"] = args.archive_dir
    print(f"running {len(cells)} cells across {args.workers} worker(s) "
          f"(scale={args.scale}) ...")
    start = time.perf_counter()
    results = run_cells(cells, workers=args.workers, watch=args.watch)
    wall = time.perf_counter() - start
    report = aggregate(results)
    summary: Dict = report["summary"]

    print(f"done in {wall:.2f}s")
    for config, rate in summary["events_per_sec"].items():
        print(f"  engine [{config:<6}] {rate:>12,.0f} events/sec")
    for config, rate in summary["far_events_per_sec"].items():
        print(f"  engine_far [{config:<6}] {rate:>12,.0f} events/sec")
    for config in BENCHES["packet"][1]:
        print(f"  packet [{config:<6}] fan-out "
              f"{summary['fanout_packets_per_sec'][config]:>12,.0f} pkts/sec, "
              f"forward {summary['forward_packets_per_sec'][config]:>12,.0f} pkts/sec")
    print(f"  lookup [radix ] {summary['lookups_per_sec']:>12,.0f} lookups/sec")
    for config, rate in summary["internet_spf_events_per_sec"].items():
        converged = summary["internet_routers_converged_per_sec"][config]
        print(f"  internet_zoo [{config:<4}] {rate:>10,.0f} spf events/sec, "
              f"{converged:>8,.1f} routers-converged/sec")
    print(f"  internet SPF speedup (incremental vs full): "
          f"{summary['internet_spf_speedup']:.2f}x")
    for config, rate in summary["traffic_bg_flow_secs_per_sec"].items():
        print(f"  traffic_plane [{config:<6}] {rate:>14,.0f} bg flow-secs/sec")
    print(f"  traffic hybrid speedup (100k fluid users vs packet crowd): "
          f"{summary['traffic_hybrid_speedup']:.2f}x "
          f"({summary['traffic_solver_resolves_per_sec']:,.0f} re-solves/sec)")

    if not args.dry_run:
        entry = {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "commit": detect_commit(_ROOT),
            "python": platform.python_version(),
            "workers": args.workers,
            "scale": args.scale,
            "wall_s": round(wall, 3),
            "summary": summary,
            "cells": results,
        }
        path = write_artifact(entry, args.out)
        print(f"artifact: {path} ({len(json.load(open(path))['runs'])} run(s))")
        # One summary row per invocation in the cross-commit trajectory.
        trajectory = BenchTrajectory(
            name="core", results_dir=os.path.dirname(args.out) or RESULTS_DIR
        )
        archives = {
            "{bench}_{config}_{seed}".format(**cell): cell["archive"]["manifest"]
            for cell in results
            if "archive" in cell
        }
        extra = {"python": platform.python_version(), "scale": args.scale,
                 "wall_s": round(wall, 3)}
        if archives:
            extra["archives"] = archives
        row = trajectory.append(
            dict(summary, **extra),
            commit=entry["commit"],
            timestamp=entry["timestamp"],
        )
        print(f"trajectory: {trajectory.path} (+1 row, commit {row['commit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
