"""Perf-regression guard over the bench trajectory.

Compares the newest ``TRAJECTORY_core.jsonl`` row (the run CI just
appended) against the previous row and fails when a tracked
``events_per_sec`` rate dropped by more than the threshold. With fewer
than two rows (first run, or a fresh clone without the restored
artifact) there is no baseline, so the guard warns and exits 0 —
a missing baseline must never block a build.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --threshold 0.10 \
        --metric events_per_sec.heap --metric far_events_per_sec.heap
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, List, Optional

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_TRAJECTORY = os.path.join(
    _ROOT, "benchmarks", "results", "TRAJECTORY_core.jsonl"
)
# Dotted paths into a trajectory row: the engine's two rates, and the
# internet zoo's incremental-SPF rate for the multi-AS lane.
DEFAULT_METRICS = (
    "events_per_sec.heap",
    "far_events_per_sec.heap",
    "internet_spf_events_per_sec.incr",
    "traffic_bg_flow_secs_per_sec.hybrid",
)


def load_rows(path: str) -> List[dict]:
    if not os.path.exists(path):
        return []
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except ValueError:
                continue  # a corrupt line is not a regression
    return rows


def extract(row: dict, dotted: str) -> Optional[float]:
    node: Any = row
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


#: Row-stamp keys that are not benchmark cells.
STAMP_KEYS = frozenset({"archives", "commit", "timestamp", "python", "scale",
                        "seeds", "workers"})

#: Regressed metric -> the (bench, config) cell whose RunArchive
#: explains it. Rows written by ``runner.py --archive-dir`` carry an
#: ``archives`` map of ``<bench>_<config>_<seed> -> manifest path``.
METRIC_CELL = {
    "events_per_sec.heap": ("engine", "heap"),
    "far_events_per_sec.heap": ("engine_far", "heap"),
    "internet_spf_events_per_sec.incr": ("internet_zoo", "incr"),
    "traffic_bg_flow_secs_per_sec.hybrid": ("traffic_plane", "hybrid"),
}


def _load_manifest(path: str) -> Optional[dict]:
    """Plain-JSON ``repro.archive/1`` manifest loader. The guard stays
    stdlib-only, so it does not import :mod:`repro.obs.archive`;
    relative paths (how the runner records them) resolve against the
    repo root, then the working directory."""
    candidates = [path] if os.path.isabs(path) else [
        os.path.join(_ROOT, path), path,
    ]
    for candidate in candidates:
        if not os.path.exists(candidate):
            continue
        try:
            with open(candidate) as handle:
                manifest = json.load(handle)
        except (ValueError, OSError):
            return None
        if not isinstance(manifest, dict):
            return None
        manifest["_dir"] = os.path.dirname(os.path.abspath(candidate))
        return manifest
    return None


def _cell_doc(manifest: dict) -> Optional[dict]:
    """The deterministic ``cell.json`` payload an archived cell carries
    (the bench result minus wall-clock ``perf``)."""
    entry = manifest.get("artifacts", {}).get("cell.json")
    if entry is None:
        return None
    path = os.path.normpath(os.path.join(manifest["_dir"], entry["path"]))
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (ValueError, OSError):
        return None
    return doc if isinstance(doc, dict) else None


def _doc_leaves(doc: Any, prefix: str = "") -> "dict[str, float]":
    """Numeric leaves of an arbitrary JSON document as dotted paths."""
    leaves: "dict[str, float]" = {}
    if isinstance(doc, dict):
        for key in doc:
            leaves.update(_doc_leaves(doc[key], f"{prefix}{key}."))
    elif isinstance(doc, list):
        for index, item in enumerate(doc):
            leaves.update(_doc_leaves(item, f"{prefix}{index}."))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        leaves[prefix[:-1] if prefix else ""] = float(doc)
    return leaves


def attribute(baseline: dict, current: dict, dotted: str,
              top: int = 5) -> None:
    """Archive-backed attribution for one regressed metric: diff the
    regressing cell's RunArchive against the baseline row's, name the
    artifacts whose content hash moved, and print the top-shifted
    numeric deltas from the two ``cell.json`` documents. Purely
    advisory — it never changes the exit code."""
    cell = METRIC_CELL.get(dotted)
    if cell is None:
        return
    base_map = baseline.get("archives")
    cur_map = current.get("archives")
    if not isinstance(base_map, dict) or not isinstance(cur_map, dict):
        print(f"    attribution: no archives recorded for {dotted} — "
              "run runner.py with --archive-dir on both rows")
        return
    prefix = "{}_{}_".format(*cell)
    cell_ids = sorted(
        cid for cid in set(base_map) & set(cur_map)
        if cid.startswith(prefix)
    )
    if not cell_ids:
        print(f"    attribution: no archived {prefix}* cell shared by "
              "both rows")
        return
    for cell_id in cell_ids:
        man_a = _load_manifest(base_map[cell_id])
        man_b = _load_manifest(cur_map[cell_id])
        if man_a is None or man_b is None:
            side = "baseline" if man_a is None else "current"
            print(f"    attribution {cell_id}: {side} archive missing "
                  "on disk")
            continue
        arts_a = man_a.get("artifacts", {})
        arts_b = man_b.get("artifacts", {})
        changed = sorted(
            name for name in set(arts_a) & set(arts_b)
            if arts_a[name].get("sha256") != arts_b[name].get("sha256")
        )
        lopsided = sorted(set(arts_a) ^ set(arts_b))
        if not changed and not lopsided:
            print(f"    attribution {cell_id}: artifacts byte-identical "
                  "— wall-clock-only regression (machine/load), not a "
                  "behavior change")
            continue
        moved = ", ".join(changed + lopsided)
        print(f"    attribution {cell_id}: {len(changed)} artifact(s) "
              f"changed, {len(lopsided)} unmatched [{moved}]")
        doc_a, doc_b = _cell_doc(man_a), _cell_doc(man_b)
        if doc_a is None or doc_b is None:
            print("      (no comparable cell.json on both sides; use "
                  f"python -m repro.obs diff {base_map[cell_id]} "
                  f"{cur_map[cell_id]} for record-level localization)")
            continue
        leaves_a, leaves_b = _doc_leaves(doc_a), _doc_leaves(doc_b)
        shifts = []
        for key in sorted(set(leaves_a) | set(leaves_b)):
            va, vb = leaves_a.get(key), leaves_b.get(key)
            if va is None or vb is None:
                shifts.append((float("inf"), key, va, vb))
            elif va != vb:
                rel = abs(vb - va) / max(abs(va), abs(vb))
                shifts.append((rel, key, va, vb))
        if not shifts:
            print("      cell.json metrics agree; the shift is inside "
                  "other artifacts (python -m repro.obs diff localizes the "
                  "first divergent record)")
            continue
        shifts.sort(key=lambda item: (-item[0], item[1]))
        for rel, key, va, vb in shifts[:top]:
            a_txt = "(absent)" if va is None else f"{va:g}"
            b_txt = "(absent)" if vb is None else f"{vb:g}"
            if va not in (None, 0) and vb is not None:
                b_txt += f" ({(vb - va) / abs(va):+.1%})"
            print(f"      shifted {key}: {a_txt} -> {b_txt}")
        if len(shifts) > top:
            print(f"      ... and {len(shifts) - top} more shifted "
                  "leaves")


def numeric_leaves(row: dict, prefix: str = "") -> "dict[str, float]":
    """All numeric leaves of a trajectory row as dotted-path -> value,
    skipping the row stamp (commit/timestamp/...)."""
    leaves: "dict[str, float]" = {}
    for key in row:
        if not prefix and key in STAMP_KEYS:
            continue
        value = row[key]
        if isinstance(value, dict):
            leaves.update(numeric_leaves(value, f"{prefix}{key}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            leaves[f"{prefix}{key}"] = float(value)
    return leaves


def trend(rows: List[dict]) -> None:
    """One-line prev -> current delta per cell, printed even on pass —
    without this the trajectory is invisible in CI unless it regresses."""
    if len(rows) < 2:
        return
    baseline = numeric_leaves(rows[-2])
    current = numeric_leaves(rows[-1])
    print(f"check_regression: trend ({len(current)} cell metrics)")
    for dotted in sorted(set(baseline) | set(current)):
        base = baseline.get(dotted)
        cur = current.get(dotted)
        if base is None:
            print(f"  trend {dotted}: (new) -> {cur:g}")
        elif cur is None:
            print(f"  trend {dotted}: {base:g} -> (missing)")
        elif base:
            print(f"  trend {dotted}: {base:g} -> {cur:g} "
                  f"({(cur - base) / base:+.1%})")
        else:
            print(f"  trend {dotted}: {base:g} -> {cur:g}")


def check(rows: List[dict], metrics, threshold: float) -> int:
    if len(rows) < 2:
        print(
            f"check_regression: no baseline ({len(rows)} trajectory row(s)); "
            "skipping — warn only"
        )
        return 0
    baseline, current = rows[-2], rows[-1]
    print(
        f"check_regression: comparing commit {current.get('commit')} "
        f"against {baseline.get('commit')} (threshold {threshold:.0%})"
    )
    if baseline.get("scale") != current.get("scale"):
        print(
            f"  note: scales differ (baseline {baseline.get('scale')}, "
            f"current {current.get('scale')}); rates are still comparable "
            "but noise is higher"
        )
    trend(rows)
    failed = False
    for dotted in metrics:
        base = extract(baseline, dotted)
        cur = extract(current, dotted)
        if base is None or base <= 0:
            print(f"  {dotted}: no baseline value — warn only")
            continue
        if cur is None:
            print(f"  {dotted}: MISSING from the current run")
            failed = True
            continue
        delta = (cur - base) / base
        verdict = "ok"
        if delta < -threshold:
            verdict = "REGRESSION"
            failed = True
        print(
            f"  {dotted}: {base:,.0f} -> {cur:,.0f} "
            f"({delta:+.1%}) {verdict}"
        )
        if verdict == "REGRESSION":
            attribute(baseline, current, dotted)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trajectory", default=DEFAULT_TRAJECTORY,
                        help="TRAJECTORY_core.jsonl path")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="maximum tolerated fractional drop (0.15 = 15%%)")
    parser.add_argument("--metric", action="append", dest="metrics",
                        help="dotted path into a trajectory row "
                             "(repeatable; default: events_per_sec.heap, "
                             "far_events_per_sec.heap)")
    args = parser.parse_args(argv)
    if not 0 < args.threshold < 1:
        parser.error(f"--threshold must be in (0, 1), got {args.threshold}")
    metrics = tuple(args.metrics) if args.metrics else DEFAULT_METRICS
    return check(load_rows(args.trajectory), metrics, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
