"""Compare two ledger results: ``compare.py BASE NEW``.

For every workload x end-to-end metric prints base, new, their ratio
(with its base), the metric's bound and a verdict:

* ``better``     every run of NEW reads better than every run of BASE,
                 by more than the runs' own spread and a third of the
                 bound (three runs a side order themselves by chance
                 one time in twenty);
* ``same``       NEW's median is no worse than BASE's by more than the
                 bound, and the spread is inside the bound;
* ``worse``      NEW's median is worse by more than the bound;
* ``unresolved`` the run-to-run spread is wider than the bound, so the
                 runs cannot tell (reported, not counted as unchanged).

Exits 1 on any ``worse``, 2 when the two files cannot be compared:
results of a different scale, seed, workload version or Python minor
are refused, not compared. Also diffs each workload's ``digest`` and
exact counters: a change that is only meant to be faster must leave
them identical.
"""

from __future__ import annotations

import json
import sys

from run import END_TO_END

SETUP_FLOOR_S = 0.15  # setup_s may move by this much whatever its size


class Refused(Exception):
    """The two ledgers were not taken under the same conditions."""


def load(path: str) -> dict:
    with open(path) as handle:
        ledger = json.load(handle)
    if ledger.get("schema") != "ledger/1":
        raise Refused(f"{path}: not a ledger/1 file")
    return ledger


def check_comparable(base: dict, new: dict) -> None:
    for key in ("scale", "seed", "python"):
        if base[key] != new[key]:
            raise Refused(f"{key} differs: base {base[key]!r}, new {new[key]!r}")
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        versions = [side["workloads"][name].get("version") for side in (base, new)]
        if versions[0] != versions[1]:
            raise Refused(f"{name}: workload version differs: {versions}")


def verdict(metric: str, base: dict, new: dict) -> str:
    """``base`` and ``new`` are ``{"median", "min", "max", ...}``."""
    _unit, better, bound = END_TO_END[metric]
    sign = 1.0 if better == "lower" else -1.0  # makes larger = worse
    allowed = bound * base["median"]
    if metric == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    worse_by = sign * (new["median"] - base["median"])
    spread = max(base["max"] - base["min"], new["max"] - new["min"])
    if sign > 0:
        all_better = new["max"] < base["min"]
        all_worse = new["min"] > base["max"]
    else:
        all_better = new["min"] > base["max"]
        all_worse = new["max"] < base["min"]
    if spread > allowed:  # the runs cannot resolve the bound...
        if all_better:  # ...unless one side beats the other run for run
            return "better"
        return "worse" if all_worse and worse_by > allowed else "unresolved"
    if worse_by > allowed:
        return "worse"
    if all_better and -worse_by > max(spread, allowed / 3.0):
        return "better"
    return "same"


def fail_share_verdict(base: float, new: float) -> str:
    """Bound 0: any rise in the share of failed checks is worse."""
    if new > base:
        return "worse"
    return "better" if new < base else "same"


def compare(base: dict, new: dict) -> int:
    """Print the comparison; returns the number of ``worse`` verdicts."""
    check_comparable(base, new)
    worse = 0
    header = (f"{'workload':<20} {'metric':<12} {'base':>12} {'new':>12} "
              f"{'new/base':>9} {'bound':>6}  verdict")
    print(header)
    for name in base["workloads"]:
        if name not in new["workloads"]:
            print(f"{name:<20} missing from NEW")
            continue
        old_row, new_row = base["workloads"][name], new["workloads"][name]
        for metric, (_unit, _better, bound) in END_TO_END.items():
            old, now = old_row["end_to_end"].get(metric), new_row["end_to_end"].get(metric)
            if old is None or now is None:
                print(f"{name:<20} {metric:<12} no completed run on one side")
                continue
            result = verdict(metric, old, now)
            worse += result == "worse"
            ratio = now["median"] / old["median"]
            print(f"{name:<20} {metric:<12} {old['median']:>12.4f} "
                  f"{now['median']:>12.4f} {ratio:>8.3f}x {bound:>6.0%}  {result}"
                  f"  (base={old['median']:.4f}, K={old['k']}/{now['k']})")
        result = fail_share_verdict(old_row["fail_share"], new_row["fail_share"])
        worse += result == "worse"
        print(f"{name:<20} {'fail_share':<12} {old_row['fail_share']:>12.4f} "
              f"{new_row['fail_share']:>12.4f} {'':>9} {0:>6.0%}  {result}")
        if old_row["digest"] == new_row["digest"]:
            print(f"{name:<20} digest       identical")
            continue
        print(f"{name:<20} digest       DIFFERS: the sim-world work changed")
        for section in ("counters", "outputs"):
            before, after = old_row.get(section, {}), new_row.get(section, {})
            for key in sorted(set(before) | set(after)):
                if before.get(key) != after.get(key):
                    print(f"{'':<20}   {section}.{key}: {before.get(key)} -> "
                          f"{after.get(key)}")
    return worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0] + "\nusage: compare.py BASE NEW", file=sys.stderr)
        return 2
    try:
        worse = compare(load(argv[0]), load(argv[1]))
    except Refused as refusal:
        print(f"compare: refused: {refusal}", file=sys.stderr)
        return 2
    print(f"compare: {worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
