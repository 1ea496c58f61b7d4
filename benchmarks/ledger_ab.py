"""Alternating ledger sets of two checkouts: ``ledger_ab.py BASE NEW``.

One ledger set of each checkout is a pair; ``--sets N`` pairs are run,
alternating which side goes first so a drifting host does not favour
one of them. Each checkout runs its *own* ``benchmarks/ledger/run.py``
against its own ``src``, one set at a time, never two at once. Every
set is kept as ``<out>/base_<i>.json`` / ``<out>/new_<i>.json`` (feed a
pair to ``benchmarks/ledger/compare.py`` for its verdicts; the sets an
earlier A/B left there are deleted first), and the
summary printed at the end is, for each workload x end-to-end metric,
each side's median over the sets, the ratio of those medians with its
base, the ratio set by set, how many sets NEW won, each side's worst
``fail_share`` and every exact counter or output behind a digest that differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

END_TO_END = {  # metric -> which way is better
    "setup_s": "lower", "run_s": "lower", "work_per_s": "higher",
    "peak_rss_mb": "lower",
}


def run_set(checkout: str, out: str, passthrough: list) -> dict:
    script = os.path.join(checkout, "benchmarks", "ledger", "run.py")
    subprocess.run(
        [sys.executable, script, "--out", out, *passthrough],
        cwd=checkout, check=True, stdout=subprocess.DEVNULL,
    )
    with open(out) as handle:
        return json.load(handle)


def differences(old: dict, now: dict):
    """Every exact counter or output the two sides disagree on: both
    values and, for numbers, the delta."""
    for section in ("counters", "outputs"):
        before, after = old.get(section, {}), now.get(section, {})
        for key in sorted(set(before) | set(after)):
            was, new = before.get(key), after.get(key)
            if was != new:
                numeric = isinstance(was, (int, float)) and isinstance(new, (int, float))
                yield (f"{section}.{key}: base {was} -> new {new}"
                       + (f" ({new - was:+})" if numeric else ""))


def summarise(pairs: list) -> int:
    """Print the per-set ratios; returns how many workloads had a
    digest that differed between the sides."""
    differing = 0
    print(f"{'workload':<20} {'metric':<12} {'base':>10} {'new':>10} "
          f"{'new/base':>9}  per set (new won)")
    for name in pairs[0][0]["workloads"]:
        rows = [(base["workloads"][name], new["workloads"][name])
                for base, new in pairs]
        for metric, better in END_TO_END.items():
            medians = [
                (old["end_to_end"][metric]["median"], now["end_to_end"][metric]["median"])
                for old, now in rows
                if metric in old["end_to_end"] and metric in now["end_to_end"]
            ]
            if not medians:
                print(f"{name:<20} {metric:<12} no completed run on one side")
                continue
            base = statistics.median(old for old, _ in medians)
            new = statistics.median(now for _, now in medians)
            ratios = [now / old for old, now in medians]
            won = sum(r < 1.0 if better == "lower" else r > 1.0 for r in ratios)
            print(f"{name:<20} {metric:<12} {base:>10.4f} {new:>10.4f} "
                  f"{new / base:>8.3f}x  {'/'.join(f'{r:.2f}' for r in ratios)} "
                  f"({won}/{len(ratios)})  (base={base:.4f})")
        same = all(old["digest"] == now["digest"] for old, now in rows)
        differing += not same
        failed = [max(row[side]["fail_share"] for row in rows) for side in (0, 1)]
        print(f"{name:<20} digest       "
              f"{'identical in every set' if same else 'DIFFERS'}"
              f"; worst fail_share base {failed[0]:.4f} new {failed[1]:.4f}")
        for line in sorted({line for row in rows for line in differences(*row)}):
            print(f"{'':<20}   {line}")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="checkout of the parent commit")
    parser.add_argument("new", help="checkout of the change")
    parser.add_argument("--sets", type=int, default=4)
    parser.add_argument("--out", default=os.path.join("benchmarks", "results", "ledger_ab"))
    args, passthrough = parser.parse_known_args(argv)  # the rest goes to run.py
    os.makedirs(args.out, exist_ok=True)
    # Only this run's sets are kept: an earlier A/B's would be read as its.
    for name in os.listdir(args.out):
        if name.endswith(".json") and name.startswith(("base_", "new_")):
            os.remove(os.path.join(args.out, name))
    sides = {"base": os.path.abspath(args.base), "new": os.path.abspath(args.new)}
    pairs = []
    for index in range(1, args.sets + 1):
        order = ("base", "new") if index % 2 else ("new", "base")
        results = {}
        for side in order:
            out = os.path.abspath(os.path.join(args.out, f"{side}_{index}.json"))
            print(f"set {index}/{args.sets}: {side} ({sides[side]})", flush=True)
            results[side] = run_set(sides[side], out, passthrough)
        pairs.append((results["base"], results["new"]))
    return 1 if summarise(pairs) else 0


if __name__ == "__main__":
    sys.exit(main())
