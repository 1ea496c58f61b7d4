"""``python -m repro.obs <verb>`` — the one observability CLI: ``fig8``
runs the Fig-8 observatory into a run archive, ``ls``/``q``/``diff``/
``explain``/``perfetto`` read archives, ``flight`` decomposes a Table-5
ping run (``--help`` describes each).

Output is JSON/JSONL with sorted keys, so same-seed invocations are
byte-identical (test-enforced). Bad input — a missing or truncated
file, an unknown artifact — ends in ``error: ...`` on stderr and exit
status 2, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import Any, List, Optional

from repro.obs.export import export_perfetto
from repro.obs.fig8 import run_fig8
from repro.obs.flight import run_diff, run_slowest
from repro.obs.query import (
    ArchiveReader,
    diff_archives,
    explain_archive,
    read_flight_jsonl,
)
from repro.obs.report import _num


def _parse_value(text: str) -> Any:
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def _cmd_fig8(args) -> int:
    manifest, report = run_fig8(
        args.out, seed=args.seed, end_at=args.end,
        nudge_index=args.nudge_index, nudge_dt=args.nudge_dt,
    )
    for episode in report.data["convergence"]["episodes"]:
        print("episode %s: detection %s s, convergence %s s, %d changes" % (
            episode["trigger"], _num(episode["detection_s"]),
            _num(episode["convergence_s"]), episode["changes"]))
    print(f"wrote {manifest}")
    return 0


def _cmd_ls(args) -> int:
    reader = ArchiveReader(args.archive)
    if args.json:
        manifest = dict(reader.manifest)
        manifest.pop("_path", None)
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    meta = reader.meta
    print(f"archive {reader.name}  "
          + "  ".join(f"{k}={meta[k]}" for k in sorted(meta)))
    for name in reader.names():
        entry = reader.artifacts[name]
        print(f"  {name:24s} {entry['kind']:16s} "
              f"{entry['bytes']:>10d}B  {entry['sha256'][:12]}")
    return 0


def _cmd_q(args) -> int:
    reader = ArchiveReader(args.archive)
    kinds = args.kind.split(",") if args.kind else None
    fields = args.cols.split(",") if args.cols else None
    table = reader.table(args.artifact, kinds=kinds, fields=fields,
                         t0=args.t0, t1=args.t1)
    for clause in args.where or ():
        if "=" not in clause:
            raise ValueError(f"--where expects col=value, got {clause!r}")
        col, _, value = clause.partition("=")
        table = table.where(**{col: _parse_value(value)})
    if args.window:
        table = table.window(args.window)
    if args.agg:
        spec = []
        for part in args.agg.split(","):
            op, _, col = part.partition(":")
            spec.append((op, col or None))
        by = args.by.split(",") if args.by else ()
        rows = table.agg(spec, by=by)
    else:
        rows = table if args.limit is None else table.head(args.limit)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


def _cmd_diff(args) -> int:
    report = diff_archives(args.a, args.b, hash_only=args.hash_only,
                           max_per_artifact=args.max)
    print(json.dumps(report, indent=2, sort_keys=True))
    divergences = report["divergences"]
    missing = report["only_a"] or report["only_b"]
    if args.explain and divergences:
        at = divergences[0]["time"]
        if isinstance(at, (list, tuple)):
            at = at[0]
        print(json.dumps(explain_archive(args.a, at=at),
                         indent=2, sort_keys=True))
    if args.assert_zero and (divergences or missing):
        return 1
    return 0


def _cmd_explain(args) -> int:
    print(json.dumps(explain_archive(args.archive, at=args.at),
                     indent=2, sort_keys=True))
    return 0


def _cmd_perfetto(args) -> int:
    reader = ArchiveReader(args.archive)
    rows = chain.from_iterable(
        read_flight_jsonl(reader.path(name))
        for name in reader.names("flight_jsonl"))
    print(f"wrote {export_perfetto(rows, args.out)}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run the Fig-8 observatory, query run archives, diff "
                    "two runs down to the first divergent record, explain "
                    "the causal chain around it, and decompose flights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fig8", help="run the Fig-8 scenario into a fresh archive")
    p.add_argument("out", help="archive output directory")
    p.add_argument("--seed", type=int, default=8)
    p.add_argument("--end", type=float, default=45.0,
                   help="experiment length after warmup")
    p.add_argument("--nudge-index", type=int, default=None,
                   help="perturb this trace record's timestamp after "
                        "the run (diff-engine validation)")
    p.add_argument("--nudge-dt", type=float, default=1e-3,
                   help="timestamp nudge in sim-seconds")
    p.set_defaults(fn=_cmd_fig8)

    p = sub.add_parser("ls", help="list an archive's artifacts")
    p.add_argument("archive", help="archive dir or manifest.json")
    p.add_argument("--json", action="store_true",
                   help="print the raw manifest")
    p.set_defaults(fn=_cmd_ls)

    p = sub.add_parser("q", help="query one artifact as JSONL rows")
    p.add_argument("archive")
    p.add_argument("artifact", help="artifact name (see ls)")
    p.add_argument("--kind", help="comma-separated record kinds")
    p.add_argument("--where", action="append", metavar="COL=VALUE",
                   help="equality filter (repeatable)")
    p.add_argument("--t0", type=float, help="window start (sim s)")
    p.add_argument("--t1", type=float, help="window end (sim s)")
    p.add_argument("--cols", help="comma-separated projection")
    p.add_argument("--window", type=float, metavar="W",
                   help="add a W-wide time bucket column")
    p.add_argument("--agg", metavar="OP[:COL],...",
                   help="aggregate: count, sum:col, mean:col, "
                        "min:col, max:col")
    p.add_argument("--by", help="comma-separated group-by columns")
    p.add_argument("--limit", type=int, help="emit at most N rows")
    p.set_defaults(fn=_cmd_q)

    p = sub.add_parser("diff", help="first-divergence diff of two archives")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--hash-only", action="store_true",
                   help="trust manifest hashes; no row localization")
    p.add_argument("--max", type=int, default=1,
                   help="divergences reported per artifact")
    p.add_argument("--assert", dest="assert_zero", action="store_true",
                   help="exit 1 on any divergence (CI gating)")
    p.add_argument("--explain", action="store_true",
                   help="append the causal chain at the first divergence")
    p.set_defaults(fn=_cmd_diff)

    p = sub.add_parser(
        "explain", help="fault -> episode -> flights/blackholes chain")
    p.add_argument("archive")
    p.add_argument("--at", type=float,
                   help="anchor the chain at a sim-time")
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser(
        "perfetto", help="render an archive's flights as a Perfetto trace")
    p.add_argument("archive")
    p.add_argument("out", help="Chrome-trace JSON to write "
                               "(load at https://ui.perfetto.dev)")
    p.set_defaults(fn=_cmd_perfetto)

    p = sub.add_parser(
        "flight", help="slowest-flight latency decomposition of a "
                       "Table-5 PlanetLab ping run")
    p.add_argument("--config", default="plvini",
                   choices=("network", "planetlab", "plvini"),
                   help="paper configuration to run (default: plvini)")
    p.add_argument("--count", type=int, default=100,
                   help="ping packets to send (default: 100)")
    p.add_argument("--interval", type=float, default=0.1,
                   help="seconds between pings (default: 0.1)")
    p.add_argument("--seed", type=int, default=17,
                   help="world RNG seed (default: 17)")
    p.add_argument("--warmup", type=float, default=30.0,
                   help="sim-seconds of warmup before measuring")
    p.add_argument("--slowest", type=int, default=10,
                   help="how many flights to break down (default: 10)")
    p.add_argument("--unloaded", action="store_true",
                   help="skip the contending-slice background load")
    p.add_argument("--export", metavar="PATH", default=None,
                   help="write the retained flights as Perfetto/"
                        "Chrome-trace JSON to PATH")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                   help="re-run two specs and compare their mean "
                        "slowest-flight stage decompositions; each is "
                        "'config:seed', a bare config, or a bare seed "
                        "(defaults fill the rest)")
    p.set_defaults(
        fn=lambda args: (run_diff if args.diff else run_slowest)(args))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        raise  # handled below: a closed pipe is not bad input
    except (OSError, ValueError, KeyError) as exc:
        # A KeyError's str() is the repr of its message.
        detail = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like
        # any well-behaved unix filter.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
