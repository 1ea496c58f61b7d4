"""``python -m repro.obs``: the verb list, bad input at the boundary, the
Perfetto view of the flight records, and a guard that keeps the entry
points this CLI replaced out of the docs and the build.

(The ``ls``/``q``/``diff``/``explain`` verbs are exercised on good
input in ``test_query.py``, ``fig8`` in ``test_report.py`` and
``flight`` in ``test_flight.py``.)
"""

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.obs.__main__ import main
from repro.obs.export import perfetto_events
from repro.obs.query import read_flight_jsonl

REPO = Path(__file__).resolve().parents[2]
VERBS = ["fig8", "ls", "q", "diff", "explain", "perfetto", "flight"]


def test_help_lists_exactly_the_seven_verbs(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    (listed,) = re.findall(r"^  \{([^}]+)\}$", capsys.readouterr().out,
                           flags=re.M)
    assert listed.split(",") == VERBS


# ----------------------------------------------------------------------
# Bad input: ``error: ...`` naming the file, exit status 2, no traceback
# ----------------------------------------------------------------------
def _truncate(path: Path) -> None:
    """Keep the first half of the lines and half of the next one."""
    lines = path.read_bytes().splitlines(keepends=True)
    half = len(lines) // 2
    cut = lines[half][: len(lines[half]) // 2]
    path.write_bytes(b"".join(lines[:half]) + cut)


def _unknown_artifact(root):
    return ["q", str(root), "nope.jsonl"], "nope.jsonl"


def _no_such_archive(root):
    missing = str(root / "no" / "such" / "dir")
    return ["ls", missing], missing


def _flights_cut_mid_line_q(root):
    _truncate(root / "flights.jsonl")
    return ["q", str(root), "flights.jsonl"], "flights.jsonl:"


def _flights_cut_mid_line_explain(root):
    _truncate(root / "flights.jsonl")
    return ["explain", str(root)], "flights.jsonl:"


def _truncated_manifest(root):
    _truncate(root / "manifest.json")
    return ["ls", str(root)], "manifest.json"


def _truncated_report(root):
    _truncate(root / "report.json")
    return ["explain", str(root)], "report.json"


@pytest.mark.parametrize("damage", [
    _unknown_artifact, _no_such_archive, _flights_cut_mid_line_q,
    _flights_cut_mid_line_explain, _truncated_manifest, _truncated_report,
], ids=lambda fn: fn.__name__.lstrip("_"))
def test_bad_input_is_an_error_line_not_a_traceback(
        damage, archives, tmp_path, capsys):
    root = tmp_path / "copy"
    shutil.copytree(archives["a"], root)
    argv, names = damage(root)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err
    assert "Traceback" not in err


def test_unknown_artifact_names_the_ones_the_archive_has(archives, capsys):
    assert main(["q", archives["a"], "nope.jsonl"]) == 2
    err = capsys.readouterr().err
    for name in ("flights.jsonl", "live.jsonl", "trace.spill"):
        assert name in err


# ----------------------------------------------------------------------
# Perfetto: a lazy view of the flight records
# ----------------------------------------------------------------------
def test_perfetto_verb_renders_every_record_and_is_deterministic(
        archives, tmp_path, capsys):
    outputs = {}
    for key in ("a", "b"):
        out = tmp_path / f"{key}.perfetto.json"
        assert main(["perfetto", archives[key], str(out)]) == 0
        outputs[key] = out.read_bytes()
    assert f"wrote {tmp_path / 'b.perfetto.json'}" in capsys.readouterr().out
    assert outputs["a"] == outputs["b"]  # same seed, same bytes

    doc = json.loads(outputs["a"])
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    rows = list(read_flight_jsonl(
        str(Path(archives["a"]) / "flights.jsonl")))
    flights = [r for r in rows if r["kind"] == "flight"]
    control = [r for r in rows if r["kind"] == "control"]
    assert flights and control
    complete = [e for e in events if e["ph"] == "X"]
    by_cat = {cat: sum(1 for e in complete if e["cat"] == cat)
              for cat in ("flight", "stage", "control")}
    assert by_cat == {
        "flight": len(flights),
        "stage": sum(len(r["stages"]) for r in flights),
        "control": len(control),
    }
    assert len(complete) + sum(1 for e in events if e["ph"] == "M") \
        == len(events)
    assert all(e["dur"] >= 0 for e in complete)
    # Every pid is declared by a metadata event before its first use.
    declared = set()
    for event in events:
        if event["ph"] == "M":
            assert event["pid"] not in declared
            declared.add(event["pid"])
        else:
            assert event["pid"] in declared


def test_perfetto_events_pulls_one_row_per_event_consumed():
    pulled = []

    def rows():
        for trace in (1, 2, 3):
            pulled.append(trace)
            yield {"kind": "flight", "trace": trace, "name": "ping",
                   "node": "a", "start": 0.0, "end": 1.0, "status": "ok",
                   "stages": [["origin", "a", 0.0, 1.0]]}

    events = perfetto_events(rows())
    assert pulled == []  # building the view reads nothing
    first = next(events)
    assert first["ph"] == "M" and pulled == [1]
    assert [next(events)["cat"] for _ in range(2)] == ["flight", "stage"]
    assert pulled == [1]  # the first row's three events, no read-ahead
    assert next(events)["args"] == {"status": "ok", "trace": 2}
    assert pulled == [1, 2]


# ----------------------------------------------------------------------
# The docs and the build name only the one CLI
# ----------------------------------------------------------------------
def test_docs_and_build_do_not_drift_back_to_the_old_entry_points():
    """``python -m repro.obs.query ...`` would now exit 0 having done
    nothing (the module has no ``__main__`` block), so a stale command
    in CI or the docs must fail here instead. Likewise the microbench
    harness and the SPF knob it vouched for, and the fourteen bench
    scripts ``make paper`` replaced, with their ``results/*.txt`` (the
    reach audit's ``unreached.txt`` is the one text result there is),
    and the flow-schedule replayer, the traffic matrix and the trace
    collector's spill-at-threshold: deleted, and not to be documented
    back in."""
    stale = re.compile(
        r"-m\s+repro\.obs\.(query|report|live|flight)\b"
        r"|\bmake\s+(profile|report)\b"
        r"|runner\.py|check_regression|bench_core_engine|BENCH_core"
        r"|TRAJECTORY_core|make\s+bench\b|incremental_spf|BenchTrajectory"
        r"|--benchmark-only|bench_(table|fig|ablation|bgp)|benchmarks/common"
        r"|fig[89]_experiment|results/(?!unreached\.txt)\w+\.txt"
        # One letter bracketed, so a grep for a deleted name finds no file.
        r"|Trace[R]eplay|Replay[R]ecord|Traffic[M]atrix|install_[m]atrix"
        r"|auto[s]pill")
    hits = []
    for name in ("Makefile", "README.md", "EXPERIMENTS.md", "DESIGN.md",
                 "benchmarks/README.md", ".github/workflows/ci.yml",
                 ".claude/skills/verify/SKILL.md"):
        for number, line in enumerate(
                (REPO / name).read_text().splitlines(), start=1):
            if stale.search(line):
                hits.append(f"{name}:{number}: {line.strip()}")
    assert hits == []
