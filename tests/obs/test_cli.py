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


# One battery for the read verbs: each damage is paired with every verb
# that reads the damaged bytes (``ls`` and ``perfetto`` read neither the
# trace nor the series CSV).
def _missing(root):
    shutil.rmtree(root)
    return str(root)


def _wrong_schema(root):
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["schema"] = "repro.archive/999"
    (root / "manifest.json").write_text(json.dumps(manifest))
    return "unsupported archive schema"


def _trace_line(root, index, patch):
    """Rewrite line ``index`` (from 0; -1 is the last) of the trace with
    ``patch``; returns the ``file:line`` an error about it names."""
    lines = (root / "trace.jsonl").read_bytes().splitlines(keepends=True)
    lines[index] = patch(lines[index])
    (root / "trace.jsonl").write_bytes(b"".join(lines))
    return f"trace.jsonl:{index % len(lines) + 1}:"


def _truncated_spill(root):  # cut inside the last record
    return _trace_line(root, -1, lambda line: line[:len(line) // 2]) \
        + " not a JSON line"


def _undefined_kind(root):
    return _trace_line(root, 1, lambda line: line.replace(
        b'"kind":', b'"kinds":', 1)) + " trace record without 't' or 'kind'"


def _non_object_line(root):
    return _trace_line(root, 1, lambda line: b"[" + line[:-1] + b"]\n") \
        + " not a JSON object"


def _short_csv_row(root):
    series = root / "series.csv"
    lines = series.read_text().count("\n")
    with open(series, "a") as handle:
        handle.write("rtt,1.0,\n")
    return f"series.csv:{lines + 1}: expected 5 fields, got 3"


_READ_VERBS = {
    "ls": lambda good, bad, out: ["ls", bad],
    "q": lambda good, bad, out: ["q", bad, "trace.jsonl"],
    "q-filtered": lambda good, bad, out: [
        "q", bad, "trace.jsonl", "--kind", "fault", "--cols", "action"],
    "q-csv": lambda good, bad, out: ["q", bad, "series.csv"],
    "diff": lambda good, bad, out: ["diff", good, bad],
    "explain": lambda good, bad, out: ["explain", bad],
    "perfetto": lambda good, bad, out: ["perfetto", bad, out],
}
_BATTERY = [
    (damage, verb) for damage, verbs in (
        (_missing, ("ls", "q", "diff", "explain", "perfetto")),
        (_wrong_schema, ("ls", "q", "diff", "explain", "perfetto")),
        (_truncated_spill, ("q", "q-filtered", "diff", "explain")),
        (_undefined_kind, ("q", "q-filtered", "diff", "explain")),
        (_non_object_line, ("q", "q-filtered", "diff", "explain")),
        (_short_csv_row, ("q-csv", "diff")),
    ) for verb in verbs
]


@pytest.mark.parametrize(
    "damage, verb", _BATTERY,
    ids=[f"{damage.__name__.lstrip('_')}-{verb}" for damage, verb in _BATTERY])
def test_read_verbs_refuse_bad_input_with_one_error_line(
        damage, verb, archives, tmp_path, capsys):
    root = tmp_path / "copy"
    shutil.copytree(archives["a"], root)
    names = damage(root)
    argv = _READ_VERBS[verb](archives["a"], str(root),
                             str(tmp_path / "out.json"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert names in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args, names", [
    (["--agg", "sum"], "aggregate 'sum' needs a column"),
    (["--agg", "max"], "aggregate 'max' needs a column"),
    (["--window", "0"], "window width must be positive"),
    (["--limit", "-1"], "row limit must not be negative"),
], ids=["agg-sum-no-col", "agg-max-no-col", "window-zero", "limit-negative"])
def test_q_refuses_an_option_it_cannot_answer(args, names, archives, capsys):
    """An aggregate with no column, a zero-wide window and a negative
    limit each have no answer: one error line, not an empty or zero
    result."""
    assert main(["q", archives["a"], "series.csv", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and names in captured.err


def test_unknown_artifact_names_the_ones_the_archive_has(archives, capsys):
    assert main(["q", archives["a"], "nope.jsonl"]) == 2
    err = capsys.readouterr().err
    for name in ("flights.jsonl", "live.jsonl", "trace.jsonl"):
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
    collector's spill-at-threshold, the live monitor's status line,
    watchdogs, engine hook and Click-queue probe, and the event
    vocabularies beside ``FaultAction`` (the experiment's event class and
    per-link scheduling methods, the spec's action table, the install
    target classes), and RIP, HTB, the Click configuration language, the
    wire format and the Poisson and on/off sources, and the archive's
    registration hook, its environment attaches, the metrics-JSONL
    format and the in-place spill nudge, and the settings no run changed
    (now module constants) with the modes only a second value reached,
    and the routing observer, the live monitor's feed class and the
    sampler's spill mode, and the metrics registry's off mode and its
    null instrument: deleted, and not to be documented back in."""
    stale = re.compile(
        r"-m\s+repro\.obs\.(query|report|live|flight)\b"
        r"|\bmake\s+(profile|report)\b"
        r"|runner\.py|check_regression|bench_core_engine|BENCH_core"
        r"|TRAJECTORY_core|make\s+bench\b|incremental_spf|BenchTrajectory"
        r"|--benchmark-only|bench_(table|fig|ablation|bgp)|benchmarks/common"
        r"|fig[89]_experiment|results/(?!unreached\.txt)\w+\.txt"
        # One letter bracketed, so a grep for a deleted name finds no file.
        r"|Trace[R]eplay|Replay[R]ecord|Traffic[M]atrix|install_[m]atrix"
        r"|auto[s]pill"
        r"|St[a]llWatchdog|Liv[e]lockWatchdog|Ra[t]eWatchdog"
        r"|bgp_oscillation_[w]atchdog|status_[l]ine|make\s+watch\b|--watch\b"
        r"|_live_[h]ook|watch_[q]ueues"
        r"|Experiment[E]vent|_(link|physical)_[a]t\b|_EVENT_[A]CTIONS"
        r"|Experiment[T]arget|Physical[T]arget"
        r"|RIP[D]aemon|configure_[r]ip|install_[h]tb|parse_click_[c]onfig"
        r"|click_[c]onfig|xorp_[c]onfig|internet_[c]hecksum|Ethernet[H]eader"
        r"|Poisson[S]ource|OnOff[S]ource"
        r"|attach_from_[e]nv|note_[a]rtifact|REPRO_RUN_[A]RCHIVE"
        r"|REPRO_LIVE_[F]EED|export_[j]sonl|registry_[j]sonl|metrics_[j]sonl"
        r"|nudge_[s]pill|sniff_[k]ind"
        r"|interactive_[t]hreshold|min_[i]nterval|loss_[t]hreshold|max_[l]oss"
        r"|ewma_[a]lpha|ewma_[t]au|wake_[b]onus|ip_[f]orwarding"
        r"|kernel_cost_[f]ixed|kernel_cost_per_[b]yte|app_recv_[c]ost"
        r"|syscalls_per_[p]acket|copy_cost_per_[b]yte|control_[c]ost|spf_[d]elay"
        r"|link_[b]lock|tunnel_port_[b]ase|tunnel_[r]cvbuf|reroute_on_[f]ailure"
        r"|ttl_[g]uard|flight_[s]ample|mss_[b]ytes"
        r"|Routing[O]bserver|Jsonl[F]eed|max_[p]oints|spill_[p]ath"
        r"|spilled_[r]ows|Null[M]etric|NULL_[M]ETRIC|default_[e]nabled")
    hits = []
    for name in ("Makefile", "README.md", "EXPERIMENTS.md", "DESIGN.md",
                 "benchmarks/README.md", ".github/workflows/ci.yml",
                 ".claude/skills/verify/SKILL.md"):
        for number, line in enumerate(
                (REPO / name).read_text().splitlines(), start=1):
            if stale.search(line):
                hits.append(f"{name}:{number}: {line.strip()}")
    assert hits == []
