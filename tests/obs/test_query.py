"""Tests for the cross-run analysis engine: lazy tables, the
first-divergence diff, the causal explain chain, and the CLI verbs over
them, on the three Fig-8 archives of ``conftest.py``.
"""

import json
import os
import tracemalloc

import pytest

from repro.obs.__main__ import main
from repro.obs.query import (
    ArchiveReader,
    Table,
    diff_archives,
    diff_tables,
    explain_archive,
    flatten,
    nudge_spill,
    open_artifact,
    read_live_feed,
    read_sampler_csv,
    sniff_kind,
)
from repro.sim import Simulator
from tests.obs.conftest import NUDGE_DT, NUDGE_INDEX


# ----------------------------------------------------------------------
# Same-seed runs: byte-identical archives, zero divergences
# ----------------------------------------------------------------------
def test_same_seed_archives_have_zero_divergences(archives):
    report = diff_archives(archives["a"], archives["b"])
    assert report["divergences"] == []
    assert report["only_a"] == report["only_b"] == []
    assert report["meta_diffs"] == {}
    assert set(report["identical"]) == {
        "flights.jsonl", "live.jsonl", "report.json", "report.md",
        "series.csv", "trace.spill",
    }


def test_same_seed_artifact_hashes_agree_in_manifest(archives):
    arts_a = ArchiveReader(archives["a"]).artifacts
    arts_b = ArchiveReader(archives["b"]).artifacts
    assert {n: e["sha256"] for n, e in arts_a.items()} \
        == {n: e["sha256"] for n, e in arts_b.items()}


# ----------------------------------------------------------------------
# The nudged run: exactly one divergence, localized exactly
# ----------------------------------------------------------------------
def test_nudge_is_localized_to_exact_index_and_field(archives):
    report = diff_archives(archives["a"], archives["c"])
    assert len(report["divergences"]) == 1
    d = report["divergences"][0]
    assert d["artifact"] == "trace.spill"
    assert d["index"] == NUDGE_INDEX
    assert d["field"] == "t"
    assert d["fields"] == ["t"]
    assert d["b"] == pytest.approx(d["a"] + NUDGE_DT)
    assert isinstance(d["time"], (list, tuple))  # times differ, both kept
    assert d["kind"]  # the record's kind rides along
    # Every other artifact is untouched by the in-place nudge.
    assert set(report["identical"]) == {
        "flights.jsonl", "live.jsonl", "report.json", "report.md",
        "series.csv",
    }


def test_hash_only_diff_flags_without_row_localization(archives):
    report = diff_archives(archives["a"], archives["c"], hash_only=True)
    assert len(report["divergences"]) == 1
    d = report["divergences"][0]
    assert d["artifact"] == "trace.spill"
    assert d["field"] == "<sha256>"
    assert d["index"] == -1


def test_diff_tables_reports_record_count_mismatch():
    rows = [{"t": 0.0, "kind": "x", "n": 1}, {"t": 1.0, "kind": "x", "n": 2}]
    divs = diff_tables(rows, rows[:1], artifact="short")
    assert len(divs) == 1
    assert divs[0].field == "<record-count>"
    assert divs[0].index == 1
    assert divs[0].b == "<absent>"


def test_nudge_spill_rejects_out_of_range_index(archives, tmp_path):
    spill = ArchiveReader(archives["a"]).path("trace.spill")
    copy = tmp_path / "copy.spill"
    copy.write_bytes(open(spill, "rb").read())
    with pytest.raises(IndexError, match="records"):
        nudge_spill(str(copy), 10**6, 1.0)


# ----------------------------------------------------------------------
# Memory ceiling: stream a spill far larger than peak traced memory
# ----------------------------------------------------------------------
def test_query_streams_spill_over_10x_larger_than_peak_memory(tmp_path):
    sim = Simulator()
    path = str(tmp_path / "big.spill")
    total = 0
    for chunk in range(100):
        for i in range(2000):
            sim.trace.log("pkt", node=f"n{i % 7}", uid=total, rtt=0.5)
            total += 1
        sim.trace.spill_to(path)  # append-safe chunks keep build RAM flat
    size = os.path.getsize(path)

    table = open_artifact(path).where(node="n3")
    tracemalloc.start()
    count = 0
    last_uid = -1
    for row in table:
        count += 1
        assert row["uid"] > last_uid
        last_uid = row["uid"]
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert count == 100 * sum(1 for i in range(2000) if i % 7 == 3)
    # The whole file streamed through, yet peak memory stayed an order
    # of magnitude under the file size: nothing was materialized.
    assert size > 10 * peak, (size, peak)


# ----------------------------------------------------------------------
# Table combinators
# ----------------------------------------------------------------------
def _rows():
    return [
        {"t": 0.0, "kind": "ping", "node": "a", "rtt": 10.0},
        {"t": 1.0, "kind": "ping", "node": "b", "rtt": 30.0},
        {"t": 2.5, "kind": "pong", "node": "a", "rtt": 20.0},
        {"t": None, "kind": "meta", "node": None, "rtt": None},
    ]


def test_table_is_lazy_and_reiterable():
    pulls = []

    def source():
        pulls.append(1)
        return iter(_rows())

    table = Table(source).where(kind="ping").select("node", "rtt")
    assert pulls == []  # combinators read nothing
    assert list(table) == [{"node": "a", "rtt": 10.0},
                           {"node": "b", "rtt": 30.0}]
    assert list(table) == list(table)  # re-iterable, fresh pull each time
    assert len(pulls) >= 3


def test_table_span_window_head_and_agg():
    table = Table(lambda: iter(_rows()))
    assert [r["t"] for r in table.span(1.0, 3.0)] == [1.0, 2.5]
    assert [r["t"] for r in table.span()] == [0.0, 1.0, 2.5, None]
    assert [r["bucket"] for r in table.window(2.0)] == [0.0, 0.0, 2.0, None]
    assert len(list(table.head(2))) == 2
    with pytest.raises(ValueError):
        table.window(0)

    out = table.where(kind="ping").agg(
        [("count", None), ("mean", "rtt"), ("max", "rtt")])
    assert out == [{"count": 2, "mean(rtt)": 20.0, "max(rtt)": 30.0}]
    grouped = table.agg([("count", None)], by=("node",))
    # Groups sort by repr of the key: quoted strings before None.
    assert grouped == [
        {"node": "a", "count": 2},
        {"node": "b", "count": 1},
        {"node": None, "count": 1},
    ]


def test_flatten_dots_nested_dicts():
    assert flatten({"a": {"b": 1, "c": {"d": 2}}, "e": [3]}) \
        == {"a.b": 1, "a.c.d": 2, "e": [3]}


# ----------------------------------------------------------------------
# Readers + pushdown over the real archive
# ----------------------------------------------------------------------
def test_archive_reader_names_and_kinds(archives):
    reader = ArchiveReader(archives["a"])
    assert reader.names("trace_spill") == ["trace.spill"]
    assert reader.names("live_feed") == ["live.jsonl"]
    assert reader.meta["seed"] == 8
    assert len(reader.meta["config_signature"]) == 16


def test_spill_pushdown_equals_post_hoc_filtering(archives):
    reader = ArchiveReader(archives["a"])
    pushed = list(reader.table("trace.spill", kinds="rib_change",
                               t0=45.0, t1=60.0))
    plain = list(reader.table("trace.spill").where(kind="rib_change")
                 .span(45.0, 60.0))
    assert pushed == plain and pushed


def test_live_feed_and_sampler_readers(archives):
    reader = ArchiveReader(archives["a"])
    feed = list(read_live_feed(reader.path("live.jsonl")))
    assert feed[0]["kind"] == "header"
    assert feed[0]["schema"] == "repro.live/1"
    snapshots = [r for r in feed if r["kind"] == "snapshot"]
    assert snapshots and all("t" in r for r in snapshots)

    series = list(read_sampler_csv(reader.path("series.csv")))
    assert {r["key"] for r in series} == {"rtt"}
    assert all(isinstance(r["t"], float) for r in series)

    flights = list(reader.table("flights.jsonl", kinds="flight"))
    assert flights and all(r["kind"] == "flight" for r in flights)
    dropped = [r for r in flights if str(r["status"]).startswith("dropped")]
    assert dropped  # the failover drops probes into the blackhole


def test_sniff_kind_recognizes_every_fixture_artifact(archives):
    reader = ArchiveReader(archives["a"])
    for name, want in (
        ("trace.spill", "trace_spill"),
        ("live.jsonl", "live_feed"),
        ("series.csv", "sampler_csv"),
        ("flights.jsonl", "flight_jsonl"),
        ("report.json", "json"),
    ):
        assert sniff_kind(reader.path(name)) == want


# ----------------------------------------------------------------------
# Explain: the causal chain
# ----------------------------------------------------------------------
def test_explain_stitches_fault_episode_blackhole_flights(archives):
    doc = explain_archive(archives["a"])
    assert doc["faults"] == 1  # the restore is a plan action, one fault
    assert doc["chain"], "no causal chain built"
    link = doc["chain"][0]
    assert link["fault"]["action"] == "fail_link"
    episode = link["episode"]
    assert episode["detection_s"] > 0
    assert episode["convergence_s"] >= episode["detection_s"]
    assert episode["routers"] > 0
    assert link["blackholes"] and \
        link["blackholes"][0]["pair"] == "washington->seattle"
    assert link["flights"]["dropped"] > 0
    assert link["flights"]["overlapping"] >= link["flights"]["dropped"]


def test_explain_at_anchors_to_the_containing_episode(archives):
    doc = explain_archive(archives["a"], at=52.0)  # inside the episode
    assert len(doc["chain"]) == 1
    assert doc["at"] == 52.0
    early = explain_archive(archives["a"], at=1.0)  # before any fault
    assert len(early["chain"]) == 1  # falls back to the first link


# ----------------------------------------------------------------------
# CLI: exit codes and byte-identical output
# ----------------------------------------------------------------------
def _capture(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_cli_diff_assert_gates_on_divergence(archives, capsys):
    code, out = _capture(
        capsys, ["diff", archives["a"], archives["b"], "--assert"])
    assert code == 0
    assert json.loads(out)["divergences"] == []
    code, out = _capture(
        capsys, ["diff", archives["a"], archives["c"], "--assert"])
    assert code == 1
    assert json.loads(out)["divergences"][0]["index"] == NUDGE_INDEX


def test_cli_q_output_is_byte_identical_across_same_seed_runs(
        archives, capsys):
    argv = ["q", None, "trace.spill", "--kind", "rib_change",
            "--t0", "45", "--t1", "60", "--cols", "router,dest"]
    outputs = []
    for key in ("a", "b"):
        argv[1] = archives[key]
        code, out = _capture(capsys, argv)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] and outputs[0]
    first = json.loads(outputs[0].splitlines()[0])
    assert set(first) <= {"router", "dest", "t", "kind"}


def test_cli_q_agg_and_where(archives, capsys):
    code, out = _capture(
        capsys, ["q", archives["a"], "series.csv",
                 "--agg", "count,max:count", "--by", "key"])
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["key"] == "rtt" and row["count"] > 0


def test_cli_diff_and_explain_are_deterministic(archives, capsys):
    diff_argv = ["diff", archives["a"], archives["b"]]
    _, first = _capture(capsys, diff_argv)
    _, second = _capture(capsys, diff_argv)
    assert first == second

    _, explain_a = _capture(capsys, ["explain", archives["a"]])
    _, explain_a2 = _capture(capsys, ["explain", archives["a"]])
    assert explain_a == explain_a2
    _, explain_b = _capture(capsys, ["explain", archives["b"]])
    doc_a, doc_b = json.loads(explain_a), json.loads(explain_b)
    doc_a.pop("path"), doc_b.pop("path")
    assert doc_a == doc_b  # identical chains, only the location differs


def test_cli_diff_explain_appends_chain_at_divergence(archives, capsys):
    code, out = _capture(
        capsys, ["diff", archives["a"], archives["c"], "--explain"])
    assert code == 0  # no --assert: advisory
    # Two JSON documents: the diff report, then the anchored chain.
    decoder = json.JSONDecoder()
    report, end = decoder.raw_decode(out)
    explanation, _ = decoder.raw_decode(out[end:].lstrip())
    assert report["divergences"][0]["index"] == NUDGE_INDEX
    assert explanation["at"] == report["divergences"][0]["time"][0]
    assert "chain" in explanation


def test_cli_ls_lists_artifacts(archives, capsys):
    code, out = _capture(capsys, ["ls", archives["a"]])
    assert code == 0
    for name in ("trace.spill", "live.jsonl", "series.csv",
                 "flights.jsonl", "report.json", "report.md"):
        assert name in out
    code, out = _capture(capsys, ["ls", archives["a"], "--json"])
    assert json.loads(out)["schema"] == "repro.archive/1"
