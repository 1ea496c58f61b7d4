"""Tests for the perf-regression guard."""

import json

from benchmarks.check_regression import (
    DEFAULT_METRICS,
    check,
    load_rows,
    main,
    numeric_leaves,
    trend,
)


def _row(commit, rate, far=None, scale=0.1):
    row = {"commit": commit, "scale": scale,
           "events_per_sec": {"heap": rate}}
    if far is not None:
        row["far_events_per_sec"] = {"heap": far}
    return row


def _write(path, rows):
    with open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def test_missing_baseline_is_warn_only(tmp_path):
    path = str(tmp_path / "TRAJECTORY_core.jsonl")
    assert main(["--trajectory", path]) == 0  # no file at all
    _write(path, [_row("aaa", 1_000_000.0)])
    assert main(["--trajectory", path]) == 0  # single row: no baseline


def test_within_threshold_passes(tmp_path):
    path = str(tmp_path / "TRAJECTORY_core.jsonl")
    _write(path, [_row("aaa", 1_000_000.0, 2_000_000.0),
                  _row("bbb", 900_000.0, 1_800_000.0)])  # -10%
    assert main(["--trajectory", path]) == 0


def test_regression_fails(tmp_path):
    path = str(tmp_path / "TRAJECTORY_core.jsonl")
    _write(path, [_row("aaa", 1_000_000.0, 2_000_000.0),
                  _row("bbb", 800_000.0, 1_900_000.0)])  # -20% on one metric
    assert main(["--trajectory", path]) == 1


def test_improvement_passes(tmp_path):
    path = str(tmp_path / "TRAJECTORY_core.jsonl")
    _write(path, [_row("aaa", 1_000_000.0, 2_000_000.0),
                  _row("bbb", 2_500_000.0, 5_000_000.0)])
    assert main(["--trajectory", path]) == 0


def test_metric_missing_from_baseline_warns_only():
    # An old baseline row without far_events_per_sec must not fail the
    # build after the metric is introduced.
    rows = [{"commit": "aaa", "events_per_sec": {"heap": 1_000_000.0}},
            _row("bbb", 1_000_000.0, 2_000_000.0)]
    assert check(rows, DEFAULT_METRICS, 0.15) == 0


def test_metric_missing_from_current_fails():
    rows = [_row("aaa", 1_000_000.0, 2_000_000.0),
            {"commit": "bbb", "events_per_sec": {"heap": 1_000_000.0}}]
    assert check(rows, DEFAULT_METRICS, 0.15) == 1


def test_numeric_leaves_flattens_and_skips_stamp():
    row = {"commit": "aaa", "timestamp": "t", "python": "3.12", "scale": 0.1,
           "events_per_sec": {"heap": 1_000_000.0, "other": 400_000},
           "wall_s": 12.5, "note": "text ignored"}
    leaves = numeric_leaves(row)
    assert leaves == {"events_per_sec.heap": 1_000_000.0,
                      "events_per_sec.other": 400_000.0,
                      "wall_s": 12.5}


def test_trend_prints_every_cell_even_on_pass(tmp_path, capsys):
    path = str(tmp_path / "TRAJECTORY_core.jsonl")
    _write(path, [_row("aaa", 1_000_000.0, 2_000_000.0),
                  _row("bbb", 950_000.0, 2_000_000.0)])  # -5%: passes
    assert main(["--trajectory", path]) == 0
    out = capsys.readouterr().out
    assert "trend events_per_sec.heap: 1e+06 -> 950000 (-5.0%)" in out
    assert "trend far_events_per_sec.heap: 2e+06 -> 2e+06 (+0.0%)" in out


def test_trend_marks_new_and_missing_cells(capsys):
    rows = [{"commit": "aaa", "events_per_sec": {"heap": 1_000_000.0},
             "old_cell": 5.0},
            {"commit": "bbb", "events_per_sec": {"heap": 1_000_000.0},
             "new_cell": 7.0}]
    trend(rows)
    out = capsys.readouterr().out
    assert "trend new_cell: (new) -> 7" in out
    assert "trend old_cell: 5 -> (missing)" in out


def test_trend_noop_without_baseline(capsys):
    trend([_row("aaa", 1_000_000.0)])
    assert capsys.readouterr().out == ""


def test_corrupt_lines_are_skipped(tmp_path):
    path = str(tmp_path / "TRAJECTORY_core.jsonl")
    with open(path, "w") as handle:
        handle.write("{not json\n")
        handle.write(json.dumps(_row("aaa", 1_000_000.0)) + "\n")
    assert len(load_rows(path)) == 1


# ----------------------------------------------------------------------
# Archive-backed attribution on REGRESSION verdicts
# ----------------------------------------------------------------------
def _fixture_archive(root, payload):
    """Write a minimal repro.archive/1 tree: cell.json + manifest."""
    import hashlib
    import os

    os.makedirs(root, exist_ok=True)
    cell = os.path.join(root, "cell.json")
    with open(cell, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
    digest = hashlib.sha256(open(cell, "rb").read()).hexdigest()
    manifest = {
        "schema": "repro.archive/1",
        "name": os.path.basename(root),
        "meta": {"seed": 0},
        "artifacts": {
            "cell.json": {"path": "cell.json", "kind": "bench_cell",
                          "bytes": os.path.getsize(cell), "sha256": digest},
        },
    }
    path = os.path.join(root, "manifest.json")
    with open(path, "w") as handle:
        json.dump(manifest, handle, sort_keys=True)
    return path


def _archived_rows(tmp_path, base_payload, cur_payload,
                   base_rate=1_000_000.0, cur_rate=700_000.0):
    man_a = _fixture_archive(
        str(tmp_path / "base" / "engine_heap_0"), base_payload)
    man_b = _fixture_archive(
        str(tmp_path / "cur" / "engine_heap_0"), cur_payload)
    return [
        dict(_row("aaa", base_rate), archives={"engine_heap_0": man_a}),
        dict(_row("bbb", cur_rate), archives={"engine_heap_0": man_b}),
    ]


def test_regression_attribution_names_top_shifted_metrics(
        tmp_path, capsys):
    """A synthetic >15% drop with archives on both rows prints the
    archive-backed attribution: which artifacts changed and which
    cell.json leaves shifted most."""
    rows = _archived_rows(
        tmp_path,
        {"metrics": {"hello_fires": 5000, "events": 100000,
                     "pending": 10}},
        {"metrics": {"hello_fires": 9000, "events": 100000,
                     "pending": 11}},
    )
    assert check(rows, ("events_per_sec.heap",), 0.15) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "attribution engine_heap_0: 1 artifact(s) changed" in out
    assert "shifted metrics.hello_fires: 5000 -> 9000 (+80.0%)" in out
    assert "shifted metrics.pending: 10 -> 11 (+10.0%)" in out
    # The biggest relative shift is named first.
    assert out.index("metrics.hello_fires") < out.index("metrics.pending")


def test_attribution_identical_artifacts_blame_the_machine(
        tmp_path, capsys):
    payload = {"metrics": {"hello_fires": 5000}}
    rows = _archived_rows(tmp_path, payload, payload)
    assert check(rows, ("events_per_sec.heap",), 0.15) == 1
    out = capsys.readouterr().out
    assert "artifacts byte-identical" in out
    assert "wall-clock-only regression" in out


def test_attribution_without_archives_points_at_archive_dir(capsys):
    rows = [_row("aaa", 1_000_000.0), _row("bbb", 700_000.0)]
    assert check(rows, ("events_per_sec.heap",), 0.15) == 1
    out = capsys.readouterr().out
    assert "no archives recorded" in out and "--archive-dir" in out


def test_attribution_handles_missing_archive_on_disk(tmp_path, capsys):
    rows = _archived_rows(
        tmp_path,
        {"metrics": {"x": 1}}, {"metrics": {"x": 2}},
    )
    rows[0]["archives"]["engine_heap_0"] = str(
        tmp_path / "gone" / "manifest.json")
    assert check(rows, ("events_per_sec.heap",), 0.15) == 1
    out = capsys.readouterr().out
    assert "baseline archive missing" in out


def test_archives_key_is_not_a_trend_cell():
    row = dict(_row("aaa", 1_000_000.0),
               archives={"engine_heap_0": "x/manifest.json"})
    assert all(not key.startswith("archives")
               for key in numeric_leaves(row))
