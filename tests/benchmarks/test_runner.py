"""Tests for the multiprocess benchmark runner.

The smoke tests (``tier2_bench_smoke`` marker, ``make tier2-bench-smoke``)
run every bench cell at a tiny scale so a broken benchmark is caught in
seconds without paying for a full perf run. The parity test is the
runner's core contract: sharding cells across worker processes must not
change any deterministic result.
"""

import json

import pytest

from benchmarks.runner import (
    BENCHES,
    aggregate,
    default_cells,
    run_cell,
    run_cells,
    write_artifact,
)

TINY = 0.02  # keeps the whole smoke suite under ~5 seconds


def _deterministic(results):
    """Strip wall-clock fields; keep everything that must be stable."""
    return [
        {k: r[k] for k in ("bench", "config", "seed", "scale", "metrics")}
        for r in results
    ]


@pytest.mark.tier2_bench_smoke
def test_every_cell_runs_at_tiny_scale():
    cells = default_cells(scale=TINY, seeds=(0,))
    # One cell per (bench, config): every registered config is covered.
    assert len(cells) == sum(len(configs) for _fn, configs in BENCHES.values())
    results = run_cells(cells, workers=1)
    for r in results:
        assert r["perf"]["wall_s"] >= 0.0
        assert r["metrics"]
    summary = aggregate(results)["summary"]
    assert summary["events_per_sec"]["heap"] > 0
    assert summary["lookups_per_sec"] > 0
    assert summary["internet_spf_events_per_sec"]["incr"] > 0
    assert summary["internet_spf_speedup"] > 0


@pytest.mark.tier2_bench_smoke
def test_internet_zoo_configs_share_a_fib():
    """Incremental and full SPF converge the tiny internet to the
    identical FIB — the differential claim, checked in the bench lane."""
    incr, full = [
        run_cell({"bench": "internet_zoo", "config": config,
                  "seed": 0, "scale": TINY})
        for config in BENCHES["internet_zoo"][1]
    ]
    assert incr["metrics"]["converged_routers"] == incr["metrics"]["routers"]
    assert full["metrics"]["converged_routers"] == full["metrics"]["routers"]
    assert incr["metrics"]["fib_checksum"] == full["metrics"]["fib_checksum"]
    assert incr["metrics"]["spf_incremental_runs"] > 0
    assert full["metrics"]["spf_incremental_runs"] == 0


@pytest.mark.tier2_bench_smoke
def test_parallel_matches_sequential():
    cells = default_cells(scale=TINY, seeds=(0, 1))
    sequential = run_cells(cells, workers=1)
    parallel = run_cells(cells, workers=2)
    assert _deterministic(sequential) == _deterministic(parallel)


@pytest.mark.tier2_bench_smoke
def test_engine_metrics_identical_across_configs():
    """Every engine cell — each config, each seed — runs the same
    rng-free schedule."""
    results = [
        run_cell({"bench": "engine", "config": config, "seed": seed, "scale": 0.05})
        for config in BENCHES["engine"][1]
        for seed in (0, 1)
    ]
    first = results[0]["metrics"]
    for r in results[1:]:
        assert r["metrics"] == first


def test_artifact_appends_runs(tmp_path):
    path = str(tmp_path / "BENCH_core.json")
    write_artifact({"n": 1}, path)
    write_artifact({"n": 2}, path)
    with open(path) as handle:
        data = json.load(handle)
    assert data["schema"] == 1
    assert [run["n"] for run in data["runs"]] == [1, 2]


def test_artifact_survives_corruption(tmp_path):
    path = str(tmp_path / "BENCH_core.json")
    with open(path, "w") as handle:
        handle.write("{not json")
    write_artifact({"n": 3}, path)
    with open(path) as handle:
        data = json.load(handle)
    assert [run["n"] for run in data["runs"]] == [3]


def test_unknown_bench_config_rejected():
    with pytest.raises(ValueError):
        run_cell({"bench": "engine", "config": "bogus", "seed": 0, "scale": TINY})


def test_archive_dir_cells_land_manifested_archives(tmp_path):
    """With ``archive_dir`` in the spec, a cell writes a RunArchive
    whose ``cell.json`` is deterministic (perf excluded) and returns
    the manifest reference recorded in BENCH_core.json."""
    import os

    from repro.obs.archive import load_manifest, resolve_artifact

    spec = {"bench": "lookup", "config": "radix", "seed": 0,
            "scale": TINY, "archive_dir": str(tmp_path / "arch")}
    merged = run_cell(dict(spec))
    assert "archive_dir" not in merged  # per-invocation knob stripped
    ref = merged["archive"]
    manifest_path = str(tmp_path / "arch" / "lookup_radix_0" /
                        "manifest.json")
    assert os.path.exists(manifest_path)
    manifest = load_manifest(manifest_path)
    assert ref["artifacts"] == {
        name: entry["sha256"]
        for name, entry in manifest["artifacts"].items()
    }
    cell_doc = json.load(open(resolve_artifact(manifest, "cell.json")))
    assert cell_doc["bench"] == "lookup" and "perf" not in cell_doc
    assert cell_doc["metrics"] == merged["metrics"]

    # A same-seed re-run reproduces the identical cell.json hash even
    # though its wall-clock perf numbers differ.
    again = run_cell(dict(spec))
    assert again["archive"]["artifacts"]["cell.json"] \
        == ref["artifacts"]["cell.json"]
    assert os.environ.get("REPRO_RUN_ARCHIVE") is None  # env restored


def test_scenario_cell_archive_collects_run_metadata(tmp_path):
    """Scenario cells (the zoo) attach the archive through the env
    hook, so the manifest carries run identity on top of cell.json."""
    merged = run_cell({"bench": "internet_zoo", "config": "incr",
                       "seed": 0, "scale": TINY,
                       "archive_dir": str(tmp_path / "arch")})
    from repro.obs.archive import load_manifest

    manifest = load_manifest(
        str(tmp_path / "arch" / "internet_zoo_incr_0"))
    assert manifest["meta"]["seed"] == 0
    assert manifest["meta"]["events"] > 0
    assert "config_signature" in manifest["meta"]
    assert "cell.json" in manifest["artifacts"]
    assert merged["archive"]["manifest"].endswith("manifest.json")
