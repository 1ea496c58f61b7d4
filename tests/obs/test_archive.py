"""Tests for run archives: manifests, signatures, the writer hooks."""

import hashlib
import json
import os

import pytest

from repro.obs.archive import (
    ARCHIVE_SCHEMA,
    MANIFEST_NAME,
    RunArchive,
    attach_from_env,
    config_signature,
    experiment_signature,
    load_manifest,
    note_artifact,
    resolve_artifact,
    sha256_file,
)
from repro.sim import Simulator
from repro.topologies import build_abilene_iias


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"x" * 3000)
    assert sha256_file(str(path)) == hashlib.sha256(b"x" * 3000).hexdigest()


def test_config_signature_is_stable_and_order_insensitive():
    a = config_signature({"seed": 8, "name": "fig8"})
    b = config_signature({"name": "fig8", "seed": 8})
    assert a == b and len(a) == 16
    assert config_signature({"seed": 9, "name": "fig8"}) != a
    # Non-JSON leaves sign through repr instead of raising.
    assert config_signature({"obj": (1, 2)}) == config_signature({"obj": (1, 2)})


def test_manifest_records_hashed_relative_artifacts(tmp_path):
    root = tmp_path / "arch"
    blob = tmp_path / "outside" / "trace.bin"
    blob.parent.mkdir()
    blob.write_bytes(b"\x01\x02\x03")
    archive = RunArchive(str(root), name="run1", meta={"seed": 3})
    archive.note(str(blob), "trace_spill")
    root.mkdir()
    (root / "cell.json").write_text(json.dumps({"n": 1}))
    archive.note(str(root / "cell.json"), "json")
    path = archive.write()
    assert path == str(root / MANIFEST_NAME)

    manifest = load_manifest(str(root))  # dir or file both resolve
    assert manifest["schema"] == ARCHIVE_SCHEMA
    assert manifest["name"] == "run1"
    assert manifest["meta"] == {"seed": 3}
    entry = manifest["artifacts"]["trace.bin"]
    assert entry["kind"] == "trace_spill"
    assert entry["bytes"] == 3
    assert entry["sha256"] == hashlib.sha256(b"\x01\x02\x03").hexdigest()
    assert "/" in entry["path"] and "\\" not in entry["path"]
    assert resolve_artifact(manifest, "trace.bin") == str(blob)
    assert resolve_artifact(manifest, "cell.json") == str(root / "cell.json")


def test_note_dedupes_paths_and_suffixes_name_collisions(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for sub in ("a", "b"):
        (tmp_path / sub / "trace.bin").write_bytes(b"x")
    archive = RunArchive(str(tmp_path / "arch"))
    first = archive.note(str(tmp_path / "a" / "trace.bin"), "trace_spill")
    again = archive.note(str(tmp_path / "a" / "trace.bin"), "json")
    other = archive.note(str(tmp_path / "b" / "trace.bin"), "trace_spill")
    assert first == again == "trace.bin"  # re-note updates kind in place
    assert other == "trace.bin-2"
    manifest = archive.manifest()
    assert manifest["artifacts"]["trace.bin"]["kind"] == "json"
    assert set(manifest["artifacts"]) == {"trace.bin", "trace.bin-2"}


def test_manifest_skips_missing_files_and_write_is_deterministic(tmp_path):
    archive = RunArchive(str(tmp_path / "arch"), meta={"seed": 0})
    archive.note(str(tmp_path / "never-written.bin"), "trace_spill")
    archive.write()
    first = (tmp_path / "arch" / MANIFEST_NAME).read_bytes()
    archive.write()
    assert (tmp_path / "arch" / MANIFEST_NAME).read_bytes() == first
    assert load_manifest(str(tmp_path / "arch"))["artifacts"] == {}


def test_load_manifest_rejects_wrong_schema(tmp_path):
    path = tmp_path / MANIFEST_NAME
    path.write_text(json.dumps({"schema": "repro.archive/999"}))
    with pytest.raises(ValueError, match="unsupported archive schema"):
        load_manifest(str(path))


def test_attach_hooks_spill_and_detach_stops_collection(tmp_path):
    sim = Simulator(seed=11)
    archive = RunArchive(str(tmp_path / "arch"))
    assert archive.attach(sim) is archive
    assert sim._run_archive is archive
    assert archive.meta["seed"] == 11  # defaulted from the simulator

    sim.trace.log("tick", n=1)
    spill = str(tmp_path / "trace.spill")
    sim.trace.spill_to(spill)  # TraceCollector self-registers
    manifest = archive.manifest()
    assert manifest["artifacts"]["trace.spill"]["kind"] == "trace_spill"
    assert manifest["meta"]["sim_time"] == sim.now

    archive.detach()
    assert sim._run_archive is None
    assert note_artifact(sim, spill, "trace_spill") is None  # no-op now


def test_env_attach_is_gated_and_idempotent(tmp_path, monkeypatch):
    sim = Simulator(seed=2)
    monkeypatch.delenv("REPRO_RUN_ARCHIVE", raising=False)
    monkeypatch.delenv("REPRO_LIVE_FEED", raising=False)
    assert attach_from_env(sim) is None

    monkeypatch.setenv("REPRO_RUN_ARCHIVE", str(tmp_path / "arch"))
    archive = attach_from_env(sim)
    assert archive is not None and sim._run_archive is archive
    assert attach_from_env(sim) is archive  # second run(): reused


@pytest.mark.parametrize("first, second", [
    ("REPRO_LIVE_FEED", "REPRO_RUN_ARCHIVE"),
    ("REPRO_RUN_ARCHIVE", "REPRO_LIVE_FEED"),
])
def test_env_feed_lands_in_env_archive_whichever_comes_first(
        first, second, tmp_path, monkeypatch):
    values = {"REPRO_LIVE_FEED": str(tmp_path / "arch" / "feed.jsonl"),
              "REPRO_RUN_ARCHIVE": str(tmp_path / "arch")}
    monkeypatch.delenv(second, raising=False)
    monkeypatch.setenv(first, values[first])
    sim = Simulator(seed=2)
    attach_from_env(sim, until=1.0)
    monkeypatch.setenv(second, values[second])
    archive = attach_from_env(sim, until=2.0)
    sim._env_live_monitor.stop()
    assert sim._env_live_monitor.until == 2.0
    artifacts = load_manifest(archive.write())["artifacts"]
    assert artifacts["feed.jsonl"]["kind"] == "live_feed"


def test_experiment_run_writes_env_archive(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_ARCHIVE", str(tmp_path / "arch"))
    vini, exp = build_abilene_iias(seed=8)
    exp.run(until=2.0)
    manifest = load_manifest(str(tmp_path / "arch"))
    meta = manifest["meta"]
    assert meta["seed"] == 8
    assert meta["sim_time"] == 2.0
    assert meta["config_signature"] == experiment_signature(exp)
    assert meta["events"] > 0

    # The manifest is rewritten after every run() call...
    vini.run(until=3.0)
    meta = load_manifest(str(tmp_path / "arch"))["meta"]
    assert meta["sim_time"] == 3.0
    # ... and artifacts landing later still register:
    spill = str(tmp_path / "arch" / "trace.spill")
    vini.sim.trace.spill_to(spill)
    vini.sim._run_archive.write()
    assert "trace.spill" in load_manifest(str(tmp_path / "arch"))["artifacts"]


def test_experiment_signature_tracks_topology_and_timetable():
    _, exp_a = build_abilene_iias(seed=8)
    _, exp_b = build_abilene_iias(seed=8)
    assert experiment_signature(exp_a) == experiment_signature(exp_b)
    _, exp_c = build_abilene_iias(seed=9)
    # Same slice shape regardless of seed: the signature captures the
    # experiment, the seed is separate manifest metadata.
    assert experiment_signature(exp_c) == experiment_signature(exp_a)
