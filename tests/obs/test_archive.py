"""Tests for run archives: manifests over a directory, artifact kinds,
signatures."""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from repro.obs.archive import (
    ARCHIVE_SCHEMA,
    MANIFEST_NAME,
    RunArchive,
    artifact_kind,
    config_signature,
    experiment_signature,
    load_manifest,
    resolve_artifact,
    sha256_file,
)
from repro.sim import Simulator
from repro.topologies import build_abilene_iias

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

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
    blob = root / "traces" / "trace.bin"
    blob.parent.mkdir(parents=True)
    blob.write_bytes(b'{"schema": "repro.trace/1"}\n')
    (root / "cell.json").write_text(json.dumps({"n": 1}))
    archive = RunArchive(str(root), name="run1", meta={"seed": 3})
    path = archive.write()
    assert path == str(root / MANIFEST_NAME)

    manifest = load_manifest(str(root))  # dir or file both resolve
    assert manifest["schema"] == ARCHIVE_SCHEMA
    assert manifest["name"] == "run1"
    assert manifest["meta"] == {"seed": 3}
    assert sorted(manifest["artifacts"]) == ["cell.json", "traces/trace.bin"]
    entry = manifest["artifacts"]["traces/trace.bin"]
    assert entry["kind"] == "trace_jsonl"
    assert entry["bytes"] == 28
    assert entry["sha256"] == hashlib.sha256(
        b'{"schema": "repro.trace/1"}\n').hexdigest()
    assert entry["path"] == "traces/trace.bin"
    assert manifest["artifacts"]["cell.json"]["kind"] == "json"
    assert resolve_artifact(manifest, "traces/trace.bin") == str(blob)
    assert resolve_artifact(manifest, "cell.json") == str(root / "cell.json")


def test_manifest_skips_missing_files_and_write_is_deterministic(tmp_path):
    archive = RunArchive(str(tmp_path / "arch"), meta={"seed": 0})
    archive.write()
    first = (tmp_path / "arch" / MANIFEST_NAME).read_bytes()
    archive.write()  # the manifest does not index itself
    assert (tmp_path / "arch" / MANIFEST_NAME).read_bytes() == first
    assert load_manifest(str(tmp_path / "arch"))["artifacts"] == {}


@pytest.mark.parametrize("first_line, kind", [
    ("key,time,value,count,sum", "sampler_csv"),
    ("key,time,value", "text"),
    ("# Experiment report — x", "report_md"),
    ('{"schema": "repro.live/1"}', "live_feed"),
    ('{"schema": "repro.trace/1"}\n{"t": 0.0, "kind": "x"}', "trace_jsonl"),
    ('{"kind": "control"}', "flight_jsonl"),
    ('{"kind": "metric"}\n{"kind": "metric"}', "text"),
    ('{"meta": {"generator": "repro.obs.report"}}', "report_json"),
    ('{"meta": {"generator": "elsewhere"}}', "json"),
    ("[1,\n2]", "json"),
    ("{ not json", "text"),
    ("", "text"),
])
def test_artifact_kind_is_read_off_the_bytes(first_line, kind, tmp_path):
    path = tmp_path / "artifact.bin"  # the name plays no part
    path.write_text(first_line + "\n")
    assert artifact_kind(str(path)) == kind


def test_load_manifest_rejects_wrong_schema(tmp_path):
    path = tmp_path / MANIFEST_NAME
    path.write_text(json.dumps({"schema": "repro.archive/999"}))
    with pytest.raises(ValueError, match="unsupported archive schema"):
        load_manifest(str(path))


def test_attach_hooks_spill_and_detach_stops_collection(tmp_path):
    sim = Simulator(seed=11)
    archive = RunArchive(str(tmp_path / "arch"))
    assert archive.attach(sim) is archive
    assert archive.meta["seed"] == 11  # defaulted from the simulator

    sim.trace.log("tick", n=1)
    (tmp_path / "arch").mkdir()
    sim.trace.spill_to(str(tmp_path / "arch" / "trace.jsonl"))
    manifest = archive.manifest()
    assert manifest["artifacts"]["trace.jsonl"]["kind"] == "trace_jsonl"
    assert manifest["meta"]["sim_time"] == sim.now

    archive.detach()
    assert "sim_time" not in archive.manifest()["meta"]


def test_only_obs_knows_an_archive_exists():
    """Below the observatory, ``src/repro`` imports only the registry
    and the null flight recorder from ``repro.obs``, and nothing there
    names the archive: writers write files, the archive finds them."""
    allowed = {"repro.obs.metrics", "repro.obs.spans"}
    imported, named = [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("obs/") or rel == "__init__.py":
            continue
        text = path.read_text()
        if "_run_archive" in text:
            named.append(rel)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module:
                # ``from repro import obs`` names repro.obs too.
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            imported += [(rel, name) for name in names
                         if name.split(".")[:2] == ["repro", "obs"]
                         and ".".join(name.split(".")[:3]) not in allowed]
    assert named == [] and imported == []


def test_experiment_signature_tracks_topology_and_timetable():
    _, exp_a = build_abilene_iias(seed=8)
    _, exp_b = build_abilene_iias(seed=8)
    assert experiment_signature(exp_a) == experiment_signature(exp_b)
    _, exp_c = build_abilene_iias(seed=9)
    # Same slice shape regardless of seed: the signature captures the
    # experiment, the seed is separate manifest metadata.
    assert experiment_signature(exp_c) == experiment_signature(exp_a)
