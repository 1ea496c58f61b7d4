"""ExperimentReport: determinism, structure, and the ``fig8`` verb that
writes one."""

import json

import pytest

from repro.obs.__main__ import main
from repro.obs.fig8 import run_fig8
from repro.obs.report import ExperimentReport, build_report
from repro.sim import Simulator


def _fig8_report(out_dir) -> ExperimentReport:
    # The ICMP ident counter is per-simulator, so an in-process rerun
    # matches what two fresh same-seed processes produce.
    return run_fig8(str(out_dir))[1]


@pytest.fixture(scope="module")
def fig8_report(tmp_path_factory):
    return _fig8_report(tmp_path_factory.mktemp("fig8-report"))


# ----------------------------------------------------------------------
# Determinism: same seed => byte-identical artifacts
# ----------------------------------------------------------------------
def test_same_seed_report_byte_identical(fig8_report, tmp_path):
    again = _fig8_report(tmp_path)
    assert fig8_report.to_json() == again.to_json()
    assert fig8_report.to_markdown() == again.to_markdown()


def test_json_is_sorted_and_round_trips(fig8_report):
    text = fig8_report.to_json()
    data = json.loads(text)
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == text
    assert data["meta"]["generator"] == "repro.obs.report"
    # No wall-clock contamination anywhere in the artifact.
    assert "timestamp" not in text


# ----------------------------------------------------------------------
# Structure
# ----------------------------------------------------------------------
def test_report_contains_every_section(fig8_report):
    md = fig8_report.to_markdown()
    for heading in (
        "# Experiment report — fig8",
        "## Run",
        "## Fault timeline",
        "## Convergence episodes",
        "### Path washington->seattle",
        "## Routing timelines",
        "### Adjacency transitions",
        "### RIB churn (changes by router and op)",
        "## Live monitor",
        "## Metrics snapshot",
        "## Sampler series",
        "## Flight recorder",
    ):
        assert heading in md, heading
    data = fig8_report.data
    assert [f["action"] for f in data["faults"]] == [
        "fail_link", "recover_link"
    ]
    episodes = data["convergence"]["episodes"]
    assert len(episodes) == 2
    assert episodes[0]["trigger"] == "fig8:fail_link fail denver=kansascity"
    assert episodes[0]["changes"] > 0
    # Detection reflects the 10 s dead interval.
    assert 4.0 < episodes[0]["detection_s"] < 12.0
    windows = data["convergence"]["paths"]["washington->seattle"]
    assert any(w["status"] == "blackhole" for w in windows)
    assert data["routing"]["rib_changes"]
    assert data["flights"]["started"] > 0
    assert data["samplers"]["fig8"]["series"]


def test_bare_report_omits_optional_sections():
    sim = Simulator(seed=1)
    sim.run(until=0.5)
    report = build_report(sim, name="bare")
    assert set(report.data) == {"meta", "faults", "metrics"}
    md = report.to_markdown()
    assert "No faults fired." in md
    assert "## Convergence episodes" not in md
    assert "## Flight recorder" not in md
    assert report.data["meta"]["sim_time"] == 0.5


def test_write_emits_markdown_and_json(tmp_path, fig8_report):
    base = str(tmp_path / "reports" / "fig8")
    md_path, json_path = fig8_report.write(base)
    assert md_path == base + ".md" and json_path == base + ".json"
    with open(md_path) as handle:
        assert handle.read() == fig8_report.to_markdown()
    with open(json_path) as handle:
        assert json.load(handle)["meta"]["name"] == "fig8"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_report_cli_main(tmp_path, capsys):
    out_dir = tmp_path / "cli_report"
    code = main(["fig8", str(out_dir), "--end", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "episode fig8:fail_link fail denver=kansascity" in out
    assert f"wrote {out_dir / 'manifest.json'}" in out
    assert (out_dir / "report.md").read_text().startswith(
        "# Experiment report — fig8")
    with open(out_dir / "report.json") as handle:
        data = json.load(handle)
    assert data["meta"]["seed"] == 8
