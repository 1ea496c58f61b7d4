"""Self-tests of the ledger: ``python -m pytest benchmarks/ledger/tests``.

Outside tier-1 ``testpaths`` on purpose: they spawn the benchmark's own
child processes (about a minute in all, at ``--scale 0.05``).
"""

import ast
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_DIR = os.path.dirname(os.path.dirname(LEDGER_DIR))
sys.path.insert(0, LEDGER_DIR)

import compare  # noqa: E402
import run  # noqa: E402

MODULES = layers, scenarios = run.load_modules()

SMOKE_SCALE = 0.05


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One set of all five workloads at smoke scale: K=1 timed round
    plus the traced round, through the command line."""
    out = tmp_path_factory.mktemp("ledger") / "ledger.json"
    done = subprocess.run(
        [sys.executable, os.path.join(LEDGER_DIR, "run.py"), "--scale",
         str(SMOKE_SCALE), "--repeats", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out) as handle:
        return done.stdout, json.load(handle)


def test_every_workload_runs_end_to_end(smoke):
    _stdout, ledger = smoke
    assert sorted(ledger["workloads"]) == sorted(scenarios.WORKLOADS)
    for name, row in ledger["workloads"].items():
        assert row["fail_share"] == 0.0, (name, row["failed_checks"])
        assert set(row["end_to_end"]) == set(run.END_TO_END), name
        for stat in row["end_to_end"].values():
            assert stat["median"] > 0, (name, stat)
        assert row["digest"], name  # timed and traced child agree


def test_benchmark_json_names_are_printed(smoke, benchmark_json):
    stdout, _ledger = smoke
    printed = set(re.findall(r"^\s+(\S+)\s", stdout, flags=re.M))
    printed |= set(re.findall(r"^== (\S+) ", stdout, flags=re.M))
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in benchmark_json[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        assert name in printed, f"{name} is in BENCHMARK.json but never printed"


def test_benchmark_json_matches_the_harness(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(scenarios.WORKLOADS)
    assert [m["name"] for m in benchmark_json["end_to_end"]] == list(run.END_TO_END)
    for metric in benchmark_json["end_to_end"]:
        unit, better, bound = run.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == (unit, better, bound)
    assert {m["name"]: m["unit"] for m in benchmark_json["per_layer"]} == (
        run.per_layer_units(MODULES))
    assert benchmark_json["paths"] == ["benchmarks/ledger"]


def test_every_repro_file_has_a_named_layer():
    unnamed = []
    for folder, _dirs, files in os.walk(layers.REPRO_ROOT):
        for entry in files:
            path = os.path.join(folder, entry)
            if entry.endswith(".py") and layers.layer_of_file(path) == layers.OTHER:
                unnamed.append(os.path.relpath(path, layers.REPRO_ROOT))
    assert not unnamed, f"classify these in layers.py: {unnamed}"
    assert layers.layer_of_file(os.path.join(LEDGER_DIR, "run.py")) == layers.OTHER
    assert layers.layer_of_file(os.__file__) == layers.OTHER


def test_layer_self_times_sum_to_the_traced_total(smoke):
    _stdout, ledger = smoke
    for name, row in ledger["workloads"].items():
        per_layer = {key: value for key, (value, _unit) in row["per_layer"].items()}
        assert per_layer["trace.residual_share"] <= 0.01, name
        assert per_layer["trace.overhead_x"] > 1.0, name
    deter = ledger["workloads"]["deter-kernel-iperf"]["per_layer"]
    assert deter["click.self_s"][0] == 0.0  # the bypass workload
    fluid = ledger["workloads"]["fluid-churn"]["per_layer"]
    shares = {key: value for key, (value, _u) in fluid.items() if key.endswith(".self_s")}
    assert max(shares, key=shares.get) == "traffic.self_s"


def test_fold_attributes_builtins_to_their_callers():
    sim_file = os.path.join(layers.REPRO_ROOT, "sim", "engine.py")
    tcp_file = os.path.join(layers.REPRO_ROOT, "net", "tcp.py")
    run_fn, tcp_fn = (sim_file, 1, "run"), (tcp_file, 1, "segment")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        run_fn: (1, 1, 1.0, 3.0, {}),
        tcp_fn: (10, 10, 1.5, 1.75, {run_fn: (10, 10, 1.5, 1.75)}),
        push: (30, 30, 0.5, 0.5, {run_fn: (20, 20, 0.25, 0.25),
                                  tcp_fn: (10, 10, 0.25, 0.25)}),
    }
    folded = layers.fold_profile(stats)
    assert folded["self_s"]["sim"] == pytest.approx(1.25)
    assert folded["self_s"]["net.tcp"] == pytest.approx(1.75)
    assert sum(folded["self_s"].values()) == pytest.approx(folded["total_s"])
    assert folded["calls_in"]["net.tcp"] == 10
    assert folded["calls_in"]["sim"] == 0
    assert {"from": "sim", "to": "net.tcp", "calls": 10,
            "inclusive_s": pytest.approx(1.75)} in folded["edges"]


def test_same_seed_same_digest_other_seed_other_digest(smoke):
    _stdout, ledger = smoke
    name = "fluid-churn"
    again = run.ChildRunner(scenarios, ledger["seed"], SMOKE_SCALE).run(name)
    other = run.ChildRunner(scenarios, ledger["seed"] + 1, SMOKE_SCALE).run(name)
    assert again["digest"] == ledger["workloads"][name]["digest"]
    assert other["digest"] != again["digest"]


def test_a_hung_run_is_failed_checks_not_a_hung_benchmark(monkeypatch):
    monkeypatch.setattr(run.ChildRunner, "budget_s", lambda *_args: 0.05)
    runner = run.ChildRunner(scenarios, 11, SMOKE_SCALE)
    hung = runner.run("zoo-converge")
    assert hung["failure"] == "timed out"
    assert len(hung["checks"]) == scenarios.ZooConverge.n_checks
    row = run.summarise(MODULES, [hung], [])
    assert row["fail_share"] == 1.0 and not row["end_to_end"]
    assert not [entry for entry in os.listdir(run.OUT_DIR)
                if entry.startswith(f"run-{os.getpid():08d}")]
    result = run.contract_result(row, traced=False)
    assert result["correct"] is False and result["failed"] == result["attempted"]


def _stat(*values):
    return run.spread(list(values))


@pytest.mark.parametrize("base, new, expected", [
    (_stat(10.0, 10.1, 10.2), _stat(10.0, 10.2, 10.3), "same"),
    (_stat(10.0, 10.1, 10.2), _stat(11.8, 11.9, 12.0), "worse"),
    (_stat(10.0, 10.1, 10.2), _stat(8.0, 8.1, 8.2), "better"),
    # Ordered run for run, but by less than a third of the bound: chance.
    (_stat(10.0, 10.1, 10.2), _stat(9.7, 9.8, 9.9), "same"),
    # Spread wider than the bound: the runs cannot tell...
    (_stat(9.0, 10.0, 12.0), _stat(9.5, 10.4, 12.5), "unresolved"),
    (_stat(9.0, 10.0, 12.0), _stat(9.5, 11.9, 12.5), "unresolved"),
    # ...unless every run of one side beats every run of the other.
    (_stat(9.0, 10.0, 12.0), _stat(6.0, 7.0, 8.5), "better"),
    (_stat(9.0, 10.0, 12.0), _stat(12.5, 14.0, 16.0), "worse"),
])
def test_comparer_verdicts(base, new, expected):
    assert compare.verdict("run_s", base, new) == expected


def test_comparer_directions_floors_and_fail_share():
    # work_per_s is higher-is-better.
    assert compare.verdict("work_per_s", _stat(100, 101, 102), _stat(80, 81, 82)) == "worse"
    assert compare.verdict("work_per_s", _stat(100, 101, 102), _stat(120, 121, 122)) == "better"
    # A 0.3 s setup may move by 0.15 s, more than its 25 %.
    assert compare.verdict("setup_s", _stat(0.30, 0.31, 0.32), _stat(0.40, 0.41, 0.42)) == "same"
    assert compare.verdict("setup_s", _stat(0.30, 0.31, 0.32), _stat(0.50, 0.51, 0.52)) == "worse"
    assert compare.fail_share_verdict(0.0, 0.1) == "worse"
    assert compare.fail_share_verdict(0.0, 0.0) == "same"


def test_comparer_refuses_mismatched_ledgers_and_diffs_digests(smoke, capsys):
    _stdout, ledger = smoke
    assert compare.compare(ledger, ledger) == 0
    assert "DIFFERS" not in capsys.readouterr().out
    for key, value in (("scale", 1.0), ("seed", 99), ("python", "2.7")):
        with pytest.raises(compare.Refused, match=key):
            compare.compare(ledger, dict(ledger, **{key: value}))
    changed = json.loads(json.dumps(ledger))
    row = changed["workloads"]["fluid-churn"]
    row["version"] += 1
    with pytest.raises(compare.Refused, match="version"):
        compare.compare(ledger, changed)
    row["version"] -= 1
    row["digest"] = "0" * 64
    row["counters"]["traffic.solver_runs"] += 1
    row["fail_share"] = 0.5
    assert compare.compare(ledger, changed) == 1  # the fail_share rise
    shown = capsys.readouterr().out
    assert "DIFFERS" in shown and "counters.traffic.solver_runs" in shown


def test_ledger_imports_only_repro_and_itself():
    local = {entry[:-3] for entry in os.listdir(LEDGER_DIR) if entry.endswith(".py")}
    for folder in (LEDGER_DIR, os.path.join(LEDGER_DIR, "tests")):
        for entry in sorted(os.listdir(folder)):
            if not entry.endswith(".py"):
                continue
            with open(os.path.join(folder, entry)) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                for module in modules:
                    top = module.split(".")[0]
                    assert top != "tests", f"{entry} imports {module}"
                    assert top != "benchmarks" or module.startswith(
                        "benchmarks.ledger"), f"{entry} imports {module}"
                    assert not top.startswith("bench_"), f"{entry} imports {module}"
                    if top in local:
                        continue
                    assert top == "repro" or top in sys.stdlib_module_names or top in (
                        "pytest", "networkx"), f"{entry} imports {module}"


def test_contract_command_fails_without_the_repository(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files the command exits non-zero and prints no result."""
    shutil.copy(os.path.join(REPO_DIR, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        LEDGER_DIR, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    with open(tmp_path / "BENCHMARK.json") as handle:
        command = json.load(handle)["command"]
    done = subprocess.run(
        command + ["--workload", "fluid-churn", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
