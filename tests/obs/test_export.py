"""Unit tests for repro.obs.export: the registry JSONL exporter, series
CSV, and commit detection."""

import json
import os

from repro.obs import (
    MetricsRegistry,
    PeriodicSampler,
    detect_commit,
    export_jsonl,
    export_series_csv,
    registry_jsonl,
)
from repro.sim import Simulator


def _populated_registry():
    reg = MetricsRegistry(enabled=True)
    reg.counter("pkts", node="b").inc(3)
    reg.counter("pkts", node="a").inc(1)
    reg.gauge("depth", node="a").set(2.5)
    h = reg.histogram("rtt", node="a")
    for v in (0.076, 0.093, 0.076):
        h.observe(v)
    return reg


def test_registry_jsonl_sorted_and_parseable():
    text = registry_jsonl(_populated_registry())
    lines = text.strip().split("\n")
    rows = [json.loads(line) for line in lines]
    names = [r["name"] for r in rows]
    assert names == sorted(names)
    (hist_row,) = [r for r in rows if r["type"] == "histogram"]
    assert hist_row["count"] == 3
    assert hist_row["min"] == 0.076


def test_registry_jsonl_extra_fields_and_empty():
    text = registry_jsonl(_populated_registry(), extra={"seed": 7})
    assert all(json.loads(line)["seed"] == 7 for line in text.strip().split("\n"))
    assert registry_jsonl(MetricsRegistry(enabled=True)) == ""


def test_jsonl_export_is_byte_deterministic(tmp_path):
    a = registry_jsonl(_populated_registry())
    b = registry_jsonl(_populated_registry())
    assert a == b
    path = export_jsonl(_populated_registry(), str(tmp_path / "m.jsonl"))
    with open(path) as handle:
        assert handle.read() == a


def test_export_series_csv(tmp_path):
    sim = Simulator()
    counter = sim.metrics.counter("n")
    hist = sim.metrics.histogram("lat")
    sim.schedule_periodic(0.5, lambda: (counter.inc(), hist.observe(0.01)))
    sampler = PeriodicSampler(sim, 1.0)
    sampler.watch("n", metric=counter).watch("lat", metric=hist).start()
    sim.run(until=2.0)
    path = export_series_csv(sampler, str(tmp_path / "series.csv"))
    with open(path) as handle:
        lines = handle.read().strip().split("\n")
    assert lines[0] == "key,time,value,count,sum"
    n_rows = [line for line in lines if line.startswith("n,")]
    lat_rows = [line for line in lines if line.startswith("lat,")]
    assert len(n_rows) == len(lat_rows) == 3  # t = 0, 1, 2
    # Histogram rows carry (count, sum); scalar rows carry value. The
    # t=2.0 snapshot precedes the same-timestamp workload event, so it
    # sees the 3 increments at t = 0.5, 1.0, 1.5.
    assert lat_rows[-1].split(",")[3] == "3"
    assert n_rows[-1].split(",")[2] == "3"


def test_detect_commit_reads_head(tmp_path):
    git = tmp_path / "repo" / ".git"
    os.makedirs(git / "refs" / "heads")
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "refs" / "heads" / "main").write_text("a" * 40 + "\n")
    nested = tmp_path / "repo" / "sub" / "dir"
    os.makedirs(nested)
    assert detect_commit(str(nested)) == "a" * 12
    # Detached HEAD.
    (git / "HEAD").write_text("b" * 40 + "\n")
    assert detect_commit(str(nested)) == "b" * 12
    # Packed refs.
    (git / "HEAD").write_text("ref: refs/heads/packed\n")
    (git / "packed-refs").write_text("# pack-refs\n" + "c" * 40 + " refs/heads/packed\n")
    assert detect_commit(str(nested)) == "c" * 12
    assert detect_commit(str(tmp_path)) is None  # not a repo


def test_detect_commit_on_this_repo():
    commit = detect_commit(os.path.dirname(__file__))
    assert commit is not None and len(commit) == 12


def test_histogram_buckets_in_jsonl_and_csv():
    reg = MetricsRegistry(enabled=True)
    h = reg.histogram("rtt", bounds=(0.01, 0.05, 0.1))
    for v in (0.005, 0.02, 0.02, 0.2):
        h.observe(v)
    # Cumulative (Prometheus "le") semantics, +Inf carries the total.
    assert h.cumulative_buckets() == [
        [0.01, 1], [0.05, 3], [0.1, 3], ["+Inf", 4]]
    (row,) = [json.loads(line) for line in
              registry_jsonl(reg).strip().split("\n")]
    assert row["buckets"] == [[0.01, 1], [0.05, 3], [0.1, 3], ["+Inf", 4]]
