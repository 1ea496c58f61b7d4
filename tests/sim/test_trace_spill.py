"""The JSONL trace ``TraceCollector.spill_to`` writes and
``repro.obs.query.read_trace_jsonl`` reads back: a header line, then one
object per record. Scalars round-trip, anything else is its ``repr``,
and a malformed line is refused with its file and line."""

import json
import math
import re

import pytest

from repro.net.addr import ip
from repro.obs.query import read_trace_jsonl
from repro.sim import Simulator
from repro.sim.trace import TRACE_SCHEMA

HEADER = json.dumps({"schema": TRACE_SCHEMA}) + "\n"


def read(path):
    """``(time, kind, fields)`` of every record in the file at ``path``."""
    rows = [dict(row) for row in read_trace_jsonl(str(path))]
    return [(row.pop("t"), row.pop("kind"), row) for row in rows]


def log(sim, specs):
    for time, kind, fields in specs:
        sim.now = time  # drive the collector clock directly
        sim.trace.log(kind, **fields)


def same(a, b):
    """Equal values of one type, where NaN equals NaN."""
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


def test_spill_round_trips_every_value_type(tmp_path):
    odd = {"big": 1 << 100, "small": -(1 << 70), "f": 0.07612345,
           "inf": math.inf, "ninf": -math.inf, "nan": math.nan,
           "s": "denver→kc", "nl": "two\nlines\r ", "yes": True,
           "no": False, "none": None}
    sim = Simulator()
    log(sim, [(1.25, "odd", odd), (2.5, "bare", {})])
    path = tmp_path / "trace.jsonl"
    assert sim.trace.spill_to(str(path)) == 2
    assert len(sim.trace) == 0  # spilled records left memory
    text = path.read_text()
    assert text.startswith(HEADER) and text.count("\n") == 3  # a line each
    (t1, k1, got), bare = read(path)
    assert (t1, k1, list(got), bare) == (1.25, "odd", list(odd),
                                         (2.5, "bare", {}))
    assert all(same(got[name], value) for name, value in odd.items())


def test_non_scalars_are_stored_as_their_repr_and_t_is_reserved(tmp_path):
    sim = Simulator()
    rib = (ip("10.0.0.1"), "eth0")  # as the invariant checker logs it
    sim.trace.log("rib_fib", rib=rib, fib=[1])
    sim.trace.spill_to(str(tmp_path / "trace.jsonl"))
    assert read(tmp_path / "trace.jsonl") == [
        (0.0, "rib_fib", {"rib": repr(rib), "fib": "[1]"})]
    sim.trace.log("x", t=1)  # would overwrite the record's time
    with pytest.raises(ValueError, match="'t' is reserved"):
        sim.trace.spill_to(str(tmp_path / "t.jsonl"))


def test_spill_preserves_simulated_timestamps(tmp_path):
    sim = Simulator()
    sim.at(1.25, lambda: sim.trace.log("a", x=1))
    sim.at(2.5, lambda: sim.trace.log("b"))
    sim.run()
    sim.trace.spill_to(str(tmp_path / "t.jsonl"))
    assert read(tmp_path / "t.jsonl") == [(1.25, "a", {"x": 1}),
                                          (2.5, "b", {})]


def test_incremental_spills_equal_one_big_spill(tmp_path):
    one, many = Simulator(), Simulator()
    for i in range(10):
        one.trace.log("tick", n=i, node=f"n{i % 3}")
        many.trace.log("tick", n=i, node=f"n{i % 3}")
        many.trace.spill_to(str(tmp_path / "many.jsonl"))  # appends
    one.trace.spill_to(str(tmp_path / "one.jsonl"))
    assert (tmp_path / "one.jsonl").read_bytes() \
        == (tmp_path / "many.jsonl").read_bytes()
    assert [f["n"] for _, _, f in read(tmp_path / "many.jsonl")] \
        == list(range(10))


def test_spill_empty_collector_writes_valid_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert Simulator().trace.spill_to(str(path)) == 0
    assert path.read_text() == HEADER  # an empty trace is its header
    assert read(path) == []


def test_first_spill_to_a_path_truncates_a_stale_file(tmp_path):
    stale = tmp_path / "trace.jsonl"
    stale.write_text("left over from an earlier run\n")
    sim = Simulator()
    assert sim.trace.spill_to(str(stale)) == 0
    assert stale.read_text() == HEADER
    sim.trace.log("a", n=1)
    sim.trace.spill_to(str(stale))  # later calls append
    assert read(stale) == [(0.0, "a", {"n": 1})]
    Simulator().trace.spill_to(str(stale))  # a new collector truncates
    assert stale.read_text() == HEADER


def test_spill_interning_does_not_leak_across_paths(tmp_path):
    """A fresh path after spilling elsewhere is self-contained: its own
    header, and only the records spilled to it."""
    sim = Simulator()
    sim.trace.log("kind_a", field=1)
    sim.trace.spill_to(str(tmp_path / "a.jsonl"))
    sim.trace.log("kind_a", field=2)
    sim.trace.spill_to(str(tmp_path / "b.jsonl"))
    assert (tmp_path / "b.jsonl").read_text().startswith(HEADER)
    assert read(tmp_path / "a.jsonl") == [(0.0, "kind_a", {"field": 1})]
    assert read(tmp_path / "b.jsonl") == [(0.0, "kind_a", {"field": 2})]


def test_read_spill_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"not a spill file at all")
    with pytest.raises(ValueError, match=re.escape(
            f"{bad}:1: not a JSON line")):
        list(read_trace_jsonl(str(bad)))
    sim = Simulator()
    sim.trace.log("x", n=1)
    good = tmp_path / "good.jsonl"
    sim.trace.spill_to(str(good))
    truncated = tmp_path / "trunc.jsonl"
    truncated.write_bytes(good.read_bytes()[:-3])
    with pytest.raises(ValueError, match=re.escape(
            f"{truncated}:2: not a JSON line")):
        list(read_trace_jsonl(str(truncated)))


@pytest.mark.parametrize("damage, problem", [
    (b'{"t": 5.0}\n', "trace record without"),
    (b"[5.0]\n", "not a JSON object"),
], ids=["no-kind", "not-an-object"])
def test_a_bad_line_ends_a_strict_prefix_naming_file_and_line(
        tmp_path, damage, problem):
    sim, path = Simulator(), tmp_path / "trace.jsonl"
    log(sim, [(float(i), "tick", {"n": i}) for i in range(5)])
    sim.trace.spill_to(str(path))
    path.write_bytes(path.read_bytes() + damage)
    seen = []
    with pytest.raises(ValueError, match=re.escape(f"{path}:7: {problem}")):
        for row in read_trace_jsonl(str(path)):
            seen.append(row["n"])
    assert seen == list(range(5))
