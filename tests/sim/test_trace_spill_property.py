"""Hypothesis battery for the JSONL trace: every value kind round-trips,
N incremental spills write the bytes of one, and a reader of a torn
file fails loudly, never silently, after a strict prefix of the
records."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.query import read_trace_jsonl
from repro.sim import Simulator
from repro.sim.trace import QUIET_KINDS
from tests.sim.test_trace_spill import log, read, same

_value = st.one_of(st.integers(), st.floats(), st.text(max_size=20),
                   st.booleans(), st.none())
_name = st.text(st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1, max_size=8)
# "kind"/"self" collide with log()'s parameters and "t" with the time;
# a quiet kind records nothing until it is enabled.
_fields = st.dictionaries(
    _name.filter(lambda s: s not in ("kind", "self", "t")), _value,
    max_size=5)
_records = st.lists(st.tuples(
    st.floats(0.0, 1e6), _name.filter(lambda s: s not in QUIET_KINDS),
    _fields), min_size=1, max_size=30)


@settings(max_examples=50, deadline=None)
@given(_records)
def test_spill_round_trips_all_value_kinds(tmp_path_factory, specs):
    """Every record comes back, its values with their types."""
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    sim = Simulator()
    log(sim, specs)
    assert sim.trace.spill_to(str(path)) == len(specs)
    loaded = read(path)
    assert [(t, k, list(f)) for t, k, f in loaded] \
        == [(t, k, list(f)) for t, k, f in specs]
    for (_, _, got), (_, _, fields) in zip(loaded, specs):
        assert all(same(got[k], v) for k, v in fields.items())


@settings(max_examples=25, deadline=None)
@given(st.lists(_records, min_size=1, max_size=4))
def test_incremental_spills_byte_equal_one_shot(tmp_path_factory, chunks):
    tmp = tmp_path_factory.mktemp("trace")
    split = Simulator()
    for chunk in chunks:
        log(split, chunk)
        split.trace.spill_to(str(tmp / "split.jsonl"))
    whole = Simulator()
    log(whole, [spec for chunk in chunks for spec in chunk])
    whole.trace.spill_to(str(tmp / "whole.jsonl"))
    assert (tmp / "split.jsonl").read_bytes() \
        == (tmp / "whole.jsonl").read_bytes()


@settings(max_examples=25, deadline=None)
@given(_records, st.data())
def test_truncation_raises_or_yields_strict_prefix(tmp_path_factory,
                                                   specs, data):
    tmp = tmp_path_factory.mktemp("trace")
    sim = Simulator()
    log(sim, specs)
    sim.trace.spill_to(str(tmp / "full.jsonl"))
    full = (tmp / "full.jsonl").read_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(full) - 1))
    (tmp / "cut.jsonl").write_bytes(full[:cut])
    try:
        loaded = read(tmp / "cut.jsonl")
    except ValueError as exc:
        assert str(exc).startswith(f"{tmp / 'cut.jsonl'}:")  # file:line
        return
    # A silent success is a prefix of the records, and all of them only
    # when the cut took nothing but the last line's newline.
    expected = read(tmp / "full.jsonl")
    assert len(loaded) < len(expected) or full[cut:] == b"\n"
    assert repr(loaded) == repr(expected[:len(loaded)])  # NaN-safe


def test_iter_spill_is_lazy_about_errors(tmp_path):
    """The reader yields clean records before raising on a torn tail,
    so a streaming consumer sees data up to the corruption."""
    sim, path = Simulator(), tmp_path / "trace.jsonl"
    log(sim, [(float(i), "tick", {"n": i}) for i in range(5)])
    sim.trace.spill_to(str(path))
    path.write_bytes(path.read_bytes()[:-6])  # inside the last record
    seen = []
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}:6: not a JSON line")):
        for row in read_trace_jsonl(str(path)):
            seen.append(row["n"])
    assert seen == [0, 1, 2, 3]
