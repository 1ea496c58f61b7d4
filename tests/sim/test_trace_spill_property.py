"""Hypothesis battery for the struct-packed trace spill format under
the lazy columnar decoder.

The wire format round-trips every value kind, interns strings once per
file, appends safely across incremental spills, and the streaming
decoder (``iter_spill``) must agree with the eager one on every filter
combination while failing loudly — never silently — on truncation.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator
from repro.sim.trace import (
    _SPILL_MAGIC,
    QUIET_KINDS,
    iter_spill,
    read_spill,
)

# Field values: every kind the format encodes losslessly. NaN is
# excluded (NaN != NaN would fail the equality check, not the codec);
# ints cover both the fixed i64 lane and the decimal bigint overflow.
_i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_big = st.integers(min_value=2**63, max_value=2**80) | st.integers(
    min_value=-(2**80), max_value=-(2**63) - 1)
_floats = st.floats(allow_nan=False)
_text = st.text(max_size=20)
_value = st.one_of(_i64, _big, _floats, _text, st.booleans(), st.none())

_name = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1, max_size=8)
# "kind"/"self" cannot be **field names: they collide with log()'s own
# positional parameters — an API constraint, not a format one.
_field_name = _name.filter(lambda s: s not in ("kind", "self"))
_fields = st.dictionaries(_field_name, _value, max_size=5)
_times = st.floats(min_value=0.0, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
# A quiet kind records nothing until it is enabled, and Hypothesis does
# draw them: it mines string constants from the modules under test.
_kind = _name.filter(lambda s: s not in QUIET_KINDS)
_record = st.tuples(_times, _kind, _fields)
_records = st.lists(_record, min_size=1, max_size=30).map(
    lambda specs: sorted(specs, key=lambda s: s[0]))


def _fill(sim, specs):
    for time, kind, fields in specs:
        sim.now = time  # drive the collector clock directly
        sim.trace.log(kind, **fields)


@settings(max_examples=50, deadline=None)
@given(_records)
def test_spill_round_trips_all_value_kinds(tmp_path_factory, specs):
    tmp = tmp_path_factory.mktemp("spill")
    sim = Simulator()
    _fill(sim, specs)
    originals = [(r.time, r.kind, r.fields) for r in sim.trace.records]
    path = str(tmp / "trace.bin")
    assert sim.trace.spill_to(path) == len(specs)
    loaded = [(r.time, r.kind, r.fields) for r in read_spill(path)]
    assert loaded == originals
    for record, (_, _, fields) in zip(read_spill(path), specs):
        for key, value in fields.items():
            got = record.fields[key]
            assert type(got) is type(value), (key, value, got)


@settings(max_examples=25, deadline=None)
@given(_records, st.data())
def test_incremental_spills_byte_equal_one_shot(tmp_path_factory, specs,
                                                data):
    tmp = tmp_path_factory.mktemp("spill")
    cut = data.draw(st.integers(min_value=0, max_value=len(specs)))

    whole = Simulator()
    _fill(whole, specs)
    whole_path = str(tmp / "whole.bin")
    whole.trace.spill_to(whole_path)

    split = Simulator()
    split_path = str(tmp / "split.bin")
    _fill(split, specs[:cut])
    split.trace.spill_to(split_path)  # may be the empty prefix
    _fill(split, specs[cut:])
    split.trace.spill_to(split_path)

    with open(whole_path, "rb") as a, open(split_path, "rb") as b:
        assert a.read() == b.read()


@settings(max_examples=25, deadline=None)
@given(_records)
def test_strings_intern_once_per_file(tmp_path_factory, specs):
    tmp = tmp_path_factory.mktemp("spill")
    sim = Simulator()
    _fill(sim, specs)
    path = str(tmp / "trace.bin")
    sim.trace.spill_to(path)

    defines = {0x01: 0, 0x02: 0}
    with open(path, "rb") as handle:
        assert handle.read(len(_SPILL_MAGIC)) == _SPILL_MAGIC
        data = handle.read()
    # Walk the frame stream counting define frames; record frames are
    # skipped with the same tagged-length rules the decoder uses.
    offset = 0
    while offset < len(data):
        tag = data[offset]
        offset += 1
        if tag in (0x01, 0x02):
            defines[tag] += 1
            (length,) = struct.unpack_from("<H", data, offset + 2)
            offset += 4 + length
        else:
            assert tag == 0x03
            (nfields,) = struct.unpack_from("<H", data, offset + 10)
            offset += 12
            for _ in range(nfields):
                vtag = data[offset + 2]
                offset += 3
                if vtag in (0x10, 0x12):
                    offset += 8
                elif vtag == 0x14:
                    offset += 1
                elif vtag != 0x15:
                    (length,) = struct.unpack_from("<I", data, offset)
                    offset += 4 + length
    kinds = {kind for _, kind, _ in specs}
    names = {name for _, _, fields in specs for name in fields}
    assert defines[0x01] == len(kinds)
    assert defines[0x02] == len(names)


@settings(max_examples=25, deadline=None)
@given(_records, st.data())
def test_truncation_raises_or_yields_strict_prefix(tmp_path_factory,
                                                   specs, data):
    tmp = tmp_path_factory.mktemp("spill")
    sim = Simulator()
    _fill(sim, specs)
    path = str(tmp / "full.bin")
    sim.trace.spill_to(path)
    full = read_spill(path)
    blob = open(path, "rb").read()

    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    cut_path = str(tmp / "cut.bin")
    with open(cut_path, "wb") as handle:
        handle.write(blob[:cut])
    try:
        loaded = read_spill(cut_path)
    except ValueError:
        return  # loud failure is always acceptable
    # A silent success must be a clean frame boundary: a strict prefix
    # of the original records, never garbage or reordered data.
    assert len(loaded) < len(full)
    assert loaded == full[: len(loaded)]


@settings(max_examples=25, deadline=None)
@given(_records, st.data())
def test_lazy_pushdown_equals_post_hoc_filtering(tmp_path_factory, specs,
                                                 data):
    tmp = tmp_path_factory.mktemp("spill")
    sim = Simulator()
    _fill(sim, specs)
    path = str(tmp / "trace.bin")
    sim.trace.spill_to(path)
    full = read_spill(path)

    kinds = data.draw(st.none() | st.sets(
        st.sampled_from(sorted({k for _, k, _ in specs}))))
    all_names = sorted({n for _, _, f in specs for n in f})
    fields = data.draw(st.none() | st.sets(st.sampled_from(all_names))) \
        if all_names else None
    times = sorted({t for t, _, _ in specs})
    t0 = data.draw(st.none() | st.sampled_from(times))
    t1 = data.draw(st.none() | st.sampled_from(times))

    pushed = list(iter_spill(path, kinds=kinds, fields=fields,
                             t0=t0, t1=t1))
    expected = []
    for record in full:
        if kinds is not None and record.kind not in kinds:
            continue
        if t0 is not None and record.time < t0:
            continue
        if t1 is not None and record.time >= t1:
            continue
        keep = record.fields if fields is None else {
            k: v for k, v in record.fields.items() if k in fields}
        expected.append((record.time, record.kind, keep))
    assert [(r.time, r.kind, r.fields) for r in pushed] == expected


def test_iter_spill_is_lazy_about_errors(tmp_path):
    """The generator yields clean records before raising on a torn
    tail, so a streaming consumer sees data up to the corruption."""
    sim = Simulator()
    for i in range(5):
        sim.now = float(i)
        sim.trace.log("tick", n=i)
    path = str(tmp_path / "t.bin")
    sim.trace.spill_to(path)
    blob = open(path, "rb").read()
    torn = str(tmp_path / "torn.bin")
    with open(torn, "wb") as handle:
        handle.write(blob[:-3])
    it = iter_spill(torn)
    seen = []
    with pytest.raises(ValueError, match="truncated"):
        for record in it:
            seen.append(record.fields["n"])
    assert seen == [0, 1, 2, 3]
