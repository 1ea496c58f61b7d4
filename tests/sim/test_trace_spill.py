"""Round-trip tests for the binary trace spill format."""

import pytest

from repro.sim import Simulator
from repro.sim.trace import _SPILL_MAGIC, read_spill


def test_spill_round_trips_every_value_type(tmp_path):
    sim = Simulator()
    path = str(tmp_path / "trace.bin")
    sim.trace.log(
        "mixed",
        i=42,
        neg=-7,
        big=1 << 100,
        f=0.07612345,
        s="denver→kc",  # non-ASCII survives utf-8
        t=True,
        nope=False,
        n=None,
    )
    sim.trace.log("other", obj=(1, 2))  # repr fallback
    originals = list(sim.trace.records)
    assert sim.trace.spill_to(path) == 2
    assert len(sim.trace) == 0  # spilled records left memory

    loaded = read_spill(path)
    assert len(loaded) == 2
    first, second = loaded
    assert first.time == originals[0].time
    assert first.kind == "mixed"
    assert first.fields == {
        "i": 42, "neg": -7, "big": 1 << 100, "f": 0.07612345,
        "s": "denver→kc", "t": True, "nope": False, "n": None,
    }
    assert isinstance(first["t"], bool)  # not collapsed to int
    assert isinstance(first["i"], int) and not isinstance(first["i"], bool)
    assert second.fields == {"obj": repr((1, 2))}  # lossy by contract


def test_incremental_spills_equal_one_big_spill(tmp_path):
    def populate(sim):
        for i in range(10):
            sim.trace.log("tick", n=i, node=f"n{i % 3}")

    one = Simulator()
    populate(one)
    one_path = str(tmp_path / "one.bin")
    one.trace.spill_to(one_path)

    many = Simulator()
    many_path = str(tmp_path / "many.bin")
    for i in range(10):
        many.trace.log("tick", n=i, node=f"n{i % 3}")
        many.trace.spill_to(many_path)  # interned tables carry across

    with open(one_path, "rb") as a, open(many_path, "rb") as b:
        assert a.read() == b.read()
    assert read_spill(one_path) == read_spill(many_path)


def test_spill_preserves_simulated_timestamps(tmp_path):
    sim = Simulator()
    sim.at(1.25, lambda: sim.trace.log("a", x=1))
    sim.at(2.5, lambda: sim.trace.log("b"))
    sim.run()
    path = str(tmp_path / "t.bin")
    sim.trace.spill_to(path)
    loaded = read_spill(path)
    assert [(r.time, r.kind) for r in loaded] == [(1.25, "a"), (2.5, "b")]
    assert loaded[1].fields == {}


def test_spill_empty_collector_writes_valid_file(tmp_path):
    sim = Simulator()
    path = str(tmp_path / "empty.bin")
    assert sim.trace.spill_to(path) == 0
    assert read_spill(path) == []


def test_spill_is_much_smaller_than_repr(tmp_path):
    sim = Simulator()
    for i in range(1000):
        sim.trace.log("pkt", node="newyork", uid=i, length=1430, rtt=0.0761)
    text_size = sum(len(repr(r)) for r in sim.trace.records)
    path = str(tmp_path / "big.bin")
    sim.trace.spill_to(path)
    import os

    assert os.path.getsize(path) < text_size * 0.75


def test_read_spill_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a spill file at all")
    with pytest.raises(ValueError, match="not a trace spill"):
        read_spill(str(path))
    truncated = tmp_path / "trunc.bin"
    sim = Simulator()
    sim.trace.log("x", n=1)
    good = tmp_path / "good.bin"
    sim.trace.spill_to(str(good))
    data = good.read_bytes()
    truncated.write_bytes(data[: len(data) - 3])
    with pytest.raises(ValueError, match="truncated"):
        read_spill(str(truncated))


def test_spill_interning_does_not_leak_across_paths(tmp_path):
    """Each destination file gets its own string tables: a fresh path
    after spilling elsewhere is still self-contained."""
    sim = Simulator()
    sim.trace.log("kind_a", field=1)
    sim.trace.spill_to(str(tmp_path / "a.bin"))
    sim.trace.log("kind_a", field=2)
    sim.trace.spill_to(str(tmp_path / "b.bin"))
    loaded = read_spill(str(tmp_path / "b.bin"))
    assert len(loaded) == 1
    assert loaded[0].kind == "kind_a"
    assert loaded[0].fields == {"field": 2}
