"""Unit tests for the trace collector."""

from repro.sim import Simulator


def test_log_records_time_and_fields():
    sim = Simulator()
    sim.at(2.0, lambda: sim.trace.log("ping", rtt=0.076, dst="seattle"))
    sim.run()
    (record,) = sim.trace.records
    assert record.time == 2.0
    assert record.kind == "ping"
    assert record["rtt"] == 0.076
    assert record.get("missing", 13) == 13



def test_equal_records_hash_equal():
    sim = Simulator()
    sim.trace.log("ping", rtt=0.076)
    sim.trace.log("ping", rtt=0.076)
    sim.trace.log("ping", rtt=0.093)
    assert len(set(sim.trace.records)) == 2
def test_select_filters_by_kind_and_fields():
    sim = Simulator()
    sim.trace.log("recv", node="a")
    sim.trace.log("recv", node="b")
    sim.trace.log("send", node="a")
    assert sim.trace.count("recv") == 2
    assert sim.trace.count("recv", node="a") == 1
    assert [r["node"] for r in sim.trace.select("recv")] == ["a", "b"]


def test_subscribe_and_unsubscribe():
    sim = Simulator()
    seen = []
    callback = seen.append
    sim.trace.subscribe("x", callback)
    sim.trace.log("x", n=1)
    sim.trace.unsubscribe("x", callback)
    sim.trace.log("x", n=2)
    assert [r["n"] for r in seen] == [1]


def test_clear():
    sim = Simulator()
    sim.trace.log("x")
    sim.trace.clear()
    assert len(sim.trace) == 0


# ----------------------------------------------------------------------
# Fast-path regression guards: per-kind enablement, per-kind index.
# ----------------------------------------------------------------------
def test_disabled_kind_allocates_no_record():
    sim = Simulator()
    seen = []
    sim.trace.subscribe("hot", seen.append)
    sim.trace.disable("hot")
    assert sim.trace.log("hot", n=1) is None
    assert len(sim.trace.records) == 0
    assert sim.trace.count("hot") == 0
    assert seen == []  # subscribers not fired for a disabled kind
    assert not sim.trace.wants("hot")
    # Other kinds are unaffected.
    assert sim.trace.log("cold", n=1) is not None
    assert sim.trace.wants("cold")


def test_enable_after_disable_round_trips():
    sim = Simulator()
    seen = []
    callback = seen.append
    sim.trace.subscribe("x", callback)
    sim.trace.disable("x")
    sim.trace.log("x", n=1)
    sim.trace.enable("x")
    sim.trace.log("x", n=2)
    sim.trace.unsubscribe("x", callback)
    sim.trace.log("x", n=3)
    assert [r["n"] for r in seen] == [2]
    assert [r["n"] for r in sim.trace.select("x")] == [2, 3]


def test_select_uses_per_kind_index():
    sim = Simulator()
    for i in range(5):
        sim.trace.log("a", i=i)
        sim.trace.log("b", i=i)
    assert [r["i"] for r in sim.trace.select("a")] == list(range(5))
    assert sim.trace.count("b") == 5
    assert sim.trace.count("b", i=3) == 1
    sim.trace.clear()
    assert sim.trace.count("a") == 0
    assert list(sim.trace.select("a")) == []

