"""Unit tests for repro.obs.metrics: instruments and the registry."""

import math

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    log_buckets,
)


# ----------------------------------------------------------------------
# Buckets
# ----------------------------------------------------------------------
def test_log_buckets_span_and_spacing():
    bounds = log_buckets(1e-3, 1e0, per_decade=2)
    assert bounds[0] == pytest.approx(1e-3)
    assert bounds[-1] == pytest.approx(1.0)
    assert len(bounds) == 7  # 3 decades * 2 + the lower edge
    ratios = [b / a for a, b in zip(bounds, bounds[1:])]
    assert all(r == pytest.approx(10 ** 0.5) for r in ratios)


def test_log_buckets_validation():
    with pytest.raises(ValueError):
        log_buckets(0.0, 1.0)
    with pytest.raises(ValueError):
        log_buckets(1.0, 1.0)
    with pytest.raises(ValueError):
        log_buckets(1e-3, 1.0, per_decade=0)


def test_default_buckets_cover_durations():
    assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
    assert DEFAULT_BUCKETS[-1] == pytest.approx(1e3)


# ----------------------------------------------------------------------
# Counter / Gauge
# ----------------------------------------------------------------------
def test_push_counter_accumulates():
    reg = MetricsRegistry()
    c = reg.counter("pkts", node="a")
    for _ in range(4):
        c.inc()
    assert c.value == 4
    assert reg.value("pkts", node="a") == 4


def test_pull_counter_reads_live_and_rejects_inc():
    reg = MetricsRegistry()
    state = {"n": 0}
    c = reg.counter("pkts", fn=lambda: state["n"])
    state["n"] = 7
    assert c.value == 7
    with pytest.raises(RuntimeError):
        c.inc()


def test_gauge_set_and_pull():
    reg = MetricsRegistry()
    g = reg.gauge("depth")
    g.set(5)
    assert g.value == 5
    level = [0]
    pulled = reg.gauge("level", fn=lambda: level[0])
    level[0] = 9
    assert pulled.value == 9


def test_same_key_returns_same_object():
    reg = MetricsRegistry()
    a = reg.counter("x", node="n1", port=1)
    b = reg.counter("x", port=1, node="n1")  # label order is irrelevant
    c = reg.counter("x", node="n2", port=1)
    assert a is b
    assert a is not c
    assert len(reg.collect()) == 2


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_exact_moments_match_sample_list():
    h = Histogram("rtt", {})
    samples = [0.0761, 0.0763, 0.0932, 0.0930, 0.1101]
    for s in samples:
        h.observe(s)
    assert h.count == len(samples)
    assert h.min == min(samples)
    assert h.max == max(samples)
    assert h.mean == pytest.approx(sum(samples) / len(samples), abs=1e-15)
    mean = sum(samples) / len(samples)
    mdev = math.sqrt(sum((s - mean) ** 2 for s in samples) / len(samples))
    assert h.stddev == pytest.approx(mdev, rel=1e-9)


def test_histogram_quantiles_clamped_to_observed_range():
    h = Histogram("lat", {})
    for v in (0.010, 0.011, 0.012, 0.013, 0.200):
        h.observe(v)
    assert h.min <= h.p50 <= h.max
    assert h.min <= h.p95 <= h.max
    assert h.min <= h.p99 <= h.max
    assert h.p50 <= h.p95 <= h.p99
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_empty_readouts():
    h = Histogram("lat", {})
    assert h.mean == 0.0
    assert h.stddev == 0.0
    assert h.quantile(0.5) == 0.0
    snap = h.snapshot()
    assert snap["min"] == 0.0 and snap["max"] == 0.0


def test_histogram_single_value_quantiles_degenerate():
    h = Histogram("one", {})
    h.observe(0.42)
    assert h.p50 == pytest.approx(0.42)
    assert h.p99 == pytest.approx(0.42)


# ----------------------------------------------------------------------
# Disabled registry / null metric
# ----------------------------------------------------------------------
def test_disabled_registry_hands_out_null_and_registers_nothing(monkeypatch):
    monkeypatch.setattr(MetricsRegistry, "default_enabled", False)
    reg = MetricsRegistry()
    c = reg.counter("x")
    g = reg.gauge("y")
    h = reg.histogram("z")
    assert c is NULL_METRIC and g is NULL_METRIC and h is NULL_METRIC
    c.inc()
    g.set(5)
    h.observe(1.0)
    assert c.value == 0.0 and h.count == 0
    assert reg.collect() == []
    assert reg.value("x", default=13.0) == 13.0


def test_default_enabled_class_flag():
    assert MetricsRegistry.default_enabled is True
    try:
        MetricsRegistry.default_enabled = False
        assert MetricsRegistry().enabled is False
    finally:
        MetricsRegistry.default_enabled = True


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def test_find_and_sum_values():
    reg = MetricsRegistry()
    for link, count in (("a", 2), ("b", 3)):
        for _ in range(count):
            reg.counter("drops", link=link).inc()
    reg.counter("other", link="a").inc()
    assert reg.sum_values("drops") == 5
    assert reg.sum_values("drops", link="a") == 2
    assert {m.labels["link"] for m in reg.find("drops")} == {"a", "b"}


def test_collect_is_sorted_and_stable():
    reg = MetricsRegistry()
    reg.counter("b_metric", node="z")
    reg.counter("a_metric", node="y")
    reg.counter("a_metric", node="x")
    rows = reg.collect()
    keys = [(r["name"], sorted(r["labels"].items())) for r in rows]
    assert keys == sorted(keys)
    assert rows == reg.collect()
