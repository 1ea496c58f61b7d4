"""The max-min solver: worked examples plus Hypothesis properties.

The solver is deliberately engine-free, so these tests need no
simulator: they call it through ``max_min_rates``, the adapter from
hashable links to the plane's standing state (``tests/traffic/maxmin.py``). The properties are the
contract the coupling layer leans on: allocations never exceed any
link's capacity, demand caps are respected, every unfrozen class sits
on a saturated link (max-min optimality), and the answer does not
depend on the order classes are presented in.
"""

import math

import pytest

from repro.net.tcp import MSS
from repro.traffic import tcp_steady_state_cap
from tests.traffic.maxmin import max_min_rates

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

INF = float("inf")


# ----------------------------------------------------------------------
# Worked examples
# ----------------------------------------------------------------------
def test_single_bottleneck_fair_share():
    result = max_min_rates(
        paths=[["l"], ["l"]],
        capacities={"l": 10e6},
        demands=[None, None],
    )
    assert result.rates[0] == pytest.approx(5e6)
    assert result.rates[1] == pytest.approx(5e6)
    assert result.residual["l"] == pytest.approx(0.0, abs=1.0)


def test_demand_capped_class_frees_capacity():
    result = max_min_rates(
        paths=[["l"], ["l"]],
        capacities={"l": 10e6},
        demands=[2e6, None],
    )
    assert result.rates[0] == pytest.approx(2e6)
    assert result.rates[1] == pytest.approx(8e6)


def test_classic_parking_lot():
    # The textbook 3-link parking lot: one long flow crosses all links,
    # one cross flow per link. Max-min gives everyone C/2.
    result = max_min_rates(
        paths=[["l0", "l1", "l2"], ["l0"], ["l1"], ["l2"]],
        capacities={"l0": 8e6, "l1": 8e6, "l2": 8e6},
    )
    for rate in result.rates:
        assert rate == pytest.approx(4e6)


def test_counts_scale_class_share():
    # 3 flows in one class vs 1 in the other: per-flow fairness, so the
    # aggregate splits 3:1.
    result = max_min_rates(
        paths=[["l"], ["l"]],
        capacities={"l": 8e6},
        counts=[3, 1],
    )
    assert result.rates[0] == pytest.approx(2e6)  # per-flow
    assert result.rates[1] == pytest.approx(2e6)


def test_unconstrained_links_do_not_bottleneck():
    # Links absent from ``capacities`` are infinite; only l constrains.
    result = max_min_rates(
        paths=[["fat0", "l", "fat1"]],
        capacities={"l": 5e6},
    )
    assert result.rates[0] == pytest.approx(5e6)


def test_dead_link_pins_class_to_zero():
    result = max_min_rates(
        paths=[["dead"], ["live"]],
        capacities={"dead": 0.0, "live": 4e6},
    )
    assert result.rates[0] == 0.0
    assert result.rates[1] == pytest.approx(4e6)


def test_tcp_steady_state_cap():
    # Window-limited: one window per RTT.
    assert tcp_steady_state_cap(0.028, window_bytes=16384) == pytest.approx(
        16384 * 8 / 0.028
    )
    # Loss switches in the Mathis bound, which must only tighten.
    lossy = tcp_steady_state_cap(0.028, window_bytes=10**9, loss_rate=0.01)
    clean = tcp_steady_state_cap(0.028, window_bytes=10**9)
    assert lossy < clean
    assert tcp_steady_state_cap(0.0) == INF


@pytest.mark.parametrize("rtt,loss", [(0.028, 0.01), (0.1, 0.001)])
def test_mathis_bound_uses_the_packet_stacks_segment_size(rtt, loss):
    # The fluid cap and packet TCP are held against each other, so the
    # loss bound must be computed with the segments TCP actually sends.
    assert tcp_steady_state_cap(rtt, window_bytes=10**9, loss_rate=loss) == (
        MSS * 8.0 / rtt * math.sqrt(1.5 / loss))


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@st.composite
def scenarios(draw):
    n_links = draw(st.integers(min_value=1, max_value=5))
    links = [f"l{i}" for i in range(n_links)]
    capacities = {
        link: draw(st.floats(min_value=1e5, max_value=1e9)) for link in links
    }
    n_classes = draw(st.integers(min_value=1, max_value=8))
    paths, demands, counts = [], [], []
    for _ in range(n_classes):
        paths.append(draw(st.lists(st.sampled_from(links), min_size=1,
                                   max_size=n_links, unique=True)))
        demands.append(draw(st.one_of(
            st.none(),
            st.floats(min_value=1e3, max_value=1e8),
        )))
        counts.append(draw(st.integers(min_value=1, max_value=1000)))
    return paths, capacities, demands, counts


def _link_loads(paths, counts, rates):
    loads = {}
    for path, count, rate in zip(paths, counts, rates):
        for link in path:
            loads[link] = loads.get(link, 0.0) + rate * count
    return loads


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_solver_conserves_capacity(scenario):
    paths, capacities, demands, counts = scenario
    result = max_min_rates(paths, capacities, demands, counts)
    loads = _link_loads(paths, counts, result.rates)
    for link, capacity in capacities.items():
        assert loads.get(link, 0.0) <= capacity * (1 + 1e-9)
    for rate, demand in zip(result.rates, demands):
        cap = INF if demand is None else demand
        assert 0.0 <= rate <= cap * (1 + 1e-9)


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_solver_is_max_min_optimal(scenario):
    """Every class not at its demand cap crosses a saturated link —
    no rate could be raised without cutting into someone else's."""
    paths, capacities, demands, counts = scenario
    result = max_min_rates(paths, capacities, demands, counts)
    loads = _link_loads(paths, counts, result.rates)
    for i, path in enumerate(paths):
        cap = INF if demands[i] is None else demands[i]
        if cap < INF and result.rates[i] >= cap * (1 - 1e-9):
            continue  # demand-capped
        assert any(
            loads.get(link, 0.0) >= capacities[link] * (1 - 1e-6)
            for link in path
        ), f"class {i} is neither demand-capped nor bottlenecked"


@given(scenarios(), st.permutations(range(8)))
@settings(max_examples=60, deadline=None)
def test_solver_is_order_invariant(scenario, perm):
    paths, capacities, demands, counts = scenario
    baseline = max_min_rates(paths, capacities, demands, counts)
    order = [i for i in perm if i < len(paths)]
    shuffled = max_min_rates(
        [paths[i] for i in order],
        capacities,
        [demands[i] for i in order],
        [counts[i] for i in order],
    )
    for pos, i in enumerate(order):
        assert shuffled.rates[pos] == pytest.approx(
            baseline.rates[i], rel=1e-9, abs=1e-6
        )
