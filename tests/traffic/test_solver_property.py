"""Property test: the solver against the body it replaced.

``max_min_rates`` (``tests/traffic/maxmin.py``) gives hashable links
and classes the standing state the plane keeps and runs the one filling
loop the plane calls (``progressive_fill``). The oracle is
:func:`reference_max_min_rates` below — the function as it stood at commit 45493e7, verbatim: a
residual *dict*, ``nflows`` as a dict in first-crossing order, hops
filtered per class, ``any()`` over a bottlenecked *set*. Hypothesis
draws 1-8 links and 1-30 classes with everything the dense form could
get wrong — paths that repeat a link (counted twice in ``nflows`` and
in the subtraction), links absent from ``capacities``, zero-capacity
links, ``counts`` of 0, demands ``None`` / ``inf`` / finite, and on
two thirds of the draws a coarse grid so that shares and caps tie
exactly, or sit a few ulps apart (inside the ``1e-12`` slack) — and
``rates``, ``iterations`` and ``residual`` must be **equal**, not
approximately equal: the plane's seeded loss draws hang off the last
bit of every rate.
"""

from typing import Dict, Hashable, List, Optional, Sequence

import pytest

from tests.traffic.maxmin import SolveResult, max_min_rates
from tests.conftest import battery

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

INF = float("inf")


def reference_max_min_rates(
    paths: Sequence[Sequence[Hashable]],
    capacities: Dict[Hashable, float],
    demands: Optional[Sequence[Optional[float]]] = None,
    counts: Optional[Sequence[int]] = None,
) -> SolveResult:
    n = len(paths)
    if demands is None:
        demand_caps = [INF] * n
    else:
        demand_caps = [INF if d is None else float(d) for d in demands]
    if counts is None:
        counts = [1] * n
    rates = [0.0] * n
    residual = {link: float(cap) for link, cap in capacities.items()}
    # Constrained hops only: a link without a declared capacity cannot
    # bottleneck anything.
    hops: List[List[Hashable]] = [
        [link for link in path if link in residual] for path in paths
    ]
    nflows: Dict[Hashable, int] = {}
    active: List[int] = []
    for i in range(n):
        if counts[i] <= 0:
            continue
        if not hops[i]:
            # Unconstrained class: it gets its demand (an elastic class
            # with no constraining link has no finite fair share; pin 0).
            rates[i] = demand_caps[i] if demand_caps[i] < INF else 0.0
            continue
        if any(residual[link] <= 0.0 for link in hops[i]):
            continue  # a dead hop: the class is stuck at zero
        active.append(i)
        for link in hops[i]:
            nflows[link] = nflows.get(link, 0) + counts[i]

    iterations = 0
    while active:
        iterations += 1
        # The water level: the smallest equal-share any constraining
        # link could still grant its remaining flows.
        level = INF
        for link, flows in nflows.items():
            if flows > 0:
                share = residual[link] / flows
                if share < level:
                    level = share
        capped = [i for i in active if demand_caps[i] <= level]
        if capped:
            # Demand-limited classes can never use the full level; fix
            # them at their caps and refill the slack next round.
            fixed = capped
            for i in fixed:
                rates[i] = demand_caps[i]
        elif level < INF:
            eps = level * 1e-12
            bottlenecked = {
                link
                for link, flows in nflows.items()
                if flows > 0 and residual[link] / flows <= level + eps
            }
            fixed = [
                i for i in active
                if any(link in bottlenecked for link in hops[i])
            ]
            for i in fixed:
                rates[i] = level
        else:  # pragma: no cover - defensive: no constraining link left
            break
        for i in fixed:
            claim = rates[i] * counts[i]
            for link in hops[i]:
                remaining = residual[link] - claim
                residual[link] = remaining if remaining > 0.0 else 0.0
                nflows[link] -= counts[i]
        frozen = set(fixed)
        active = [i for i in active if i not in frozen]
    return SolveResult(rates, iterations, residual)


@st.composite
def scenarios(draw):
    n_links = draw(st.integers(min_value=1, max_value=8))
    links = [f"l{i}" for i in range(n_links)]
    named = links + ["absent0", "absent1"]  # never in ``capacities``
    mode = draw(st.sampled_from(["floats", "grid", "near"]))
    if mode == "floats":
        capacity = st.one_of(
            st.just(0.0), st.floats(min_value=1e5, max_value=1e9))
        demand = st.one_of(
            st.none(), st.just(INF), st.floats(min_value=1e3, max_value=1e8))
        count = st.integers(min_value=0, max_value=1000)
    else:  # coarse values: shares and caps tie exactly ...
        capacity = st.sampled_from([0.0, 1e6, 2e6, 3e6, 4e6, 6e6, 12e6])
        demand = st.sampled_from([None, INF, 0.25e6, 0.5e6, 1e6, 2e6, 3e6])
        count = st.sampled_from([0, 1, 1, 2, 3, 4, 6])
    longest = n_links + 2
    if mode == "near":  # short elastic paths: few classes cross every link
        longest = 2
        demand = st.sampled_from([None, None, INF, 3e6])
    capacities = {link: draw(capacity) for link in links}
    n_classes = draw(st.integers(min_value=1, max_value=30))
    paths, demands, counts = [], [], []
    for _ in range(n_classes):
        paths.append(draw(st.lists(st.sampled_from(named), min_size=0,
                                   max_size=longest)))  # repeats allowed
        demands.append(draw(demand))
        counts.append(draw(count))
    if mode == "near":
        # ... or sit a few ulps apart, inside the 1e-12 slack: size
        # links so that their first-round shares all but coincide.
        level = draw(st.sampled_from([1e6, 1e6 / 3.0, 0.7e6]))
        for link in links:
            crossing = sum(c * p.count(link) for p, c in zip(paths, counts))
            if crossing and draw(st.booleans()):
                ulps = draw(st.sampled_from([0, 1, -1, 2, 5]))
                capacities[link] = level * crossing * (1.0 + ulps * 2.0 ** -50)
    return paths, capacities, demands, counts


@given(scenarios())
@battery(300)
def test_solver_equals_the_body_it_replaced(scenario):
    paths, capacities, demands, counts = scenario
    want = reference_max_min_rates(paths, capacities, demands, counts)
    got = max_min_rates(paths, capacities, demands, counts)
    assert got.rates == want.rates
    assert got.iterations == want.iterations
    assert got.residual == want.residual
    assert list(got.residual) == list(want.residual)


@given(scenarios())
@battery(50)
def test_defaults_match_too(scenario):
    paths, capacities, _demands, _counts = scenario
    want = reference_max_min_rates(paths, capacities)
    got = max_min_rates(paths, capacities)
    assert (got.rates, got.iterations, got.residual) == (
        want.rates, want.iterations, want.residual)
