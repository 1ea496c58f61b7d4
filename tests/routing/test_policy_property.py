"""Property battery: Gao-Rexford policy correctness, by definition.

Hypothesis draws random small AS graphs (provider edges oriented from
lower to higher ASN, so the provider-customer hierarchy is acyclic, as
Gao-Rexford assumes; peer edges anywhere else), converges the
AS-level-only instantiation, and asserts the two theorems the policy
layer exists to enforce:

* every selected path is **valley-free** (an AS never transits traffic
  between two of its providers/peers), and
* selection is **prefer-customer consistent** (no daemon picks a
  peer/provider route while a customer route for the same prefix sits
  in an Adj-RIB-In).

On failure Hypothesis shrinks to a minimal violating topology — the
counterexample *is* the bug report.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.net.addr import prefix
from repro.routing.policy import (
    CUSTOMER,
    LOCAL_PREF,
    ORIGIN_LOCAL_PREF,
    PEER,
    PROVIDER,
    is_valley_free,
)
from repro.sim.engine import Simulator
from repro.topologies.internet import build_policy_graph

MAX_AS = 6
CONVERGE_AT = 40.0  # mrai 0.1, delay 5 ms: ample for <= 6 hops

NONE, TRANSIT_REL, PEER_REL = 0, 1, 2


@st.composite
def as_graphs(draw):
    """(n_as, transit_edges, peer_edges): every unordered AS pair is
    independently absent, provider->customer (low ASN provides), or
    peer. Low->high transit orientation keeps the hierarchy acyclic."""
    n_as = draw(st.integers(min_value=2, max_value=MAX_AS))
    pairs = [
        (a, b)
        for a in range(1, n_as + 1)
        for b in range(a + 1, n_as + 1)
    ]
    kinds = draw(
        st.lists(
            st.sampled_from([NONE, TRANSIT_REL, PEER_REL]),
            min_size=len(pairs), max_size=len(pairs),
        )
    )
    transit = [p for p, k in zip(pairs, kinds) if k == TRANSIT_REL]
    peer = [p for p, k in zip(pairs, kinds) if k == PEER_REL]
    return n_as, transit, peer


def _rel_of(transit, peer):
    """(a, b) -> b's relationship to a, as is_valley_free expects."""
    rels = {}
    for provider, customer in transit:
        rels[(provider, customer)] = CUSTOMER
        rels[(customer, provider)] = PROVIDER
    for a, b in peer:
        rels[(a, b)] = PEER
        rels[(b, a)] = PEER
    return lambda a, b: rels.get((a, b))


@settings(max_examples=40, deadline=None)
@given(as_graphs())
def test_converged_paths_are_valley_free_and_prefer_customer(graph):
    n_as, transit, peer = graph
    sim = Simulator(seed=0)
    daemons, _policies = build_policy_graph(sim, n_as, transit, peer)
    sim.run(until=CONVERGE_AT)
    rel_of = _rel_of(transit, peer)

    for asn, daemon in daemons.items():
        for origin in range(1, n_as + 1):
            if origin == asn:
                continue
            key = prefix(f"99.{origin}.0.0/16").key
            found = daemon.loc_rib.get(key)
            if found is None:
                continue  # unreachable under policy — that's allowed
            best, learned_from = found

            # Theorem 1: the full path, listener first, is valley-free.
            path = (asn,) + tuple(best.as_path)
            assert path[-1] == origin
            assert is_valley_free(path, rel_of), (
                f"valley: as{asn} uses {path} "
                f"(transit={transit}, peer={peer})"
            )

            # Theorem 2: no candidate in any Adj-RIB-In beats the
            # chosen route's relationship class.
            candidates = [
                session.adj_rib_in[key]
                for session in daemon.sessions
                if key in session.adj_rib_in
            ]
            assert best.local_pref == max(c.local_pref for c in candidates), (
                f"as{asn} chose local_pref {best.local_pref} for "
                f"99.{origin}.0.0/16 but holds a better candidate "
                f"(transit={transit}, peer={peer})"
            )


@settings(max_examples=25, deadline=None)
@given(as_graphs())
def test_customers_of_a_common_provider_reach_each_other(graph):
    """Reachability floor: inside one connected customer cone, policy
    never isolates two ASes (customer routes are exported to everyone)."""
    n_as, transit, peer = graph
    sim = Simulator(seed=0)
    daemons, _policies = build_policy_graph(sim, n_as, transit, peer)
    sim.run(until=CONVERGE_AT)
    for provider, customer in transit:
        key = prefix(f"99.{customer}.0.0/16").key
        assert key in daemons[provider].loc_rib, (
            f"as{provider} cannot reach customer as{customer}"
        )
        key = prefix(f"99.{provider}.0.0/16").key
        assert key in daemons[customer].loc_rib, (
            f"as{customer} cannot reach provider as{provider}"
        )


def test_shrunk_counterexample_shape():
    """The classic minimal valley: a stub transiting two providers.

    as1 and as3 both provide transit to as2; a path as1 -> as2 -> as3
    would be a valley. Assert policy suppresses it (as2 never exports
    a provider-learned route to another provider) — and that
    is_valley_free itself flags the hypothetical path, so the property
    above is testing the right predicate."""
    sim = Simulator(seed=0)
    transit = [(1, 2), (3, 2)]
    daemons, _policies = build_policy_graph(sim, 3, transit, [])
    sim.run(until=CONVERGE_AT)
    rel_of = _rel_of(transit, [])
    assert not is_valley_free((1, 2, 3), rel_of)
    found = daemons[1].loc_rib.get(prefix("99.3.0.0/16").key)
    assert found is None, f"as1 reaches as3 via {found[0].as_path}"
    assert daemons[2].loc_rib.get(prefix("99.3.0.0/16").key) is not None


def test_a_provider_route_is_not_exported_to_another_provider():
    """AS 2 buys transit from AS 1 and AS 3: it takes each provider's
    prefix, and passes neither to the other provider (no valley)."""
    sim = Simulator(seed=2)
    daemons, _policies = build_policy_graph(sim, 3, [(1, 2), (3, 2)], [])
    sim.run(until=30.0)
    assert daemons[2].loc_rib.get(prefix("99.1.0.0/16").key) is not None
    assert daemons[2].loc_rib.get(prefix("99.3.0.0/16").key) is not None
    assert daemons[1].loc_rib.get(prefix("99.2.0.0/16").key) is not None
    assert daemons[1].loc_rib.get(prefix("99.3.0.0/16").key) is None
    assert daemons[3].loc_rib.get(prefix("99.1.0.0/16").key) is None
