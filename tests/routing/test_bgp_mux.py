"""Tests for the Section 6.1 BGP multiplexer."""

import pytest

from repro.routing.bgp import BGPDaemon, DirectTransport
from repro.routing.bgp_mux import BGPMultiplexer
from repro.sim import Simulator


def build_world(sim, clients=2, rate=1.0, burst=5.0):
    """External speaker <-> mux <-> N experiment daemons."""
    mux = BGPMultiplexer(sim, asn=64512, router_id="198.18.0.1",
                         vini_block="198.18.0.0/16")
    external = BGPDaemon(sim, 7018, "12.0.0.1", name="external")
    te, tm = DirectTransport.pair(sim)
    external.add_session(te, 64512, mrai=0.1).start()
    mux.attach_external(tm, 7018, mrai=0.1)
    experiments = []
    for index in range(clients):
        exp = BGPDaemon(sim, 65100 + index, f"198.18.{index + 1}.1",
                        name=f"exp{index}")
        tc, tmc = DirectTransport.pair(sim)
        exp.add_session(tc, 64512, mrai=0.1).start()
        mux.add_client(
            f"exp{index}", tmc, 65100 + index,
            allowed=f"198.18.{index + 1}.0/24",
            max_update_rate=rate, burst=burst,
        )
        experiments.append(exp)
    return mux, external, experiments


def test_external_routes_reach_all_experiments():
    sim = Simulator(seed=91)
    mux, external, exps = build_world(sim)
    external.originate("8.8.8.0/24")
    sim.run(until=20.0)
    for exp in exps:
        route = exp.best("8.8.8.0/24")
        assert route is not None
        assert 7018 in route.as_path


def test_experiment_announcement_reaches_external():
    sim = Simulator(seed=92)
    mux, external, exps = build_world(sim)
    exps[0].originate("198.18.1.0/24")
    sim.run(until=20.0)
    route = external.best("198.18.1.0/24")
    assert route is not None
    assert 64512 in route.as_path and 65100 in route.as_path
    # The registry's session instruments read the sessions' own counters.
    metrics = sim.metrics
    session = mux.clients["exp0"].session
    assert metrics.value(
        "bgp.updates_received", daemon="bgp-mux", peer="exp0"
    ) == session.updates_received == 1
    assert metrics.value(
        "bgp.updates_sent", daemon="bgp-mux", peer="external"
    ) == mux.external_session.updates_sent == 1
    assert metrics.value(
        "bgp.adj_rib_in_routes", daemon="bgp-mux", peer="exp0"
    ) == len(session.adj_rib_in) == 1


def test_foreign_prefix_filtered():
    """An experiment may announce only its own delegated block."""
    sim = Simulator(seed=93)
    mux, external, exps = build_world(sim)
    exps[0].originate("198.18.2.0/24")  # exp1's block, not exp0's!
    exps[0].originate("12.34.0.0/16")   # not VINI space at all
    sim.run(until=20.0)
    assert external.best("198.18.2.0/24") is None
    assert external.best("12.34.0.0/16") is None
    assert mux.stats()["exp0"]["filtered"] == 2
    # The registry's per-client counter is the same number.
    metrics = sim.metrics
    assert metrics.value("bgp.mux_filtered", client="exp0") == 2
    assert metrics.value("bgp.mux_filtered", client="exp1") == 0
    assert metrics.value("bgp.mux_clients") == len(mux.clients) == 2


def test_rate_limit_caps_update_churn():
    sim = Simulator(seed=94)
    mux, external, exps = build_world(sim, clients=1, rate=0.5, burst=2.0)
    exp = exps[0]

    # Flap a prefix rapidly: announce/withdraw every 200 ms.
    def flap(count=0):
        if count >= 40:
            return
        if count % 2 == 0:
            exp.originate("198.18.1.0/24")
        else:
            exp.withdraw_origin("198.18.1.0/24")
        sim.at(0.2, flap, count + 1)

    flap()
    sim.run(until=60.0)
    stats = mux.stats()["exp0"]
    assert stats["ratelimited"] > 0
    assert (
        sim.metrics.value("bgp.mux_ratelimited", client="exp0")
        == stats["ratelimited"]
    )


def test_overlapping_client_blocks_rejected():
    sim = Simulator(seed=95)
    mux, external, exps = build_world(sim, clients=1)
    t1, t2 = DirectTransport.pair(sim)
    with pytest.raises(ValueError):
        mux.add_client("evil", t2, 65999, allowed="198.18.1.0/25")


def test_client_block_must_be_inside_vini_allocation():
    sim = Simulator(seed=96)
    mux = BGPMultiplexer(sim, 64512, "198.18.0.1", vini_block="198.18.0.0/16")
    t1, t2 = DirectTransport.pair(sim)
    with pytest.raises(ValueError):
        mux.add_client("out", t2, 65000, allowed="203.0.113.0/24")


def test_experiments_isolated_from_each_other_via_mux():
    """Each experiment's announcements reach the other through the mux."""
    sim = Simulator(seed=97)
    mux, external, exps = build_world(sim)
    exps[0].originate("198.18.1.0/24")
    sim.run(until=20.0)
    # exp1 sees exp0's prefix (the mux is a speaker, not a reflector
    # suppressor, for eBGP clients).
    assert exps[1].best("198.18.1.0/24") is not None


def test_single_external_session_only():
    sim = Simulator(seed=98)
    mux, external, exps = build_world(sim)
    t1, t2 = DirectTransport.pair(sim)
    with pytest.raises(RuntimeError):
        mux.attach_external(t2, 7018)
