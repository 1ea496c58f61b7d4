"""Tests for the rcc pipeline: parse, check, generate."""

import pytest

from repro.net.addr import ip, prefix
from repro.rcc import (
    abilene_router_configs,
    check_model,
    experiment_from_model,
    parse_config,
    parse_configs,
)
from repro.rcc.parser import ConfigSyntaxError
from repro.topologies.abilene import ABILENE_LINKS, ABILENE_POPS, build_abilene, ospf_weight

SIMPLE = """\
hostname r1
!
interface ge-0/0/0
 description to r2
 ip address 192.0.2.1 255.255.255.252
 ip ospf cost 7
 ip ospf hello-interval 5
 ip ospf dead-interval 10
!
router ospf 1
 router-id 10.255.0.1
 network 192.0.2.0 0.0.0.255 area 0
!
"""


class TestParser:
    def test_parse_single_router(self):
        router = parse_config(SIMPLE)
        assert router.hostname == "r1"
        iface = router.interfaces["ge-0/0/0"]
        assert str(iface.address) == "192.0.2.1"
        assert iface.prefix == prefix("192.0.2.0/30")
        assert iface.ospf_cost == 7
        assert iface.hello_interval == 5.0
        assert router.ospf.router_id == ip("10.255.0.1")
        assert router.ospf.networks[0][0] == prefix("192.0.2.0/24")

    def test_ospf_covers(self):
        router = parse_config(SIMPLE)
        assert router.ospf.covers(ip("192.0.2.1"))
        assert not router.ospf.covers(ip("203.0.113.1"))
        assert router.ospf_interfaces()

    def test_shutdown_interface_ignored_in_links(self):
        text = SIMPLE.replace(" ip ospf cost 7", " shutdown\n ip ospf cost 7")
        router = parse_config(text)
        assert router.interfaces["ge-0/0/0"].shutdown

    def test_syntax_error_reported_with_line(self):
        with pytest.raises(ConfigSyntaxError) as err:
            parse_config("hostname x\ninterface e0\n frobnicate\n")
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("bad", [
        " ip ospf cost abc",
        " ip address 10.0.0.999 255.255.255.0",
        " ip address 10.0.0.1 255.0.255.0",
        "router ospf x",
        " network 10.0.0.0 0.0.0.255 area backbone",
        " network 10.0.0.0 0.255.0.255 area 0",
        " router-id banana",
        " ip ospf hello-interval soon",
    ])
    def test_malformed_value_reported_with_line(self, bad):
        """A value the parser cannot read is a syntax error on its line,
        not a bare ValueError from int() / ip() / the mask check."""
        block = "router ospf 1" if bad.split()[0] in ("network", "router-id") else "interface e0"
        with pytest.raises(ConfigSyntaxError) as err:
            parse_config(f"hostname x\n!\n{block}\n{bad}\n")
        assert err.value.line_no == 4
        assert err.value.line == bad

    def test_unknown_toplevel_rejected(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("banner motd hello\n")

    def test_duplicate_hostname_rejected(self):
        with pytest.raises(ValueError):
            parse_configs([SIMPLE, SIMPLE])

    def test_link_inference(self):
        peer = SIMPLE.replace("r1", "r2").replace("192.0.2.1", "192.0.2.2").replace(
            "10.255.0.1", "10.255.0.2"
        )
        model = parse_configs([SIMPLE, peer])
        assert len(model.links) == 1
        link = model.links[0]
        assert {link.router_a, link.router_b} == {"r1", "r2"}
        assert link.cost == 7


class TestChecks:
    def test_clean_config_has_no_errors(self):
        peer = SIMPLE.replace("r1", "r2").replace("192.0.2.1", "192.0.2.2").replace(
            "10.255.0.1", "10.255.0.2"
        )
        model = parse_configs([SIMPLE, peer])
        errors = [f for f in check_model(model) if f.severity == "error"]
        assert errors == []

    def test_dangling_subnet_warned(self):
        model = parse_configs([SIMPLE])
        faults = check_model(model)
        assert any("no neighbor" in f.message for f in faults)

    def test_duplicate_address_detected(self):
        peer = SIMPLE.replace("r1", "r2").replace("10.255.0.1", "10.255.0.2")
        model = parse_configs([SIMPLE, peer])
        faults = check_model(model)
        assert any("also configured" in f.message for f in faults)

    def test_duplicate_router_id_detected(self):
        peer = SIMPLE.replace("r1", "r2").replace("192.0.2.1", "192.0.2.2")
        model = parse_configs([SIMPLE, peer])
        faults = check_model(model)
        assert any("router-id" in f.message for f in faults)

    def test_timer_mismatch_is_error(self):
        peer = (
            SIMPLE.replace("r1", "r2")
            .replace("192.0.2.1", "192.0.2.2")
            .replace("10.255.0.1", "10.255.0.2")
            .replace("hello-interval 5", "hello-interval 10")
        )
        model = parse_configs([SIMPLE, peer])
        faults = check_model(model)
        assert any(
            f.severity == "error" and "hello-interval" in f.message for f in faults
        )

    def test_cost_mismatch_is_warning(self):
        peer = (
            SIMPLE.replace("r1", "r2")
            .replace("192.0.2.1", "192.0.2.2")
            .replace("10.255.0.1", "10.255.0.2")
            .replace("cost 7", "cost 9")
        )
        model = parse_configs([SIMPLE, peer])
        faults = check_model(model)
        assert any("cost mismatch" in f.message for f in faults)

    @pytest.mark.parametrize("old, new", [
        (" network 192.0.2.0 0.0.0.255 area 0", " network 203.0.113.0 0.0.0.255 area 0"),
        (" router-id 10.255.0.2", " router-id 10.255.0.2\n passive-interface ge-0/0/0"),
    ])
    def test_linked_interface_outside_ospf_is_error(self, old, new):
        """Uncovered or passive, the backbone interface forms no
        adjacency: one definition (``ospf_interfaces``) decides."""
        peer = (
            SIMPLE.replace("r1", "r2")
            .replace("192.0.2.1", "192.0.2.2")
            .replace("10.255.0.1", "10.255.0.2")
            .replace(old, new)
        )
        faults = check_model(parse_configs([SIMPLE, peer]))
        assert [f.router for f in faults if f.severity == "error"] == ["r2"]


class TestAbileneRoundTrip:
    def test_sample_configs_parse_clean(self):
        model = parse_configs(abilene_router_configs())
        assert len(model.routers) == 11
        assert len(model.links) == len(ABILENE_LINKS)
        errors = [f for f in check_model(model) if f.severity == "error"]
        assert errors == []

    def test_costs_roundtrip(self):
        model = parse_configs(abilene_router_configs())
        for (a, b), delay in ABILENE_LINKS.items():
            link = model.link_between(a, b)
            assert link is not None
            assert link.cost == ospf_weight(delay)

    def test_generate_experiment_mirrors_abilene(self):
        vini = build_abilene(seed=3)
        model = parse_configs(abilene_router_configs())
        exp = experiment_from_model(model, vini, name="mirror")
        assert set(exp.network.nodes) == set(ABILENE_POPS)
        assert len(exp.network.links) == len(ABILENE_LINKS)
        # Timers extracted from the configuration, not defaults.
        ospf = exp.network.nodes["denver"].xorp.ospf
        assert ospf.hello_interval == 5.0
        assert ospf.dead_interval == 10.0
        # Costs carried through to the virtual interfaces.
        vlink = exp.network.link_between("denver", "kansascity")
        assert vlink.cost == ospf_weight(ABILENE_LINKS[("denver", "kansascity")])

    def test_generated_mirror_is_the_abilene_tables_in_their_order(self):
        """The one builder of the Section 5.2 mirror: nodes and links
        come out in ABILENE_POPS / ABILENE_LINKS order (addresses and
        every golden trace hang on it), timers from the text, the
        slice with the 25 % reservation and real-time priority."""
        vini = build_abilene(seed=3)
        exp = experiment_from_model(parse_configs(abilene_router_configs()), vini)
        assert list(exp.network.nodes) == ABILENE_POPS
        assert [
            (vlink.a.name, vlink.b.name, vlink.cost) for vlink in exp.network.links
        ] == [(a, b, ospf_weight(delay)) for (a, b), delay in ABILENE_LINKS.items()]
        for vnode in exp.network.nodes.values():
            assert vnode.xorp.ospf.hello_interval == 5.0
            assert vnode.xorp.ospf.dead_interval == 10.0
        assert exp.slice.cpu_reservation == 0.25 and exp.slice.realtime

    def test_links_do_not_depend_on_the_order_configs_are_given(self):
        def links(configs):
            return [
                (link.router_a, str(link.iface_a.address), link.router_b,
                 str(link.iface_b.address), str(link.subnet), link.cost)
                for link in parse_configs(configs).links
            ]

        configs = abilene_router_configs()
        assert links(configs[::-1]) == links(configs)
        assert [(a, b) for a, _, b, _, _, _ in links(configs)] == list(ABILENE_LINKS)

    def test_strict_mode_rejects_faulty_configs(self):
        vini = build_abilene(seed=4)
        configs = abilene_router_configs()
        broken = [c.replace("hello-interval 5", "hello-interval 30", 1) for c in configs[:1]] + configs[1:]
        model = parse_configs(broken)
        with pytest.raises(ValueError):
            experiment_from_model(model, vini)

    def test_one_network_runs_one_pair_of_timers(self):
        """Each link may agree with itself and the network still not:
        refused with the fault named, not answered with a default."""
        model = parse_configs(abilene_router_configs())
        link = model.links[3]
        link.iface_a.hello_interval = link.iface_b.hello_interval = 2.0
        errors = [f for f in check_model(model) if f.severity == "error"]
        assert [f.router for f in errors] == [link.router_a]
        with pytest.raises(ValueError, match="configuration has faults.*one pair"):
            experiment_from_model(model, build_abilene(seed=4))
