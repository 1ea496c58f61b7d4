"""The life of a packet (Figure 2): opt-in ingress, overlay, NAPT egress.

Client host --OpenVPN--> v0 ==overlay== v2 --NAPT--> "CNN" server, and
the response all the way back.
"""

import pytest

from repro.core import VINI, Experiment
from repro.net.addr import ip
from repro.net.packet import IPv4Header, OpaquePayload, Packet, PROTO_UDP, UDPHeader
from repro.overlay import IIAS


@pytest.fixture
def world():
    vini = VINI(seed=55)
    for name in ("p0", "p1", "p2"):
        vini.add_node(name)
    vini.connect("p0", "p1", delay=0.004)
    vini.connect("p1", "p2", delay=0.004)
    # End hosts: the opt-in client near p0, the web server beyond p2.
    vini.add_node("client")
    vini.add_node("cnn")
    vini.connect("client", "p0", delay=0.002)
    vini.connect("cnn", "p2", delay=0.002)
    vini.install_underlay_routes()
    exp = Experiment(vini, "iias", realtime=True)
    for i in range(3):
        exp.add_node(f"v{i}", f"p{i}")
    exp.connect("v0", "v1")
    exp.connect("v1", "v2")
    exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
    iias = IIAS(exp)
    server = iias.add_openvpn_server("v0")
    napt = iias.configure_egress("v2")
    iias.start()
    vini.run(until=20.0)  # let OSPF converge
    return vini, exp, iias, server, napt


def make_web_request(src, dst, sport=5555, dport=80, size=200):
    return Packet(
        IPv4Header(src, dst, PROTO_UDP), UDPHeader(sport, dport),
        payload=OpaquePayload(size, tag="request"),
    )


def run_echo_server(vini, node_name="cnn", port=80):
    """A UDP echo service standing in for www.cnn.com."""
    node = vini.nodes[node_name]
    from repro.phys.process import Process

    proc = Process(node, "httpd")
    sock = node.udp_socket(proc, port=port)
    log = []

    def respond(packet, src, sport):
        log.append((str(src), sport, packet.payload.size))
        sock.sendto(1000, src, sport)

    sock.on_receive = respond
    return log


class TestLifeOfAPacket:
    def test_opt_in_lease(self, world):
        vini, exp, iias, server, napt = world
        client = iias.opt_in(vini.nodes["client"], "v0")
        vini.run(until=21.0)
        assert len(server.clients) == 1
        leased = server.address_of(client)
        assert leased in server.client_pool

    def test_request_exits_via_napt_with_public_source(self, world):
        vini, exp, iias, server, napt = world
        web_log = run_echo_server(vini)
        client = iias.opt_in(vini.nodes["client"], "v0")
        vini.run(until=21.0)
        leased = server.address_of(client)
        client.send(make_web_request(leased, vini.nodes["cnn"].address))
        vini.run(until=25.0)
        assert len(web_log) == 1
        src, sport, size = web_log[0]
        # Step 4 of Fig. 2: source rewritten to the egress node's
        # public address and an allocated port.
        assert src == str(vini.nodes["p2"].address)
        assert sport >= 50000
        assert size == 200

    def test_response_returns_through_overlay_to_client(self, world):
        vini, exp, iias, server, napt = world
        run_echo_server(vini)
        client = iias.opt_in(vini.nodes["client"], "v0")
        vini.run(until=21.0)
        leased = server.address_of(client)
        got = []
        client.on_receive = lambda pkt: got.append(
            (str(pkt.ip.src), str(pkt.ip.dst), pkt.payload.size)
        )
        client.send(make_web_request(leased, vini.nodes["cnn"].address))
        vini.run(until=25.0)
        assert len(got) == 1
        src, dst, size = got[0]
        assert src == str(vini.nodes["cnn"].address)
        assert dst == str(leased)
        assert size == 1000
        assert napt.translated_in == 1

    def test_rewired_ports_carry_the_traffic(self, world):
        """configure_egress re-points the FIB's egress port from the
        placeholder discard to the NAPT, and every lease adds an encap
        port to its client's VPN endpoint: both must be live ports, not
        just ``target`` fields."""
        vini, exp, iias, server, napt = world
        run_echo_server(vini)
        v0, v2 = exp.network.nodes["v0"], exp.network.nodes["v2"]
        egress_port = v2.lookup.outputs[2]
        assert egress_port.target is napt and egress_port.push.args == (0,)
        vini.sim.trace.enable("drop")
        client = iias.opt_in(vini.nodes["client"], "v0")
        vini.run(until=21.0)
        leased = server.address_of(client)
        vpn_port = v0.encap.outputs[v0.encap.mapping()[int(leased)]]
        assert vpn_port.target.client_real == vini.nodes["client"].address
        got = []
        client.on_receive = got.append
        client.send(make_web_request(leased, vini.nodes["cnn"].address))
        vini.run(until=25.0)
        assert napt.translated_out == 1 and napt.translated_in == 1
        assert len(got) == 1
        trace = vini.sim.trace
        assert trace.count("drop", where=v0.click.name) == 0
        assert trace.count("drop", where=v2.click.name) == 0

    def test_source_spoofing_rewritten_at_ingress(self, world):
        vini, exp, iias, server, napt = world
        web_log = run_echo_server(vini)
        client = iias.opt_in(vini.nodes["client"], "v0")
        vini.run(until=21.0)
        spoofed = make_web_request("10.99.99.99", vini.nodes["cnn"].address)
        client.send(spoofed)
        vini.run(until=25.0)
        assert len(web_log) == 1  # delivered, but as the leased address
        assert napt.translated_out == 1

    def test_two_clients_get_distinct_leases(self, world):
        vini, exp, iias, server, napt = world
        c1 = iias.opt_in(vini.nodes["client"], "v0")
        c2 = iias.opt_in(vini.nodes["cnn"], "v0")  # any host can opt in
        vini.run(until=21.0)
        assert server.address_of(c1) != server.address_of(c2)

    def test_overlay_to_overlay_through_vpn(self, world):
        """Client traffic to another node's tap address stays internal."""
        vini, exp, iias, server, napt = world
        client = iias.opt_in(vini.nodes["client"], "v0")
        vini.run(until=21.0)
        leased = server.address_of(client)
        v2_tap = exp.network.nodes["v2"].tap_addr
        got = []
        v2 = exp.network.nodes["v2"]
        app = v2.sliver.create_process("app")
        sock = v2.phys_node.udp_socket(app, port=7000, local_addr=v2_tap)
        sock.on_receive = lambda pkt, src, sport: got.append(str(src))
        client.send(make_web_request(leased, v2_tap, dport=7000))
        vini.run(until=25.0)
        assert got == [str(leased)]
        assert napt.translated_out == 0  # never left the overlay


class TestConfigGeneration:
    def test_duplicate_roles_rejected(self, world):
        vini, exp, iias, server, napt = world
        with pytest.raises(ValueError):
            iias.add_openvpn_server("v0")
        with pytest.raises(ValueError):
            iias.configure_egress("v2")
