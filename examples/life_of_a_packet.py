#!/usr/bin/env python3
"""The life of a packet (Figure 2): Firefox to www.cnn.com via IIAS.

An end host ("client") opts in to an IIAS instance by connecting an
OpenVPN client to the ingress node. Its web request rides UDP tunnels
across the overlay, exits through NAPT at the egress node with a
rewritten public source, reaches a server that knows nothing about the
overlay, and the response retraces the path back through the NAT, the
overlay, and the VPN.

Run:  python examples/life_of_a_packet.py
"""

from repro.core import VINI, Experiment
from repro.net.packet import IPv4Header, OpaquePayload, Packet, PROTO_UDP, UDPHeader
from repro.overlay import IIAS
from repro.phys.process import Process

# Physical world: three VINI backbone nodes, a client host, and a web
# server ("CNN") on the public Internet beyond the egress.
vini = VINI(seed=3)
for name in ("ingress", "transit", "egress"):
    vini.add_node(name)
vini.connect("ingress", "transit", delay=0.010)
vini.connect("transit", "egress", delay=0.010)
vini.add_node("client")
vini.add_node("cnn")
vini.connect("client", "ingress", delay=0.005)
vini.connect("cnn", "egress", delay=0.005)
vini.install_underlay_routes()

# The IIAS instance.
exp = Experiment(vini, "iias", realtime=True)
for name in ("ingress", "transit", "egress"):
    exp.add_node(f"v-{name}", name)
exp.connect("v-ingress", "v-transit")
exp.connect("v-transit", "v-egress")
exp.configure_ospf(hello_interval=2.0, dead_interval=6.0)
iias = IIAS(exp)
vpn = iias.add_openvpn_server("v-ingress")
napt = iias.configure_egress("v-egress")
iias.start()
vini.run(until=15.0)  # OSPF convergence

# The web server (knows nothing about the overlay).
cnn = vini.nodes["cnn"]
httpd = Process(cnn, "httpd")
web_sock = cnn.udp_socket(httpd, port=80)


def serve(request, src, sport):
    print(f"  [4] CNN sees the request from {src}:{sport} "
          f"(the EGRESS node's public address, not the client!)")
    web_sock.sendto(2000, src, sport)
    print("  [5] CNN responds with a 2000-byte page to that address")


web_sock.on_receive = serve

# The end host opts in.
client = iias.opt_in(vini.nodes["client"], "v-ingress")
vini.run(until=16.0)
leased = vpn.address_of(client)
print(f"  [0] client opted in via OpenVPN; leased overlay address {leased}")


def got_response(packet):
    print(f"  [8] client receives the page: {packet.ip.src} -> "
          f"{packet.ip.dst}, {packet.payload.size} bytes. Done!")


client.on_receive = got_response

print(f"  [1] Firefox sends a request to {cnn.address}:80; the kernel "
      "routes it to tap0 and the OpenVPN client tunnels it out")
request = Packet(
    IPv4Header(leased, cnn.address, PROTO_UDP), UDPHeader(5555, 80),
    payload=OpaquePayload(300, tag="GET /"),
)
client.send(request)
vini.run(until=17.0)
print()
print(f"NAPT at the egress: {napt.translated_out} outbound and "
      f"{napt.translated_in} inbound translations, "
      f"{napt.mappings()} active mapping(s)")
print(f"Overlay tunnels carried the request across "
      f"{len(exp.network.links)} virtual links; steps [2][3] were the "
      "Click lookups + UDP tunnel hops, [6][7] the reverse trip.")
