"""Helpers for routing tests: build small LocalFabric topologies."""

import pytest

from repro.net.addr import Prefix
from repro.routing import RouterInterface, RoutingPlatform, XORPRouter
from repro.sim import Simulator


class LocalFabric:
    """In-memory point-to-point wires between LocalPlatforms, so routing
    daemons run without Click or a CPU model underneath."""

    def __init__(self, sim):
        self.sim = sim
        self._wires = {}  # (platform name, iface name) -> (peer, peer iface, delay)
        self._down = set()  # the (platform name, iface name) ends of failed links

    def connect(self, a, iface_a, b, iface_b, delay=0.001):
        self._wires[(a.name, iface_a)] = (b, b.interfaces[iface_b], delay)
        self._wires[(b.name, iface_b)] = (a, a.interfaces[iface_a], delay)

    def _ends(self, platform, iface):
        peer, peer_iface, _delay = self._wires[(platform.name, iface)]
        return {(platform.name, iface), (peer.name, peer_iface.name)}

    def fail(self, platform, iface):
        """Fail the link attached to (platform, interface), both ways."""
        self._down |= self._ends(platform, iface)

    def recover(self, platform, iface):
        self._down -= self._ends(platform, iface)

    def transmit(self, platform, iface, packet):
        end = (platform.name, iface.name)
        if end in self._wires and end not in self._down:
            peer, peer_iface, delay = self._wires[end]
            self.sim.at(delay, peer.deliver, peer_iface, packet)


class LocalPlatform(RoutingPlatform):
    """A RoutingPlatform wired through a LocalFabric."""

    def __init__(self, sim, name, fabric):
        super().__init__(sim, name)
        self.fabric = fabric

    def send(self, iface, packet):
        if iface.up:
            self.fabric.transmit(self, iface, packet)


def build_topology(sim, edges, delay=0.001, costs=None):
    """Build routers from an edge list like [("a", "b"), ("b", "c")].

    Each router gets a /32 loopback-style stub 10.255.x.1 advertised by
    OSPF via stub_prefixes at configure time (caller's job); interface
    subnets are allocated /30s from 10.9.0.0/16.

    Returns (fabric, {name: platform}, {name: XORPRouter},
             {(a, b): (iface_a, iface_b)}).
    """
    fabric = LocalFabric(sim)
    platforms = {}
    routers = {}
    names = sorted({n for edge in edges for n in edge})
    for name in names:
        platforms[name] = LocalPlatform(sim, name, fabric)
        routers[name] = XORPRouter(platforms[name])
    ifmap = {}
    subnets = Prefix("10.9.0.0", 16).subnets(30)
    for index, (a, b) in enumerate(edges):
        subnet = next(subnets)
        hosts = list(subnet.hosts())
        cost = (costs or {}).get((a, b), (costs or {}).get((b, a), 1))
        ia = RouterInterface(f"to_{b}", hosts[0], subnet, cost=cost)
        ib = RouterInterface(f"to_{a}", hosts[1], subnet, cost=cost)
        platforms[a].add_interface(ia)
        platforms[b].add_interface(ib)
        fabric.connect(platforms[a], ia.name, platforms[b], ib.name, delay=delay)
        ifmap[(a, b)] = (ia, ib)
    return fabric, platforms, routers, ifmap


def router_id(index):
    return f"10.255.{index}.1"


@pytest.fixture
def sim():
    return Simulator(seed=33)
