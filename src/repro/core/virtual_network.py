"""Virtual networks: nodes, links, and topology embedding.

This module answers the paper's central design question — how to give
each experiment an arbitrary topology on a fixed infrastructure:

* **Unique interfaces per experiment** (Section 3.1): each
  :class:`VirtualNode` grows as many virtual interfaces as the virtual
  topology needs, presented to the routing software as real-looking
  point-to-point interfaces numbered from common /30 subnets (the UML
  technique of Section 4.1.3).
* **Virtual point-to-point connectivity**: a :class:`VirtualLink` is a
  pair of UDP tunnels between Click processes, optionally shaped to a
  configured bandwidth (Section 6.2).
* **Distinct forwarding tables / routing processes per virtual node**
  (Section 3.2): every VirtualNode runs its own Click graph (FIB) and
  its own XORP instance, with the control and data planes decoupled —
  XORP runs in a separate (UML) process and programs the Click FIB
  through the FEA.
* **Controlled failures**: virtual links fail by dropping packets in
  Click (Section 5.2's method), and physical failures can be exposed
  to experiments via upcalls (:mod:`repro.core.upcalls`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.click import (
    CheckIPHeader,
    ClickRouter,
    DecIPTTL,
    Discard,
    EncapTable,
    FromTap,
    ICMPErrorElement,
    IPClassifier,
    LossElement,
    Paint,
    RadixIPLookup,
    Shaper,
    ToTap,
    UDPTunnel,
    UMLSwitch,
)
from repro.net.addr import IPv4Address, Prefix, ip, prefix
from repro.net.packet import ICMP_TIME_EXCEEDED, Packet
from repro.phys.link import Link
from repro.phys.node import PhysicalNode
from repro.phys.vserver import OVERLAY_PREFIX, Slice, Sliver
from repro.routing.platform import FEA, RouterInterface, RoutingPlatform
from repro.routing.xorp import XORPRouter
from repro.sim.engine import Simulator

FIB_FORWARD = 0  # lookup output: via the encap table to a tunnel
FIB_LOCAL = 1  # lookup output: to the tap device (local delivery)
FIB_EGRESS = 2  # lookup output: NAPT to the real Internet

#: Virtual-link /30s are numbered from this block.
LINK_BLOCK = "10.254.0.0/16"
#: Tunnel UDP ports are taken from the first free one at or above this.
TUNNEL_PORT_BASE = 33000


class IIASFEA(FEA):
    """FEA programming a VirtualNode's Click FIB.

    RIB routes name virtual interfaces; the FEA translates them into
    Click lookup entries: the special interface names ``local`` and
    ``egress`` select the tap and NAPT ports, anything else forwards
    via the encapsulation table with the route's next hop annotation.
    """

    def __init__(self, vnode: "VirtualNode"):
        super().__init__()
        self.vnode = vnode

    def install(self, pfx: Prefix, nexthop: Optional[IPv4Address], ifname: str) -> None:
        super().install(pfx, nexthop, ifname)
        lookup = self.vnode.lookup
        if ifname == "local":
            lookup.add_route(pfx, None, FIB_LOCAL)
        elif ifname == "egress":
            lookup.add_route(pfx, None, FIB_EGRESS)
        else:
            lookup.add_route(pfx, nexthop, FIB_FORWARD)

    def withdraw(self, pfx: Prefix) -> None:
        super().withdraw(pfx)
        try:
            self.vnode.lookup.remove_route(pfx)
        except KeyError:
            pass

    def clear(self) -> None:
        # Only RIB-programmed routes: the static tap/link-local entries
        # added at wiring time live outside ``self.routes`` and stay.
        for key in list(self.routes):
            try:
                self.vnode.lookup.remove_route(Prefix(key[0], key[1]))
            except KeyError:
                pass
        super().clear()


class VirtualNode(RoutingPlatform):
    """One virtual router: tap + Click data plane + XORP control plane.

    The element graph mirrors Figure 1 of the paper::

        FromTap ──┐                               ┌─> UMLSwitch ─> XORP
        tunnels ──┴─ Paint ─> demux ──────────────┤        │
                                                  └─> CheckIPHeader
                                                            │
                                                      RadixIPLookup
           [0] DecIPTTL ─> EncapTable ─> Loss ─> (Shaper) ─> UDPTunnel_i
                  │[expired]
               ICMPError ─> (back into RadixIPLookup)
           [1] ToTap
           [2] NAPT (egress, when configured)

    TTL is decremented on the forwarding path only; locally delivered
    packets keep theirs, like real IP.
    """

    def __init__(
        self,
        network: "VirtualNetwork",
        name: str,
        phys_node: PhysicalNode,
        sliver: Sliver,
        tap_addr: IPv4Address,
    ):
        self.network = network
        self.phys_node = phys_node
        self.sliver = sliver
        self.tap_addr = tap_addr
        self.click_process = sliver.create_process("click")
        self.control_process = sliver.create_process("xorp")
        self.click = ClickRouter(phys_node, self.click_process, name=f"click.{name}")
        super().__init__(phys_node.sim, name, fea=IIASFEA(self))
        self.tap = sliver.create_tap(tap_addr, route_prefix=network.tap_route_prefix)
        self._build_graph()
        self.xorp = XORPRouter(self)
        self.vlinks: Dict[str, "VirtualLink"] = {}  # by local interface name
        self._tunnels: Dict[str, UDPTunnel] = {}
        self._losses: Dict[str, LossElement] = {}
        self.crashed = False
        # Virtual links this node's crash failed (so restart() recovers
        # exactly those, not links an experiment failed deliberately).
        self._crash_failed: List["VirtualLink"] = []
        # The tap address is always local.
        self.lookup.add_route(Prefix(tap_addr, 32), None, FIB_LOCAL)

    # ------------------------------------------------------------------
    def _build_graph(self) -> None:
        click = self.click
        self.demux = click.add(
            "demux",
            IPClassifier(
                "proto ospf",
                "udp dport 520",
                "tcp dport 179",
                "tcp sport 179",
                "-",
            ),
        )
        self.uml = click.add("uml", UMLSwitch())
        self.uml.attach_control(self.control_process, self._control_input)
        check = click.add("check", CheckIPHeader())
        ttl = click.add("ttl", DecIPTTL())
        self.lookup = click.add(
            "lookup", RadixIPLookup(n_outputs=3)
        )
        icmperr = click.add(
            "icmperr",
            ICMPErrorElement(self.tap_addr, ICMP_TIME_EXCEEDED),
        )
        self.encap = click.add("encap", EncapTable(n_outputs=0))
        totap = click.add("totap", ToTap(self.tap))
        self.fromtap = click.add("fromtap", FromTap(self.tap))
        tap_paint = click.add("tap_paint", Paint("tap0"))
        # Wiring. TTL is decremented on the *forwarding* path only
        # (locally delivered packets keep their TTL, like real IP).
        self.fromtap.connect(tap_paint).connect(self.demux)
        for port in range(4):
            self.demux.outputs[port].connect(self.uml, 0)
        self.demux.outputs[4].connect(check, 0)
        check.connect(self.lookup)
        self.lookup.outputs[FIB_FORWARD].connect(ttl, 0)
        ttl.connect(self.encap, 0, 0)
        ttl.connect(icmperr, 1, 0)
        icmperr.connect(self.lookup)
        self.lookup.outputs[FIB_LOCAL].connect(totap, 0)
        # Egress defaults to a visible discard; overlay.egress rewires.
        noegress = click.add("noegress", Discard())
        self.lookup.outputs[FIB_EGRESS].connect(noegress, 0)
        # UMLSwitch's graph-facing output feeds the normal IP path, so
        # unicast control traffic is forwarded by the FIB like the
        # paper notes.
        self.uml.connect(check)

    # ------------------------------------------------------------------
    # RoutingPlatform interface (what XORP sees)
    # ------------------------------------------------------------------
    def send(self, iface: RouterInterface, packet: Packet) -> None:
        """Control-plane output on a virtual interface.

        Link-local traffic (multicast hellos, neighbor unicast on the
        interface subnet) goes straight down this interface's tunnel;
        anything else enters the FIB path, since "the forwarding table
        in IIAS controls both how data and control traffic is
        forwarded" (Section 4.2.1).
        """
        if not iface.up:
            return
        dst = packet.ip.dst
        vlink = self.vlinks.get(iface.name)
        if vlink is not None and (dst.is_multicast or dst in iface.prefix):
            entry = self._losses[iface.name]
            self.click_process.exec_after(
                self.click.per_packet_cost(packet), entry.push, 0, packet
            )
        else:
            self.uml.inject(packet)

    def _control_input(self, packet: Packet) -> None:
        """Packets the data plane classified as routing traffic."""
        paint = packet.meta.get("paint")
        iface = self.interfaces.get(paint) if paint is not None else None
        if iface is None:
            # Unicast BGP or unattributable control traffic: deliver on
            # the first interface (peers are identified by address).
            iface = next(iter(self.interfaces.values()), None)
            if iface is None:
                return
        self.deliver(iface, packet)

    def elements_entry(self, packet: Packet) -> None:
        """Push a packet into the data plane at the IP-path entrance.

        Used by ingress mechanisms (OpenVPN, tests) that already paid
        the CPU cost of getting the packet into the Click process.
        """
        self.click["check"].push(0, packet)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def configure_ospf(self, **kwargs) -> None:
        """Configure OSPF with the node's tap address as router id and
        the tap /32 advertised as a stub (so overlay pings work)."""
        stubs = kwargs.pop("stub_prefixes", [])
        stubs = list(stubs) + [(Prefix(self.tap_addr, 32), 0)]
        self.xorp.configure_ospf(self.tap_addr, stub_prefixes=stubs, **kwargs)

    def start(self) -> None:
        self.click.initialize()
        self.xorp.start()

    # ------------------------------------------------------------------
    # Crash / restart (controlled node failures, Section 5.2)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the virtual router: every adjacent virtual link is
        black-holed, so neighbours see a silent failure and OSPF's
        dead-interval machinery takes over (the paper's Section 5.2
        failure model, applied to a whole node)."""
        if self.crashed:
            return
        self.crashed = True
        for vlink in self.vlinks.values():
            if not vlink.failed:
                vlink.fail()
                self._crash_failed.append(vlink)
        self.network.sim.trace.log("node_state", node=self.name, alive=False)

    def restart(self) -> None:
        """Bring the virtual router back; links this crash failed
        recover once both endpoints are up again (a link shared with a
        still-crashed neighbour is handed to that neighbour's record)."""
        if not self.crashed:
            return
        self.crashed = False
        vlinks, self._crash_failed = self._crash_failed, []
        for vlink in vlinks:
            other = vlink.b if vlink.a is self else vlink.a
            if other.crashed:
                other._crash_failed.append(vlink)
            else:
                vlink.recover()
        self.network.sim.trace.log("node_state", node=self.name, alive=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VirtualNode {self.name} on {self.phys_node.name} tap={self.tap_addr}>"


class VirtualLink:
    """A virtual point-to-point link: two UDP tunnels + loss elements."""

    def __init__(
        self,
        network: "VirtualNetwork",
        a: VirtualNode,
        b: VirtualNode,
        subnet: Prefix,
        cost: int,
        bandwidth: Optional[float],
        ifname_a: str,
        ifname_b: str,
    ):
        self.network = network
        self.a = a
        self.b = b
        self.subnet = subnet
        self.cost = cost
        self.bandwidth = bandwidth
        self.ifname_a = ifname_a
        self.ifname_b = ifname_b
        self.failed = False
        # Physical links this virtual link rides on (for upcalls).
        self.physical_links: List[Link] = []
        self.observers: List[Callable[["VirtualLink", bool], None]] = []

    @property
    def name(self) -> str:
        return f"{self.a.name}={self.b.name}"

    def interface_on(self, vnode: VirtualNode) -> RouterInterface:
        if vnode is self.a:
            return self.a.interfaces[self.ifname_a]
        if vnode is self.b:
            return self.b.interfaces[self.ifname_b]
        raise ValueError(f"{vnode.name} is not an endpoint of {self.name}")

    def fail(self) -> None:
        """Black-hole the virtual link (drop inside Click, both ways)."""
        if self.failed:
            return
        self.failed = True
        self.a._losses[self.ifname_a].fail()
        self.b._losses[self.ifname_b].fail()
        self.network.sim.trace.log("vlink_state", link=self.name, up=False)
        for observer in list(self.observers):
            observer(self, False)

    def recover(self) -> None:
        if not self.failed:
            return
        self.failed = False
        self.a._losses[self.ifname_a].recover()
        self.b._losses[self.ifname_b].recover()
        self.network.sim.trace.log("vlink_state", link=self.name, up=True)
        for observer in list(self.observers):
            observer(self, True)

    def observe(self, callback: Callable[["VirtualLink", bool], None]) -> None:
        """Register for up/down notifications (mirrors Link.observe)."""
        self.observers.append(callback)

    def set_loss(self, drop_prob: float) -> None:
        """Make the link lossy in both directions (a loss episode)."""
        self.a._losses[self.ifname_a].set_drop_prob(drop_prob)
        self.b._losses[self.ifname_b].set_drop_prob(drop_prob)
        self.network.sim.trace.log(
            "vlink_state", link=self.name, loss=drop_prob
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "DOWN" if self.failed else "up"
        return f"<VirtualLink {self.name} {self.subnet} cost={self.cost} {state}>"


class VirtualNetwork:
    """An experiment's virtual topology embedded in a slice."""

    def __init__(
        self,
        sim: Simulator,
        slice_: Slice,
        tap_route_prefix: Union[str, Prefix] = OVERLAY_PREFIX,
        tap_block: Union[str, Prefix] = "10.0.0.0/16",
    ):
        self.sim = sim
        self.slice = slice_
        self.tap_route_prefix = prefix(tap_route_prefix)
        self._tap_hosts = iter(
            Prefix(p.network, 24).host(2) for p in prefix(tap_block).subnets(24)
        )
        self._link_subnets = prefix(LINK_BLOCK).subnets(30)
        self.nodes: Dict[str, VirtualNode] = {}
        self.links: List[VirtualLink] = []
        self._started = False

    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        phys_node: PhysicalNode,
        tap_addr: Optional[Union[str, IPv4Address]] = None,
    ) -> VirtualNode:
        if name in self.nodes:
            raise ValueError(f"duplicate virtual node {name!r}")
        sliver = (
            phys_node.slivers[self.slice.name]
            if self.slice.name in phys_node.slivers
            else phys_node.create_sliver(self.slice)
        )
        addr = ip(tap_addr) if tap_addr is not None else next(self._tap_hosts)
        if addr not in self.tap_route_prefix:
            raise ValueError(
                f"tap address {addr} outside overlay prefix {self.tap_route_prefix}"
            )
        vnode = VirtualNode(self, name, phys_node, sliver, addr)
        self.nodes[name] = vnode
        return vnode

    def _alloc_port(self, phys_node: PhysicalNode) -> int:
        from repro.net.packet import PROTO_UDP

        return phys_node.vnet.preallocate(PROTO_UDP, start=TUNNEL_PORT_BASE)

    def connect(
        self,
        a: Union[str, VirtualNode],
        b: Union[str, VirtualNode],
        cost: int = 1,
        bandwidth: Optional[float] = None,
        subnet: Optional[Union[str, Prefix]] = None,
    ) -> VirtualLink:
        """Create a virtual link between two virtual nodes."""
        # An OSPF interface cost is a 16-bit integer >= 1 (RFC 2328 C.3).
        if type(cost) is not int or not 1 <= cost <= 65535:
            raise ValueError(f"OSPF cost must be an integer in 1..65535, got {cost!r}")
        vnode_a = self.nodes[a] if isinstance(a, str) else a
        vnode_b = self.nodes[b] if isinstance(b, str) else b
        block = prefix(subnet) if subnet is not None else next(self._link_subnets)
        addr_a, addr_b = list(block.hosts())[:2]
        port_a = self._alloc_port(vnode_a.phys_node)
        port_b = self._alloc_port(vnode_b.phys_node)
        ifname_a = f"to_{vnode_b.name}"
        ifname_b = f"to_{vnode_a.name}"
        vlink = VirtualLink(
            self, vnode_a, vnode_b, block, cost, bandwidth, ifname_a, ifname_b
        )
        self._attach_end(vnode_a, vlink, ifname_a, addr_a, addr_b, port_a,
                         vnode_b.phys_node, port_b)
        self._attach_end(vnode_b, vlink, ifname_b, addr_b, addr_a, port_b,
                         vnode_a.phys_node, port_a)
        self.links.append(vlink)
        return vlink

    def _attach_end(
        self,
        vnode: VirtualNode,
        vlink: VirtualLink,
        ifname: str,
        local_addr: IPv4Address,
        remote_addr: IPv4Address,
        local_port: int,
        remote_phys: PhysicalNode,
        remote_port: int,
    ) -> None:
        click = vnode.click
        tunnel = click.add(
            f"tun_{ifname}",
            UDPTunnel(remote_phys.address, remote_port, local_port),
        )
        loss = click.add(f"loss_{ifname}", LossElement())
        paint = click.add(f"paint_{ifname}", Paint(ifname))
        # encap[new port] -> loss -> (shaper ->) tunnel -> paint -> demux
        encap_port = vnode.encap.add_output()
        vnode.encap.outputs[encap_port].connect(loss, 0)
        if vlink.bandwidth is not None:
            shaper = click.add(f"shape_{ifname}", Shaper(vlink.bandwidth))
            loss.connect(shaper)
            shaper.connect(tunnel)
        else:
            loss.connect(tunnel)
        tunnel.connect(paint)
        paint.connect(vnode.demux)
        vnode.encap.add_mapping(remote_addr, encap_port)
        # The routing software sees a fresh point-to-point interface.
        iface = RouterInterface(ifname, local_addr, vlink.subnet, cost=vlink.cost)
        vnode.add_interface(iface)
        vnode.vlinks[ifname] = vlink
        vnode._tunnels[ifname] = tunnel
        vnode._losses[ifname] = loss
        # Our own end of the /30 is always local.
        vnode.lookup.add_route(Prefix(local_addr, 32), None, FIB_LOCAL)

    # ------------------------------------------------------------------
    def link_between(self, a: str, b: str) -> VirtualLink:
        for vlink in self.links:
            if {vlink.a.name, vlink.b.name} == {a, b}:
                return vlink
        raise KeyError(f"no virtual link between {a} and {b}")

    def fail_link(self, a: str, b: str) -> None:
        self.link_between(a, b).fail()

    def recover_link(self, a: str, b: str) -> None:
        self.link_between(a, b).recover()

    def configure_ospf(self, **kwargs) -> None:
        """Configure OSPF on every virtual node, with the link costs each
        virtual link was created with."""
        for vnode in self.nodes.values():
            vnode.configure_ospf(**kwargs)

    def start(self) -> None:
        """Initialize every Click graph and start every XORP router."""
        if self._started:
            return
        self._started = True
        for vnode in self.nodes.values():
            vnode.start()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<VirtualNetwork slice={self.slice.name} nodes={len(self.nodes)} "
            f"links={len(self.links)}>"
        )
