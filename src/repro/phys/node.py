"""Physical nodes: interfaces, tap devices, and the kernel IP stack.

A :class:`PhysicalNode` stands in for a PlanetLab server or DETER
machine: NICs attached to links, a kernel that forwards IP packets (the
"Network" baseline of Tables 2–5 runs entirely in this kernel path),
VServer slices with their own tap devices, VNET port isolation, and a
CPU whose scheduler charges every packet's processing to some process.

The kernel is itself a real-time process on the node CPU: interrupt
and softirq work preempts user space, but still consumes cycles that
show up in CPU utilization (Table 2's 48 % kernel-forwarding load).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.net.addr import IPv4Address, Prefix, ip, prefix
from repro.net.packet import (
    ICMP_DEST_UNREACHABLE,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_TIME_EXCEEDED,
    ICMPHeader,
    IPv4Header,
    OpaquePayload,
    Packet,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
)
from repro.net.trie import RadixTrie
from repro.phys.cpu import CPUScheduler
from repro.phys.link import Link
from repro.phys.process import Process
from repro.phys.sockets import RawIntercept, UDPSocket
from repro.phys.vnet import VNet
from repro.sim.engine import Simulator

# Reference per-packet kernel costs (seconds / seconds-per-byte) chosen
# so that kernel forwarding of a 1 Gb/s MTU-sized stream consumes about
# half a 2006-era CPU, matching Table 2's "Network" row (940 Mb/s at
# 48 % CPU).
KERNEL_COST_FIXED = 2.0e-6
KERNEL_COST_PER_BYTE = 2.5e-9
APP_RECV_COST = 5.0e-6


class Route:
    """A kernel routing table entry."""

    __slots__ = ("prefix", "interface", "gateway", "metric")

    def __init__(
        self,
        pfx: Prefix,
        interface: "Interface",
        gateway: Optional[IPv4Address] = None,
        metric: int = 0,
    ):
        self.prefix = pfx
        self.interface = interface
        self.gateway = gateway
        self.metric = metric

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        via = f" via {self.gateway}" if self.gateway else ""
        return f"<Route {self.prefix} dev {self.interface.name}{via}>"


class Interface:
    """A physical network interface."""

    def __init__(self, node: "PhysicalNode", name: str):
        self.node = node
        self.name = name
        self.address: Optional[IPv4Address] = None
        self.prefix: Optional[Prefix] = None
        self.link: Optional[Link] = None
        self.up = True
        self.qdisc = None  # optional HTB egress scheduler
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0

    def install_htb(self, line_rate: Optional[float] = None):
        """Attach an HTB egress scheduler (PlanetLab's per-slice
        outgoing-bandwidth isolation, Section 4.1.1).

        Traffic is classified by the sending slice (packets without a
        slice annotation ride a ``default`` class). Classes are created
        with :meth:`htb_class`; unknown slices fall back to default.
        """
        from repro.phys.htb import HTB

        rate = line_rate if line_rate is not None else (
            self.link.bandwidth if self.link is not None else 1e9
        )
        self.qdisc = HTB(
            self.node.sim, rate, output=lambda pkt: self._transmit_raw(pkt)
        )
        self.qdisc.add_class("default", rate=rate * 0.5)
        return self.qdisc

    def htb_class(self, slice_name: str, rate: float, ceil: Optional[float] = None):
        """Guarantee ``rate`` (borrow up to ``ceil``) for one slice."""
        if self.qdisc is None:
            raise RuntimeError(f"{self.name}: install_htb() first")
        return self.qdisc.add_class(slice_name, rate=rate, ceil=ceil)

    def configure(self, address: Union[str, IPv4Address], plen: int) -> "Interface":
        """Assign an address; installs the connected route."""
        if self.address is not None:
            self.node._forget_address(self.address)
        self.address = ip(address)
        self.prefix = Prefix(self.address, plen)
        self.node._learn_address(self.address)
        self.node.add_route(self.prefix, interface=self)
        return self

    def attach(self, link: Link) -> "Interface":
        self.link = link
        link.attach(self)
        return self

    def transmit(self, packet: Packet) -> bool:
        if not self.up or self.link is None:
            self.node.sim.trace.log(
                "iface_drop", node=self.node.name, iface=self.name, reason="down"
            )
            return False
        if self.qdisc is not None:
            slice_name = packet.meta.get("slice", "default")
            if slice_name not in self.qdisc.classes:
                slice_name = "default"
            return self.qdisc.enqueue(slice_name, packet)
        return self._transmit_raw(packet)

    def _transmit_raw(self, packet: Packet) -> bool:
        self.tx_packets += 1
        self.tx_bytes += packet.wire_len
        return self.link.transmit(self, packet)

    def receive(self, packet: Packet) -> None:
        if not self.up:
            return
        self.rx_packets += 1
        self.rx_bytes += packet.wire_len
        self.node.ip_input(self, packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        addr = f" {self.address}/{self.prefix.plen}" if self.address else ""
        return f"<Interface {self.node.name}:{self.name}{addr}>"


class TapDevice:
    """A per-sliver TUN/TAP device (PL-VINI's modified ``tap0``).

    The kernel routes ``route_prefix`` (10.0.0.0/8 on PL-VINI) to this
    device; a user-space process in the sliver (Click) registers as the
    reader and receives those packets, paying its own CPU cost per read.
    Packets the reader writes back are re-injected into the kernel and
    delivered to local applications — the paper's modified TUN/TAP
    driver that lets every slice see only its own traffic.
    """

    def __init__(
        self,
        sliver: "Sliver",  # noqa: F821
        address: IPv4Address,
        route_prefix: Prefix,
        name: str = "tap0",
    ):
        self.sliver = sliver
        self.node = sliver.node
        self.address = address
        self.route_prefix = route_prefix
        self.name = name
        self.reader_process: Optional[Process] = None
        self.reader: Optional[Callable[[Packet], None]] = None
        self.read_cost: Callable[[Packet], float] = lambda _p: APP_RECV_COST
        self.pending_bytes = 0
        self.sndbuf = 256 * 1024
        self.drops = 0

    def set_reader(
        self,
        process: Process,
        callback: Callable[[Packet], None],
        read_cost: Optional[Callable[[Packet], float]] = None,
    ) -> None:
        self.reader_process = process
        self.reader = callback
        if read_cost is not None:
            self.read_cost = read_cost

    def to_reader(self, packet: Packet) -> bool:
        """Kernel -> user space: queue the packet for the reader."""
        if self.reader is None or self.reader_process is None:
            self.drops += 1
            return False
        size = packet.wire_len
        fr = self.node.sim.flight
        tracked = fr.enabled and packet.span is not None
        if self.pending_bytes + size > self.sndbuf:
            self.drops += 1
            self.node.sim.trace.log(
                "tap_drop", node=self.node.name, slice=self.sliver.slice.name
            )
            if tracked:
                fr.flight_drop(packet, "tap_overflow", node=self.node.name)
            return False
        self.pending_bytes += size
        if tracked:
            fr.stage(packet, "cpu.wait", node=self.node.name)
        self.reader_process.exec_after(
            self.read_cost(packet), self._deliver, packet, size,
            span_packet=packet if tracked else None,
        )
        return True

    def _deliver(self, packet: Packet, size: int) -> None:
        self.pending_bytes -= size
        if self.reader is not None:
            self.reader(packet)

    def write(self, packet: Packet) -> None:
        """User space -> kernel: inject as if received on the device."""
        self.node.tap_input(self, packet)


class PhysicalNode:
    """One machine of the physical infrastructure."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cpu_speed: float = 1.0,
        ip_forwarding: bool = True,
    ):
        self.sim = sim
        self.name = name
        self.cpu = CPUScheduler(sim, name=f"{name}.cpu", speed=cpu_speed)
        self.kernel = Process(self, "kernel", realtime=True)
        self.ip_forwarding = ip_forwarding
        self.interfaces: Dict[str, Interface] = {}
        self.routes = RadixTrie()
        self.vnet = VNet(self)
        self.slivers: Dict[str, "Sliver"] = {}  # noqa: F821
        self.tcp_stack = None  # installed lazily by repro.net.tcp
        # Cost model knobs (seconds); see module docstring.
        self.kernel_cost_fixed = KERNEL_COST_FIXED
        self.kernel_cost_per_byte = KERNEL_COST_PER_BYTE
        self.app_recv_cost = APP_RECV_COST
        self._local_addrs: Dict[int, Interface] = {}
        self._tap_addrs: Dict[int, "Sliver"] = {}  # noqa: F821
        self._icmp_idents: Dict[Tuple[Optional[str], int], Callable] = {}
        self._icmp_error_listeners: List[Callable[[Packet], None]] = []
        self._captures: List[Callable[[Packet, str], None]] = []
        self.forwarded = 0
        self.alive = True
        # Links/interfaces this node's crash took down, so restart()
        # recovers exactly those and nothing an experiment failed
        # deliberately.
        self._crash_links: List[Link] = []
        self._crash_ifaces: List[Interface] = []

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_interface(self, name: str) -> Interface:
        if name in self.interfaces:
            raise ValueError(f"{self.name}: duplicate interface {name!r}")
        iface = Interface(self, name)
        self.interfaces[name] = iface
        return iface

    def _learn_address(self, address: IPv4Address) -> None:
        self._local_addrs[int(address)] = None  # filled below

    def _forget_address(self, address: IPv4Address) -> None:
        self._local_addrs.pop(int(address), None)

    def add_route(
        self,
        pfx: Union[str, Prefix],
        interface: Union[str, Interface],
        gateway: Optional[Union[str, IPv4Address]] = None,
        metric: int = 0,
    ) -> Route:
        if isinstance(interface, str):
            interface = self.interfaces[interface]
        route = Route(
            prefix(pfx),
            interface,
            ip(gateway) if gateway is not None else None,
            metric,
        )
        self.routes.insert(route.prefix, route)
        return route

    def remove_route(self, pfx: Union[str, Prefix]) -> None:
        self.routes.remove(prefix(pfx))

    @property
    def address(self) -> IPv4Address:
        """The node's primary (first-configured) address."""
        for iface in self.interfaces.values():
            if iface.address is not None:
                return iface.address
        raise RuntimeError(f"{self.name} has no configured interface")

    def is_local(self, address: Union[str, IPv4Address]) -> bool:
        return int(ip(address)) in self._local_addrs

    # ------------------------------------------------------------------
    # Crash / restart (controlled node failures, Section 5.2)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power the node off abruptly.

        Attached links that were up go down (their queued and in-flight
        packets are lost — the fate-sharing Section 3.1 demands), all
        interfaces stop receiving, and every queued CPU work item is
        discarded. The failed links and downed interfaces are recorded
        so :meth:`restart` undoes exactly this crash's damage.
        """
        if not self.alive:
            return
        self.alive = False
        for iface in self.interfaces.values():
            link = iface.link
            if link is not None and link.up:
                link.fail()
                self._crash_links.append(link)
            if iface.up:
                iface.up = False
                self._crash_ifaces.append(iface)
        self.cpu.crash_flush()
        self.sim.trace.log("node_state", node=self.name, alive=False)

    def restart(self) -> None:
        """Power the node back on.

        Interfaces this crash downed come back up; links this crash
        failed recover once both their endpoints are alive (a link
        shared with a still-crashed neighbour is handed to that
        neighbour's crash record, so *its* restart recovers it).
        """
        if self.alive:
            return
        self.alive = True
        for iface in self._crash_ifaces:
            iface.up = True
        self._crash_ifaces = []
        links, self._crash_links = self._crash_links, []
        for link in links:
            if all(getattr(ep.node, "alive", True) for ep in link.endpoints):
                link.recover()
            else:
                for ep in link.endpoints:
                    if not getattr(ep.node, "alive", True):
                        ep.node._crash_links.append(link)
                        break
        self.sim.trace.log("node_state", node=self.name, alive=True)

    # ------------------------------------------------------------------
    # Slices
    # ------------------------------------------------------------------
    def create_sliver(self, slice_: "Slice") -> "Sliver":  # noqa: F821
        from repro.phys.vserver import Sliver  # local import, avoids cycle

        if slice_.name in self.slivers:
            raise ValueError(f"slice {slice_.name!r} already on {self.name}")
        sliver = Sliver(self, slice_)
        self.slivers[slice_.name] = sliver
        return sliver

    def _register_tap(self, tap: TapDevice) -> None:
        self._tap_addrs[int(tap.address)] = tap.sliver

    # ------------------------------------------------------------------
    # Sockets
    # ------------------------------------------------------------------
    def udp_socket(
        self,
        owner: Process,
        port: Optional[int] = None,
        local_addr: Optional[Union[str, IPv4Address]] = None,
        rcvbuf: int = 128 * 1024,
        recv_cost: Optional[Callable[[Packet], float]] = None,
    ) -> UDPSocket:
        """Bind a UDP socket.

        Binding to a sliver's tap address puts the socket in that
        sliver's private port space; otherwise the port is reserved
        node-wide through VNET.
        """
        sliver = owner.sliver
        bind_addr = ip(local_addr) if local_addr is not None else self.address
        in_tap_space = (
            sliver is not None
            and sliver.tap is not None
            and bind_addr in sliver.tap.route_prefix
        )
        if port is None:
            if in_tap_space:
                port = sliver.free_udp_port()
            else:
                port = self.vnet.free_port(PROTO_UDP)
        sock = UDPSocket(
            self,
            owner,
            bind_addr,
            port,
            rcvbuf=rcvbuf,
            recv_cost=recv_cost,
            sliver=sliver if in_tap_space else None,
        )
        if in_tap_space:
            sliver.bind_udp(port, sock)
        else:
            self.vnet.reserve(PROTO_UDP, port, sock)
        return sock

    def unbind_udp(self, sock: UDPSocket) -> None:
        if sock.sliver is not None:
            sock.sliver.unbind_udp(sock.local_port, sock)
        else:
            self.vnet.release(PROTO_UDP, sock.local_port, sock)

    def raw_intercept(
        self,
        owner: Process,
        proto: int,
        port: int,
        handler: Callable[[Packet], None],
        recv_cost: Optional[Callable[[Packet], float]] = None,
    ) -> RawIntercept:
        """Reserve (proto, port) and deliver whole IP packets to ``handler``."""
        intercept = RawIntercept(self, owner, proto, port, handler, recv_cost)
        self.vnet.reserve(proto, port, intercept)
        return intercept

    def icmp_register(
        self, ident: int, callback: Callable, sliver_name: Optional[str] = None
    ) -> None:
        self._icmp_idents[(sliver_name, ident)] = callback

    def icmp_unregister(self, ident: int, sliver_name: Optional[str] = None) -> None:
        self._icmp_idents.pop((sliver_name, ident), None)

    def icmp_errors_to(self, callback: Callable[[Packet], None]) -> None:
        self._icmp_error_listeners.append(callback)

    def add_capture(self, callback: Callable[[Packet, str], None]) -> None:
        """Register a tcpdump-style packet tap.

        The callback sees every packet the kernel delivers locally
        (point ``"in"``) or emits (point ``"out"``), like a capture on
        the node's devices.
        """
        self._captures.append(callback)

    def remove_capture(self, callback: Callable[[Packet, str], None]) -> None:
        if callback in self._captures:
            self._captures.remove(callback)

    def _capture(self, packet: Packet, point: str) -> None:
        for callback in self._captures:
            callback(packet, point)

    # ------------------------------------------------------------------
    # Input path
    # ------------------------------------------------------------------
    def ip_input(self, iface: Interface, packet: Packet) -> None:
        """A packet arrived on a NIC; charge the kernel, then process."""
        if not self.alive:
            return
        cost = self.kernel_cost_fixed + self.kernel_cost_per_byte * packet.wire_len
        fr = self.sim.flight
        if fr.enabled and packet.span is not None:
            fr.stage(packet, "kernel.rx", node=self.name)
            self.kernel.exec_after(cost, self._ip_input, packet, iface,
                                   span_packet=packet)
        else:
            self.kernel.exec_after(cost, self._ip_input, packet, iface)

    def _ip_input(self, packet: Packet, iface: Optional[Interface]) -> None:
        header = packet.ip
        if header is None:
            return
        dst = int(header.dst)
        if dst in self._local_addrs:
            self._local_deliver(packet, sliver=None)
            return
        sliver = self._tap_addrs.get(dst)
        if sliver is not None:
            self._sliver_deliver(packet, sliver)
            return
        if self.ip_forwarding:
            self._forward(packet, iface)
            return
        self.sim.trace.log("kernel_drop", node=self.name, reason="not_local")
        fr = self.sim.flight
        if fr.enabled:
            fr.flight_drop(packet, "not_local", node=self.name)

    def _forward(self, packet: Packet, in_iface: Optional[Interface]) -> None:
        header = packet.ip
        if header.ttl <= 1:
            self._icmp_error(packet, ICMP_TIME_EXCEEDED)
            return
        found = self.routes.lookup_entry(header.dst)
        if found is None:
            self._icmp_error(packet, ICMP_DEST_UNREACHABLE)
            return
        trace = self.sim.trace
        if trace.wants("fwd"):
            trace.log("fwd", node=self.name, uid=packet.uid, ttl=header.ttl)
        packet.writable(IPv4Header).ttl -= 1
        self.forwarded += 1
        route: Route = found[1]
        route.interface.transmit(packet)

    # ------------------------------------------------------------------
    # Local delivery
    # ------------------------------------------------------------------
    def _local_deliver(self, packet: Packet, sliver: Optional["Sliver"]) -> None:  # noqa: F821
        if self._captures:
            self._capture(packet, "in")
        proto = packet.ip.proto
        if proto == PROTO_UDP:
            entry = self.vnet.lookup(PROTO_UDP, packet.udp.dport)
            if entry is not None:
                entry.enqueue(packet)
            else:
                self.sim.trace.log(
                    "kernel_drop", node=self.name, reason="udp_port_unreachable"
                )
        elif proto == PROTO_TCP:
            entry = self.vnet.lookup(PROTO_TCP, packet.tcp.dport)
            if isinstance(entry, RawIntercept):
                entry.enqueue(packet)
            elif self.tcp_stack is not None:
                self.tcp_stack.input(packet, sliver=None)
            else:
                self.sim.trace.log("kernel_drop", node=self.name, reason="no_tcp")
        elif proto == PROTO_ICMP:
            self._icmp_input(packet, sliver=None)
        else:
            self.sim.trace.log(
                "kernel_drop", node=self.name, reason=f"proto_{proto}"
            )

    def _sliver_deliver(self, packet: Packet, sliver: "Sliver") -> None:  # noqa: F821
        if self._captures:
            self._capture(packet, "in")
        proto = packet.ip.proto
        if proto == PROTO_UDP:
            sock = sliver.lookup_udp(packet.udp.dport)
            if sock is not None:
                sock.enqueue(packet)
            else:
                self.sim.trace.log(
                    "kernel_drop", node=self.name, reason="sliver_udp_unreachable"
                )
        elif proto == PROTO_TCP:
            if self.tcp_stack is not None:
                self.tcp_stack.input(packet, sliver=sliver)
            else:
                self.sim.trace.log("kernel_drop", node=self.name, reason="no_tcp")
        elif proto == PROTO_ICMP:
            self._icmp_input(packet, sliver=sliver)

    # ------------------------------------------------------------------
    # ICMP
    # ------------------------------------------------------------------
    def _icmp_input(self, packet: Packet, sliver: Optional["Sliver"]) -> None:  # noqa: F821
        icmp = packet.icmp
        if icmp is None:
            return
        if icmp.type == ICMP_ECHO_REQUEST:
            reply = Packet(
                headers=[
                    IPv4Header(packet.ip.dst, packet.ip.src, PROTO_ICMP),
                    ICMPHeader(ICMP_ECHO_REPLY, ident=icmp.ident, seq=icmp.seq),
                ],
                payload=packet.payload.copy(),
                created_at=self.sim.now,
            )
            # The reply continues the request's flight: carry the span
            # context across so the trace covers the full round trip.
            fr = self.sim.flight
            if fr.enabled and packet.span is not None:
                reply.span = packet.span
                fr.stage(reply, "host.echo", node=self.name)
                self.kernel.exec_after(
                    self.kernel_cost_fixed, self.ip_output, reply, sliver,
                    span_packet=reply,
                )
                return
            # Echo processing is cheap kernel work.
            self.kernel.exec_after(
                self.kernel_cost_fixed, self.ip_output, reply, sliver
            )
        elif icmp.type == ICMP_ECHO_REPLY:
            key = (sliver.slice.name if sliver else None, icmp.ident)
            callback = self._icmp_idents.get(key)
            if callback is not None:
                callback(packet)
        else:
            for listener in self._icmp_error_listeners:
                listener(packet)

    def _icmp_error(self, offending: Packet, icmp_type: int, code: int = 0) -> None:
        src = None
        for iface in self.interfaces.values():
            if iface.address is not None:
                src = iface.address
                break
        if src is None:
            return
        error = Packet(
            headers=[
                IPv4Header(src, offending.ip.src, PROTO_ICMP),
                ICMPHeader(icmp_type, code=code),
            ],
            payload=OpaquePayload(28, data=offending, tag="icmp-error"),
            created_at=self.sim.now,
        )
        self.sim.trace.log(
            "icmp_error", node=self.name, type=icmp_type, uid=offending.uid
        )
        self.kernel.exec_after(self.kernel_cost_fixed, self.ip_output, error, None)

    # ------------------------------------------------------------------
    # Output path
    # ------------------------------------------------------------------
    def ip_output(self, packet: Packet, sliver: Optional["Sliver"] = None) -> bool:  # noqa: F821
        """Route a locally generated packet.

        ``sliver`` gives the routing context: destinations inside the
        sliver's tap prefix go to the tap device (and from there into
        the slice's overlay), everything else uses the kernel table.
        """
        if not self.alive:
            return False
        if self._captures:
            self._capture(packet, "out")
        header = packet.ip
        dst = header.dst
        dst_int = int(dst)
        if dst_int in self._local_addrs:
            self._local_deliver(packet, sliver=None)
            return True
        if sliver is not None and sliver.tap is not None and dst in sliver.tap.route_prefix:
            if dst_int == int(sliver.tap.address):
                self._sliver_deliver(packet, sliver)
                return True
            return sliver.tap.to_reader(packet)
        owner = self._tap_addrs.get(dst_int)
        if owner is not None:
            self._sliver_deliver(packet, owner)
            return True
        found = self.routes.lookup_entry(dst)
        if found is None:
            self.sim.trace.log(
                "kernel_drop", node=self.name, reason="no_route", dst=str(dst)
            )
            fr = self.sim.flight
            if fr.enabled:
                fr.flight_drop(packet, "no_route", node=self.name)
            return False
        route: Route = found[1]
        if header.src == 0 and route.interface.address is not None:
            packet.writable(IPv4Header).src = route.interface.address
        return route.interface.transmit(packet)

    def tap_input(self, tap: TapDevice, packet: Packet) -> None:
        """A packet written to a tap device by its user-space reader."""
        if not self.alive:
            return
        dst = packet.ip.dst
        if int(dst) == int(tap.address) or (
            int(dst) in self._tap_addrs and self._tap_addrs[int(dst)] is tap.sliver
        ):
            self._sliver_deliver(packet, tap.sliver)
        else:
            # Not for the tap itself: hand to the kernel with NO sliver
            # context (otherwise it would bounce straight back to the
            # tap and loop).
            self._ip_input(packet, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PhysicalNode {self.name} ifaces={list(self.interfaces)}>"


def connect(
    sim: Simulator,
    a: PhysicalNode,
    b: PhysicalNode,
    bandwidth: float = 1_000_000_000,
    delay: float = 0.0,
    subnet: Optional[Union[str, Prefix]] = None,
    queue_bytes: int = 128 * 1024,
) -> Link:
    """Wire two nodes together with a new link.

    If ``subnet`` is given, the two new interfaces are numbered from its
    first two host addresses (a /30 or /31 in practice).
    """
    index_a = len(a.interfaces)
    index_b = len(b.interfaces)
    iface_a = a.add_interface(f"eth{index_a}")
    iface_b = b.add_interface(f"eth{index_b}")
    link = Link(sim, bandwidth=bandwidth, delay=delay, queue_bytes=queue_bytes)
    iface_a.attach(link)
    iface_b.attach(link)
    if subnet is not None:
        block = prefix(subnet)
        hosts = list(block.hosts())
        if len(hosts) < 2:
            raise ValueError(f"subnet {block} too small for a point-to-point link")
        iface_a.configure(hosts[0], block.plen)
        iface_b.configure(hosts[1], block.plen)
    return link
