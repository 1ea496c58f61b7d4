"""TCP Reno over the simulated kernel stack.

The paper's traffic experiments are iperf TCP transfers; reproducing
Figure 9 requires a real congestion-controlled TCP: slow start,
congestion avoidance, fast retransmit/recovery, an RTO with Jacobson
estimation and Karn's rule, exponential backoff during outages, and the
receiver-window limit that caps the paper's Fig. 9 transfer at ~3 Mb/s
(16 KB default iperf window).

Segments are :class:`~repro.net.packet.Packet` objects carrying opaque
payload lengths; sequence numbers are byte-accurate, so a tcpdump trace
of segment arrivals reproduces the paper's byte-position plot of
slow-start restart (Fig. 9b).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from repro.net.addr import IPv4Address, ip
from repro.net.packet import (
    IPv4Header,
    OpaquePayload,
    Packet,
    PROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_SYN,
    TCPHeader,
)
from repro.phys.process import Process
from repro.phys.vnet import EPHEMERAL_START

MSS = 1448  # bytes of payload per segment (Linux-typical with timestamps)
INITIAL_CWND_SEGMENTS = 2
MIN_RTO = 0.2  # Linux's TCP_RTO_MIN
MAX_RTO = 60.0
DEFAULT_RCVBUF = 16 * 1024  # iperf 1.7 default window (paper, Section 5.2)
SEGMENT_PROC_COST = 5.0e-6

# Connection states (simplified subset of RFC 793)
CLOSED = "CLOSED"
LISTEN = "LISTEN"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT = "FIN_WAIT"
CLOSE_WAIT = "CLOSE_WAIT"
CLOSING = "CLOSING"


class TCPStack:
    """Per-node TCP: demultiplexes segments to connections/listeners."""

    def __init__(self, node: "PhysicalNode"):  # noqa: F821
        self.node = node
        node.tcp_stack = self
        # (scope, laddr, lport, raddr, rport) -> TCPConnection; listeners
        # live in the node's VNET table under (scope, PROTO_TCP, port).
        self._connections: Dict[Tuple, "TCPConnection"] = {}
        # Node-level totals: survive individual connections closing and
        # back pull metrics (per-connection counters would churn labels).
        self.total_retransmits = 0
        self.total_timeouts = 0
        self.total_bytes_received = 0
        metrics = node.sim.metrics
        metrics.counter(
            "tcp.retransmits", fn=lambda: self.total_retransmits, node=node.name
        )
        metrics.counter(
            "tcp.timeouts", fn=lambda: self.total_timeouts, node=node.name
        )
        metrics.counter(
            "tcp.bytes_received",
            fn=lambda: self.total_bytes_received,
            node=node.name,
        )

    @staticmethod
    def of(node: "PhysicalNode") -> "TCPStack":  # noqa: F821
        """The node's stack, created on first use."""
        return node.tcp_stack if node.tcp_stack is not None else TCPStack(node)

    # ------------------------------------------------------------------
    def listen(
        self,
        owner: Process,
        port: int,
        local_addr: Optional[Union[str, IPv4Address]] = None,
        on_accept: Optional[Callable[["TCPConnection"], None]] = None,
        rcvbuf: int = DEFAULT_RCVBUF,
    ) -> "Listener":
        """Listen on ``port`` in the VNET address space of the bound address."""
        bind_addr = ip(local_addr) if local_addr is not None else self.node.address
        scope = self.node.endpoint_scope(owner, bind_addr)
        listener = Listener(self, owner, port, scope, on_accept, rcvbuf)
        self.node.vnet.reserve(PROTO_TCP, port, listener, scope)
        return listener

    def connect(
        self,
        owner: Process,
        remote_addr: Union[str, IPv4Address],
        remote_port: int,
        local_addr: Optional[Union[str, IPv4Address]] = None,
        rcvbuf: int = DEFAULT_RCVBUF,
    ) -> "TCPConnection":
        """Open a connection; a remote in the owner's tap prefix puts it
        in the slice's address space, sourced from the tap address."""
        remote = ip(remote_addr)
        scope = self.node.endpoint_scope(owner, remote)
        if local_addr is not None:
            laddr = ip(local_addr)
        elif scope is not None:
            laddr = owner.sliver.tap.address
        else:
            laddr = self.node.address
        conn = TCPConnection(
            self, owner, laddr, self._free_port(scope), remote, remote_port, scope,
            rcvbuf=rcvbuf,
        )
        self._register(conn)
        conn._start_connect()
        return conn

    def _free_port(self, scope: Optional[str]) -> int:
        """An ephemeral local port that no connection and no VNET entry
        of ``scope`` holds."""
        used = {key[2] for key in self._connections if key[0] == scope}
        port = EPHEMERAL_START
        while port in used or self.node.vnet.lookup(PROTO_TCP, port, scope) is not None:
            port += 1
        return port

    def _register(self, conn: "TCPConnection") -> None:
        key = conn.key
        if key in self._connections:
            raise ValueError(f"duplicate TCP connection {key}")
        self._connections[key] = conn

    def _unregister(self, conn: "TCPConnection") -> None:
        self._connections.pop(conn.key, None)

    # ------------------------------------------------------------------
    def input(self, packet: Packet, scope: Optional[str]) -> None:
        """A TCP segment reached one of this node's addresses in ``scope``."""
        header = packet.ip
        tcp = packet.tcp
        key = (scope, int(header.dst), tcp.dport, int(header.src), tcp.sport)
        conn = self._connections.get(key)
        if conn is not None:
            conn._enqueue_segment(packet)
            return
        listener = self.node.vnet.lookup(PROTO_TCP, tcp.dport, scope)
        if listener is not None and tcp.syn and not tcp.ack_flag:
            listener._accept_syn(packet)
            return
        self.node.sim.trace.drop(packet, "no_connection", self.node.name)


class Listener:
    """A passive TCP endpoint accepting connections on one port."""

    def __init__(self, stack, owner, port, scope, on_accept, rcvbuf):
        self.stack = stack
        self.owner = owner
        self.port = port
        self.scope = scope
        self.on_accept = on_accept
        self.rcvbuf = rcvbuf
        self.accepted = []

    def _accept_syn(self, packet: Packet) -> None:
        conn = TCPConnection(
            self.stack,
            self.owner,
            packet.ip.dst,
            self.port,
            packet.ip.src,
            packet.tcp.sport,
            self.scope,
            rcvbuf=self.rcvbuf,
        )
        self.stack._register(conn)
        self.accepted.append(conn)
        conn._accept(packet)
        if self.on_accept is not None:
            self.on_accept(conn)

    def close(self) -> None:
        self.stack.node.vnet.release(PROTO_TCP, self.port, self, self.scope)


class TCPConnection:
    """One TCP connection endpoint (Reno congestion control)."""

    def __init__(
        self,
        stack: TCPStack,
        owner: Process,
        laddr: IPv4Address,
        lport: int,
        raddr: IPv4Address,
        rport: int,
        scope: Optional[str],
        rcvbuf: int = DEFAULT_RCVBUF,
    ):
        self.stack = stack
        self.node = stack.node
        self.sim = stack.node.sim
        self.laddr = ip(laddr)
        self.lport = lport
        self.raddr = ip(raddr)
        self.rport = rport
        self.scope = scope
        # Routing context of sends: the slice's tap in its address space.
        self.sliver = owner.sliver if scope is not None else None
        self.state = CLOSED
        # --- send side ---
        self.snd_una = 0  # oldest unacknowledged byte
        self.snd_nxt = 0  # next byte to send
        self.snd_buf = 0  # bytes the app has queued beyond snd_nxt
        self.snd_buf_limit = 256 * 1024
        self.cwnd = float(INITIAL_CWND_SEGMENTS * MSS)
        self.ssthresh = float(1 << 30)
        self.peer_rwnd = MSS
        self.dup_acks = 0
        self.in_recovery = False
        self.recover = 0
        # --- RTT estimation (Jacobson) ---
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = 1.0
        self._rtt_seq: Optional[int] = None
        self._rtt_start = 0.0
        self._rto_event = None
        self._rto_deadline: Optional[float] = None
        self._backoff = 1
        # --- receive side ---
        self.rcv_nxt = 0
        self.rcvbuf = rcvbuf
        self._ooo: Dict[int, int] = {}  # seq -> length of out-of-order data
        # Delayed ACKs (RFC 1122): ack every second in-order segment,
        # or after delack_timeout for a lone segment.
        self.delack_timeout = 0.040
        self._segs_unacked = 0
        self._delack_event = None
        self.bytes_received = 0
        self.fin_sent = False
        self.fin_received = False
        self._fin_pending = False
        self._close_notified = False
        # --- app callbacks ---
        self.on_connect: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[int], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_writable: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    @property
    def key(self) -> Tuple:
        return (self.scope, int(self.laddr), self.lport, int(self.raddr), self.rport)

    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    # ------------------------------------------------------------------
    # Segment construction / transmission
    # ------------------------------------------------------------------
    def _advertised_window(self) -> int:
        return max(0, min(self.rcvbuf, 65535))

    def _emit(
        self,
        seq: int,
        payload_len: int,
        flags: int,
        tag: str = "",
    ) -> None:
        segment = Packet(
            IPv4Header(self.laddr, self.raddr, PROTO_TCP),
            TCPHeader(
                self.lport,
                self.rport,
                seq=seq,
                ack=self.rcv_nxt,
                flags=flags,
                window=self._advertised_window(),
            ),
            payload=OpaquePayload(payload_len, tag=tag),
        )
        self.node.ip_output(segment, sliver=self.sliver)

    def _send_ack(self) -> None:
        self._segs_unacked = 0
        if self._delack_event is not None:
            self.sim.cancel(self._delack_event)
            self._delack_event = None
        self._emit(self.snd_nxt, 0, TCP_ACK)

    def _ack_in_order_data(self, payload_len: int = 0) -> None:
        """Delayed-ACK policy for in-order data segments.

        Acks every second full-sized segment; sub-MSS segments are
        acked immediately (quickack), which avoids the classic odd-
        window delayed-ACK stall for window-limited transfers.
        """
        self._segs_unacked += 1
        if self._segs_unacked >= 2 or (0 < payload_len < MSS):
            self._send_ack()
            return
        if self._delack_event is None:
            self._delack_event = self.sim.at(
                self.delack_timeout, self._delack_fire
            )

    def _delack_fire(self) -> None:
        self._delack_event = None
        if self._segs_unacked > 0 and self.state != CLOSED:
            self._send_ack()

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------
    def _start_connect(self) -> None:
        self.state = SYN_SENT
        self._emit(0, 0, TCP_SYN)
        self.snd_nxt = 1  # SYN occupies one sequence number
        self._arm_rto()

    def _accept(self, syn_packet: Packet) -> None:
        self.state = SYN_RCVD
        self.rcv_nxt = syn_packet.tcp.seq + 1
        self.peer_rwnd = syn_packet.tcp.window
        self._emit(0, 0, TCP_SYN | TCP_ACK)
        self.snd_nxt = 1
        self._arm_rto()

    # ------------------------------------------------------------------
    # App interface
    # ------------------------------------------------------------------
    def send(self, nbytes: int) -> int:
        """Queue application data; returns bytes accepted."""
        if self.state not in (ESTABLISHED, SYN_SENT, SYN_RCVD):
            return 0
        room = self.snd_buf_limit - self.snd_buf
        accepted = max(0, min(nbytes, room))
        self.snd_buf += accepted
        if self.state == ESTABLISHED:
            self._try_send()
        return accepted

    def close(self) -> None:
        """Half-close: send FIN once queued data has drained."""
        if self.state in (CLOSED,):
            return
        self._fin_pending = True
        self._try_send()

    # ------------------------------------------------------------------
    # Sending machinery
    # ------------------------------------------------------------------
    def _window(self) -> int:
        return int(min(self.cwnd, self.peer_rwnd))

    def _try_send(self) -> None:
        if self.state not in (ESTABLISHED, CLOSE_WAIT):
            return
        while self.snd_buf > 0 and self.flight_size < self._window():
            chunk = min(
                MSS,
                self.snd_buf,
                self._window() - self.flight_size,
            )
            if chunk <= 0:
                break
            seq = self.snd_nxt
            self._emit(seq, chunk, TCP_ACK, tag="data")
            self.snd_nxt += chunk
            self.snd_buf -= chunk
            if self._rtt_seq is None:
                self._rtt_seq = self.snd_nxt
                self._rtt_start = self.sim.now
            if self._rto_event is None:
                self._arm_rto()
        if (
            self._fin_pending
            and not self.fin_sent
            and self.snd_buf == 0
            and self.flight_size == 0
        ):
            self.fin_sent = True
            self._emit(self.snd_nxt, 0, TCP_FIN | TCP_ACK)
            self.snd_nxt += 1
            self.state = CLOSING if self.fin_received else FIN_WAIT
            self._arm_rto()

    # ------------------------------------------------------------------
    # RTO management
    # ------------------------------------------------------------------
    # The deadline is restarted on every ACK, which would churn one
    # simulator event per segment; instead the event fires lazily and
    # re-arms itself if the deadline has moved (a standard DES trick).
    def _arm_rto(self) -> None:
        self._rto_deadline = self.sim.now + min(self.rto * self._backoff, MAX_RTO)
        if self._rto_event is None:
            self._rto_event = self.sim.schedule(self._rto_deadline, self._on_rto)
        elif self._rto_event[0] > self._rto_deadline:
            # Deadline moved earlier (e.g. backoff reset after an ACK):
            # the pending event is too late, replace it.
            self.sim.cancel(self._rto_event)
            self._rto_event = self.sim.schedule(self._rto_deadline, self._on_rto)

    def _cancel_rto(self) -> None:
        self._rto_deadline = None
        if self._rto_event is not None:
            self.sim.cancel(self._rto_event)
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.state == CLOSED or self._rto_deadline is None:
            return
        if self.sim.now < self._rto_deadline - 1e-12:
            # Deadline was pushed out by intervening ACKs; sleep on.
            self._rto_event = self.sim.schedule(self._rto_deadline, self._on_rto)
            return
        self.stack.total_timeouts += 1
        self._backoff = min(self._backoff * 2, 64)
        self.sim.trace.log(
            "tcp_timeout",
            node=self.node.name,
            conn=f"{self.laddr}:{self.lport}->{self.raddr}:{self.rport}",
            backoff=self._backoff,
        )
        if self.state == SYN_SENT:
            self._emit(0, 0, TCP_SYN)
            self._arm_rto()
            return
        if self.state == SYN_RCVD:
            self._emit(0, 0, TCP_SYN | TCP_ACK)
            self._arm_rto()
            return
        # Timeout: collapse to slow start (this is the mechanism behind
        # Fig. 9's stall-and-restart during the routing outage).
        self.ssthresh = max(self.flight_size / 2.0, 2.0 * MSS)
        self.cwnd = float(MSS)
        self.dup_acks = 0
        self.in_recovery = False
        self._rtt_seq = None  # Karn: do not time retransmitted segments
        self._retransmit_one()
        self._arm_rto()

    def _retransmit_one(self) -> None:
        if self.fin_sent and self.snd_una == self.snd_nxt - 1:
            self._emit(self.snd_una, 0, TCP_FIN | TCP_ACK)
            self.stack.total_retransmits += 1
            return
        chunk = min(MSS, self.snd_nxt - self.snd_una)
        if chunk <= 0:
            return
        self.stack.total_retransmits += 1
        self._emit(self.snd_una, chunk, TCP_ACK, tag="retransmit")

    # ------------------------------------------------------------------
    # Receive machinery
    # ------------------------------------------------------------------
    def _enqueue_segment(self, packet: Packet) -> None:
        """Charge segment processing to the kernel, then handle it.

        TCP input runs in softirq context on real Linux — it is not
        subject to the owning process's scheduling, which is why the
        paper's "Network" baseline stays fast on loaded PlanetLab
        nodes while user-space Click starves.
        """
        self.node.kernel.exec_after(SEGMENT_PROC_COST, self._segment, packet, packet=packet)

    def _segment(self, packet: Packet) -> None:
        if self.state == CLOSED:
            return
        tcp = packet.tcp
        self.peer_rwnd = max(tcp.window, 1)
        if tcp.syn and tcp.ack_flag and self.state == SYN_SENT:
            self.rcv_nxt = tcp.seq + 1
            self.state = ESTABLISHED
            self.snd_una = 1
            self._backoff = 1
            self._cancel_rto()
            self._send_ack()
            if self.on_connect is not None:
                self.on_connect()
            self._try_send()
            return
        if tcp.syn and not tcp.ack_flag:
            # Duplicate SYN of an accepted connection: re-ack it.
            self._emit(0, 0, TCP_SYN | TCP_ACK)
            return
        if tcp.ack_flag:
            self._handle_ack(tcp)
        if self.state == SYN_RCVD and tcp.ack_flag and tcp.ack >= 1:
            self.state = ESTABLISHED
            self._backoff = 1
            self._cancel_rto()
            if self.on_connect is not None:
                self.on_connect()
        payload_len = packet.payload.size
        if payload_len > 0:
            fr = self.sim.flight
            if fr.enabled and packet.span is not None:
                # A sampled data segment: its flight ends on delivery
                # to the receiving connection.
                fr.flight_end(packet)
            self._handle_data(tcp.seq, payload_len)
        if tcp.fin:
            self._handle_fin(tcp)

    def _handle_ack(self, tcp: TCPHeader) -> None:
        ack = tcp.ack
        if ack > self.snd_una:
            newly_acked = ack - self.snd_una
            self.snd_una = ack
            self.dup_acks = 0
            self._backoff = 1
            # RTT sample (Karn-safe: only the timed, untouched sequence).
            if self._rtt_seq is not None and ack >= self._rtt_seq:
                self._rtt_sample(self.sim.now - self._rtt_start)
                self._rtt_seq = None
            if self.in_recovery:
                if ack >= self.recover:
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # Partial ack: retransmit next hole (NewReno flavor).
                    self._retransmit_one()
            else:
                if self.cwnd < self.ssthresh:
                    self.cwnd += min(newly_acked, MSS)  # slow start
                else:
                    self.cwnd += MSS * MSS / self.cwnd  # AIMD
            if self.snd_una == self.snd_nxt:
                self._cancel_rto()
                if self.fin_sent and self.fin_received:
                    self._teardown()
                    return
            else:
                self._arm_rto()
            self._try_send()
            if self.on_writable is not None and self.snd_buf < self.snd_buf_limit:
                self.on_writable()
        elif ack == self.snd_una and self.flight_size > 0:
            self.dup_acks += 1
            if self.dup_acks == 3 and not self.in_recovery:
                # Fast retransmit + fast recovery.
                self.in_recovery = True
                self.recover = self.snd_nxt
                self.ssthresh = max(self.flight_size / 2.0, 2.0 * MSS)
                self.cwnd = self.ssthresh + 3 * MSS
                self._retransmit_one()
            elif self.in_recovery:
                self.cwnd += MSS  # window inflation
                self._try_send()

    def _rtt_sample(self, rtt: float) -> None:
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        # Linux semantics: the variance term is floored at TCP_RTO_MIN,
        # so rto ~= srtt + 200ms on low-variance paths. (This is what
        # puts the paper's post-outage retransmission near t=18 rather
        # than a plain-RFC backoff schedule's t=22.)
        self.rto = max(
            MIN_RTO, min(self.srtt + max(4.0 * self.rttvar, MIN_RTO), MAX_RTO)
        )

    def _handle_data(self, seq: int, length: int) -> None:
        segment_len = length
        if seq > self.rcv_nxt:
            self._ooo[seq] = max(self._ooo.get(seq, 0), length)
            self._send_ack()  # duplicate ack signals the hole
            return
        end = seq + length
        if end <= self.rcv_nxt:
            self._send_ack()  # duplicate segment
            return
        delivered = end - self.rcv_nxt
        self.rcv_nxt = end
        self.bytes_received += delivered
        self.stack.total_bytes_received += delivered
        # Pull any out-of-order data that is now contiguous.
        filled_hole = False
        while self.rcv_nxt in self._ooo:
            length = self._ooo.pop(self.rcv_nxt)
            self.rcv_nxt += length
            self.bytes_received += length
            self.stack.total_bytes_received += length
            delivered += length
            filled_hole = True
        if filled_hole:
            self._send_ack()  # ack immediately after loss recovery
        else:
            self._ack_in_order_data(segment_len)
        if self.on_data is not None:
            self.on_data(delivered)

    def _handle_fin(self, tcp: TCPHeader) -> None:
        if tcp.seq > self.rcv_nxt:
            return  # FIN beyond a hole; wait for retransmission
        if not self.fin_received:
            self.fin_received = True
            self.rcv_nxt = max(self.rcv_nxt, tcp.seq + 1)
        self._send_ack()
        if self.state == FIN_WAIT or self.fin_sent:
            self._teardown()
        else:
            self.state = CLOSE_WAIT
            self._notify_close()

    def _notify_close(self) -> None:
        if not self._close_notified and self.on_close is not None:
            self._close_notified = True
            self.on_close()

    def _teardown(self) -> None:
        if self.state == CLOSED:
            return
        self.state = CLOSED
        self._cancel_rto()
        self.stack._unregister(self)
        self._notify_close()

    def abort(self) -> None:
        """Drop the connection without the FIN handshake."""
        self._teardown()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TCP {self.laddr}:{self.lport} -> {self.raddr}:{self.rport} "
            f"{self.state} cwnd={self.cwnd / MSS:.1f}seg>"
        )
