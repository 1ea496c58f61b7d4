"""VNET: per-node network isolation and port multiplexing.

PlanetLab's VNET module "tracks and multiplexes incoming and outgoing
traffic [and] provides each slice with the illusion of root-level access
to the underlying network device. Each slice has access only to its own
traffic and may reserve specific ports" (Section 4.1.1). This module is
the reproduction of that: the node's one endpoint table, mapping
(scope, protocol, port) to the UDP socket, TCP listener or raw intercept
entitled to that traffic. The scope is the address space: ``None`` for
the node's own addresses, a slice's name for the tap addresses of that
slice, so two slices may hold the same port on their own taps.
Conflicting reservations in one scope are refused — the isolation the
paper needs for simultaneous experiments (Section 3.4).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.packet import PROTO_TCP, PROTO_UDP

#: The ephemeral port range the kernel allocates from.
EPHEMERAL_START = 32768
EPHEMERAL_END = 61000


class PortConflictError(ValueError):
    """Another endpoint already holds this port in this address space."""


class VNet:
    """The endpoint table of one physical node."""

    def __init__(self, node: "PhysicalNode"):  # noqa: F821
        self.node = node
        # (scope, proto, port) -> socket-like (UDPSocket, Listener, RawIntercept)
        self._table: Dict[Tuple[Optional[str], int, int], object] = {}
        # Node-scope ports promised to a future bind (tunnel endpoints
        # are numbered at topology-build time, before their sockets exist).
        self._preallocated: set = set()

    # ------------------------------------------------------------------
    def _owner_slice(self, entry: object) -> Optional[str]:
        sliver = entry.owner.sliver
        return sliver.slice.name if sliver is not None else None

    def reserve(self, proto: int, port: int, entry: object, scope: Optional[str] = None) -> None:
        """Reserve (scope, proto, port) for ``entry``; raise on conflict."""
        if not 0 < port < 65536:
            raise ValueError(f"port out of range: {port}")
        key = (scope, proto, port)
        existing = self._table.get(key)
        if existing is not None:
            raise PortConflictError(
                f"{self.node.name}: {_proto_name(proto)} port {port} already "
                f"reserved by slice {self._owner_slice(existing)!r}"
            )
        self._table[key] = entry

    def release(self, proto: int, port: int, entry: object, scope: Optional[str] = None) -> None:
        key = (scope, proto, port)
        if self._table.get(key) is entry:
            del self._table[key]

    def lookup(self, proto: int, port: int, scope: Optional[str] = None) -> Optional[object]:
        return self._table.get((scope, proto, port))

    def free_port(self, proto: int, scope: Optional[str] = None) -> int:
        """First unreserved ephemeral port in ``scope``.

        Preallocated ports are node-scope numbers, skipped only there.
        """
        for port in range(EPHEMERAL_START, EPHEMERAL_END):
            if (scope, proto, port) not in self._table and (
                scope is not None or (proto, port) not in self._preallocated
            ):
                return port
        raise PortConflictError(f"{self.node.name}: ephemeral {_proto_name(proto)} ports exhausted")

    def preallocate(self, proto: int, start: int = 33000) -> int:
        """Reserve a node-scope port number for a future bind on this node.

        Used when port numbers must be exchanged before sockets exist
        (both ends of a UDP tunnel are configured with each other's
        port at topology-build time). The returned port is skipped by
        :meth:`free_port` and by later preallocations, node-wide —
        which is what keeps two experiments' tunnels from colliding.
        """
        for port in range(start, EPHEMERAL_END):
            key = (proto, port)
            if (None, proto, port) not in self._table and key not in self._preallocated:
                self._preallocated.add(key)
                return port
        raise PortConflictError(
            f"{self.node.name}: no {_proto_name(proto)} port free for preallocation"
        )


def _proto_name(proto: int) -> str:
    return {PROTO_UDP: "udp", PROTO_TCP: "tcp"}.get(proto, str(proto))
