"""IPv4 addresses and prefixes.

``IPv4Address`` is an ``int`` subclass: hashable, totally ordered, and
cheap enough for the per-packet hot path, while printing in dotted-quad
form. ``Prefix`` is a (network, length) pair with containment tests and
subnet arithmetic — enough to number virtual links from common subnets
the way PL-VINI does (Section 4.1.3).
"""

from __future__ import annotations

from typing import Iterator, Tuple, Union

_MAX = 0xFFFFFFFF


class IPv4Address(int):
    """A 32-bit IPv4 address."""

    __slots__ = ()

    def __new__(cls, value: Union[int, str, "IPv4Address"]) -> "IPv4Address":
        if isinstance(value, str):
            value = _parse_dotted(value)
        if not 0 <= value <= _MAX:
            raise ValueError(f"IPv4 address out of range: {value!r}")
        return super().__new__(cls, value)

    def __str__(self) -> str:
        v = int(self)
        return f"{v >> 24}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    def __add__(self, other: int) -> "IPv4Address":
        return IPv4Address(int(self) + int(other))

    def __sub__(self, other: int):
        result = int(self) - int(other)
        if isinstance(other, IPv4Address):
            return result
        return IPv4Address(result)

    @property
    def is_private(self) -> bool:
        """True for RFC 1918 space (PL-VINI overlays live in 10/8)."""
        v = int(self)
        return (
            (v >> 24) == 10
            or (v >> 20) == (172 << 4 | 1)  # 172.16.0.0/12
            or (v >> 16) == (192 << 8 | 168)  # 192.168.0.0/16
        )

    @property
    def is_loopback(self) -> bool:
        return (int(self) >> 24) == 127

    @property
    def is_multicast(self) -> bool:
        return 224 <= (int(self) >> 24) <= 239

    def to_bytes4(self) -> bytes:
        return int(self).to_bytes(4, "big")

    @classmethod
    def from_bytes4(cls, data: bytes) -> "IPv4Address":
        if len(data) != 4:
            raise ValueError(f"need exactly 4 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))


def _parse_dotted(text: str) -> int:
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"malformed IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def ip(value: Union[int, str, IPv4Address]) -> IPv4Address:
    """Shorthand constructor: ``ip('10.0.0.1')``."""
    return value if type(value) is IPv4Address else IPv4Address(value)


ANY = IPv4Address(0)
BROADCAST = IPv4Address(_MAX)
ALL_OSPF_ROUTERS = IPv4Address("224.0.0.5")
ALL_RIP_ROUTERS = IPv4Address("224.0.0.9")


# One int object per prefix length, shared by every Prefix and trie node.
MASKS = tuple((_MAX << (32 - plen)) & _MAX for plen in range(33))


def mask_of(plen: int) -> int:
    """Network mask for a prefix length, as an int."""
    if not 0 <= plen <= 32:
        raise ValueError(f"prefix length out of range: {plen}")
    return MASKS[plen]


class Prefix:
    """An IPv4 prefix (CIDR block)."""

    __slots__ = ("network", "plen", "mask")

    def __init__(self, network: Union[int, str, IPv4Address], plen: int):
        self.mask = mask_of(plen)
        self.network = IPv4Address(ip(network) & self.mask)
        self.plen = plen

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``'10.1.0.0/16'`` (a bare address means /32)."""
        if "/" in text:
            addr, _, plen_text = text.partition("/")
            if not plen_text.isdigit():
                raise ValueError(f"malformed prefix: {text!r}")
            return cls(addr, int(plen_text))
        return cls(text, 32)

    @property
    def netmask(self) -> IPv4Address:
        return IPv4Address(self.mask)

    @property
    def broadcast(self) -> IPv4Address:
        return IPv4Address(int(self.network) | (~self.mask & _MAX))

    def __contains__(self, item: Union[int, str, IPv4Address, "Prefix"]) -> bool:
        if isinstance(item, Prefix):
            return item.plen >= self.plen and (item.network & self.mask) == self.network
        return (ip(item) & self.mask) == self.network

    def overlaps(self, other: "Prefix") -> bool:
        return other in self or self in other

    def hosts(self) -> Iterator[IPv4Address]:
        """Usable host addresses (excludes network/broadcast for plen<31)."""
        base = int(self.network)
        if self.plen >= 31:
            for offset in range(2 ** (32 - self.plen)):
                yield IPv4Address(base + offset)
            return
        for offset in range(1, 2 ** (32 - self.plen) - 1):
            yield IPv4Address(base + offset)

    def host(self, index: int) -> IPv4Address:
        """The ``index``-th address in the block (0 = network address)."""
        if index >= 2 ** (32 - self.plen):
            raise ValueError(f"host index {index} outside {self}")
        return IPv4Address(int(self.network) + index)

    def subnets(self, new_plen: int) -> Iterator["Prefix"]:
        """Split into subnets of length ``new_plen``."""
        if new_plen < self.plen:
            raise ValueError(f"cannot split /{self.plen} into /{new_plen}")
        step = 2 ** (32 - new_plen)
        for base in range(
            int(self.network), int(self.network) + 2 ** (32 - self.plen), step
        ):
            yield Prefix(base, new_plen)

    @property
    def key(self) -> Tuple[int, int]:
        return (int(self.network), self.plen)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Prefix) and self.key == other.key

    def __lt__(self, other: "Prefix") -> bool:
        return self.key < other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        return f"{self.network}/{self.plen}"

    def __repr__(self) -> str:
        return f"Prefix.parse('{self}')"


def prefix(text: Union[str, Prefix]) -> Prefix:
    """Shorthand constructor: ``prefix('10.0.0.0/8')``."""
    return text if isinstance(text, Prefix) else Prefix.parse(text)


DEFAULT_ROUTE = Prefix(0, 0)
