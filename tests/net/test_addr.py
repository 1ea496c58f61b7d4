"""Unit tests for IPv4 addresses and prefixes."""

import pytest

from repro.net import IPv4Address, Prefix, ip, prefix
from repro.net.addr import DEFAULT_ROUTE, mask_of


class TestIPv4Address:
    def test_parse_and_str_roundtrip(self):
        addr = ip("198.32.154.250")
        assert str(addr) == "198.32.154.250"
        assert int(addr) == (198 << 24) | (32 << 16) | (154 << 8) | 250

    def test_from_int(self):
        assert str(ip(0x0A000001)) == "10.0.0.1"

    def test_invalid_strings(self):
        for bad in ("10.0.0", "10.0.0.0.1", "10.0.0.256", "a.b.c.d", ""):
            with pytest.raises(ValueError):
                ip(bad)

    def test_out_of_range_int(self):
        with pytest.raises(ValueError):
            IPv4Address(2**32)
        with pytest.raises(ValueError):
            IPv4Address(-1)

    def test_ordering_and_hash(self):
        a, b = ip("10.0.0.1"), ip("10.0.0.2")
        assert a < b
        assert len({a, ip("10.0.0.1")}) == 1

    def test_arithmetic_stays_typed(self):
        addr = ip("10.0.0.1") + 5
        assert isinstance(addr, IPv4Address)
        assert str(addr) == "10.0.0.6"
        assert ip("10.0.0.6") - ip("10.0.0.1") == 5

    def test_private_detection(self):
        assert ip("10.1.2.3").is_private
        assert ip("172.16.0.1").is_private
        assert ip("172.31.255.255").is_private
        assert not ip("172.32.0.1").is_private
        assert ip("192.168.1.1").is_private
        assert not ip("198.32.154.250").is_private

    def test_loopback_and_multicast(self):
        assert ip("127.0.0.1").is_loopback
        assert ip("224.0.0.5").is_multicast
        assert not ip("10.0.0.1").is_multicast


class TestPrefix:
    def test_parse(self):
        pfx = prefix("10.1.0.0/16")
        assert str(pfx) == "10.1.0.0/16"
        assert pfx.plen == 16

    def test_parse_bare_address_is_host_route(self):
        assert prefix("10.0.0.1").plen == 32

    def test_network_is_masked(self):
        assert str(Prefix("10.1.2.3", 16)) == "10.1.0.0/16"

    def test_prefixes_sort_by_network_then_length(self):
        unsorted = [prefix("10.1.0.0/16"), prefix("10.0.0.0/16"), prefix("10.0.0.0/8")]
        assert [str(p) for p in sorted(unsorted)] == [
            "10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16"]

    def test_contains_address(self):
        pfx = prefix("10.0.0.0/8")
        assert ip("10.255.0.1") in pfx
        assert "10.0.0.1" in pfx
        assert ip("11.0.0.1") not in pfx

    def test_contains_prefix(self):
        assert prefix("10.1.0.0/16") in prefix("10.0.0.0/8")
        assert prefix("10.0.0.0/8") not in prefix("10.1.0.0/16")

    def test_overlaps(self):
        assert prefix("10.0.0.0/8").overlaps(prefix("10.1.0.0/16"))
        assert prefix("10.1.0.0/16").overlaps(prefix("10.0.0.0/8"))
        assert not prefix("10.0.0.0/8").overlaps(prefix("11.0.0.0/8"))

    def test_default_route_contains_everything(self):
        assert ip("1.2.3.4") in DEFAULT_ROUTE
        assert prefix("10.0.0.0/8") in DEFAULT_ROUTE

    def test_hosts_p30(self):
        hosts = list(prefix("10.1.1.0/30").hosts())
        assert [str(h) for h in hosts] == ["10.1.1.1", "10.1.1.2"]

    def test_hosts_p31_point_to_point(self):
        hosts = list(prefix("10.1.1.0/31").hosts())
        assert [str(h) for h in hosts] == ["10.1.1.0", "10.1.1.1"]

    def test_host_index(self):
        assert str(prefix("10.1.1.0/24").host(5)) == "10.1.1.5"
        with pytest.raises(ValueError):
            prefix("10.1.1.0/30").host(4)

    def test_subnets(self):
        subs = list(prefix("10.0.0.0/14").subnets(16))
        assert [str(s) for s in subs] == [
            "10.0.0.0/16",
            "10.1.0.0/16",
            "10.2.0.0/16",
            "10.3.0.0/16",
        ]
        with pytest.raises(ValueError):
            list(prefix("10.0.0.0/16").subnets(8))

    def test_broadcast_and_netmask(self):
        pfx = prefix("10.1.1.0/24")
        assert str(pfx.broadcast) == "10.1.1.255"
        assert str(pfx.netmask) == "255.255.255.0"

    def test_equality_and_hash(self):
        assert prefix("10.0.0.0/8") == Prefix("10.3.2.1", 8)
        assert len({prefix("10.0.0.0/8"), Prefix("10.1.0.0", 8)}) == 1

    def test_mask_of_bounds(self):
        assert mask_of(0) == 0
        assert mask_of(32) == 0xFFFFFFFF
        with pytest.raises(ValueError):
            mask_of(33)

    def test_malformed_prefix(self):
        with pytest.raises(ValueError):
            prefix("10.0.0.0/abc")
