"""Golden dispatch stream: the CPU scheduler's elections are pinned
across commits, not only against the in-file oracle of
``test_cpu_property.py``.

Table 4's world (``build_planetlab``: Chicago--NY--Washington, IIAS in
a slice, seven heavy-tailed hogs per node) runs under both
configurations (``plvini``: 25 % reservation + RT priority;
``planetlab``: default fair share) with a short iperf through the
overlay, and every dispatch on every node is serialized as
``(now, cpu, process, cost)``. The sha256 constants were
recorded at commit a609d73, *before* the election became a single pass
over an incrementally kept ready set, so a rewrite that reorders ties
or decays a usage average at a different instant cannot pass.
"""

import hashlib

import pytest

from repro.phys.cpu import CPUScheduler
from repro.tools import IperfTCPClient, IperfTCPServer
from repro.topologies import PLANETLAB_CONFIGS, build_planetlab

WARMUP = 11.0  # OSPF (hello 5 s) is up and the overlay forwards
DURATION = 0.25


def _on_cpu(cpu):
    """(identity token, process, cost) of the chunk on ``cpu``, or None."""
    if cpu._running is None:
        return None
    return cpu._event, cpu._running, cpu._cost


def _dispatch_stream(monkeypatch, config: str, seed: int) -> str:
    lines = []
    dispatch = CPUScheduler._dispatch

    def recording(cpu):
        before = _on_cpu(cpu)
        dispatch(cpu)
        after = _on_cpu(cpu)
        if after is not None and (before is None or after[0] is not before[0]):
            lines.append(
                f"{cpu.sim.now!r} {cpu.name} {after[1].name} {after[2]!r}")

    monkeypatch.setattr(CPUScheduler, "_dispatch", recording)
    vini, exp = build_planetlab(seed, warmup=WARMUP, **PLANETLAB_CONFIGS[config])
    src = exp.network.nodes["chicago"]
    dst = exp.network.nodes["washington"]
    server = IperfTCPServer(dst.phys_node, sliver=dst.sliver)
    IperfTCPClient(
        src.phys_node, dst.tap_addr, sliver=src.sliver, streams=4,
        duration=DURATION, server=server,
    ).start()
    vini.run(until=WARMUP + DURATION + 0.25)
    assert server.bytes_received > 0
    return "\n".join(lines)


# sha256 of the dispatch stream, recorded at commit a609d73 (the last
# one whose election rescanned every process). Re-record only for a
# deliberate, documented change of scheduling order.
GOLDEN_SHA256 = {
    ("plvini", 0):
        "88188dd7e0bf5a07744813da1ea1067a27bca784e0f4c595c35deef7e8115b76",
    ("plvini", 7):
        "1bc8fd35ccb11aa050a47e44442e42accb17865a98ad25ef46fa2661f63c6780",
    ("planetlab", 0):
        "fc328b115e51196f166b25a03c0912d77c49a4943e3de10559e0c71c150fe925",
    ("planetlab", 7):
        "76719f0ee6b8add058b0462227e0b9321aed63c23db0cc3f28486ddbb06a7499",
}


@pytest.mark.parametrize("config,seed", sorted(GOLDEN_SHA256))
def test_dispatch_stream_matches_recorded_hash(monkeypatch, config, seed):
    stream = _dispatch_stream(monkeypatch, config, seed)
    digest = hashlib.sha256(stream.encode()).hexdigest()
    assert digest == GOLDEN_SHA256[(config, seed)]
