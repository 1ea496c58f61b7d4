"""Golden dispatch stream: the CPU scheduler's elections are pinned
across commits, not only against the in-file oracle of
``test_cpu_property.py``.

Table 4's world (``build_planetlab``: Chicago--NY--Washington, IIAS in
a slice, seven heavy-tailed hogs per node) runs under both
configurations (``plvini``: 25 % reservation + RT priority;
``planetlab``: default fair share) with a short iperf through the
overlay, and every chunk put on a CPU (``CPUScheduler._run``) is
serialized as ``(start, cpu, process, cost)``, in the order the engine
started them. The sha256 constants were
recorded at commit a609d73, *before* the election became a single pass
over an incrementally kept ready set, so a rewrite that reorders ties
or decays a usage average at a different instant cannot pass.
"""

import functools
import hashlib
import math

import pytest

from repro.phys.cpu import CPUScheduler
from repro.tools import IperfTCPClient, IperfTCPServer
from repro.topologies import PLANETLAB_CONFIGS, build_planetlab

WARMUP = 11.0  # OSPF (hello 5 s) is up and the overlay forwards
DURATION = 0.25


class _Chunk:
    """A chunk put on a CPU, and the chunk whose completion started it."""

    def __init__(self, cpu, process, after, order):
        self.start, self.cost = cpu._started_at, cpu._cost
        self.line = f"{self.start!r} {cpu.name} {process.name} {self.cost!r}"
        self.after, self.order = after, order


def _chain(chunk):
    """Sort key of ``chunk``: its start, the start of the chunk whose
    completion started it, and so on back to a chunk some other event
    started; then that chunk's place in the recording."""
    while chunk.after is not None:
        yield chunk.start
        chunk = chunk.after
    yield chunk.start
    yield math.inf
    yield chunk.order


def _started_before(a, b) -> int:
    if a.start != b.start:
        return -1 if a.start < b.start else 1
    for x, y in zip(_chain(a), _chain(b)):
        if x != y:
            return -1 if x < y else 1
    return 0


def _dispatch_stream(monkeypatch, config: str, seed: int) -> str:
    """Every chunk in the order the engine started it.

    A chunk that ran without an event is recorded when its CPU catches
    up, after chunks other CPUs started later. The engine fires
    same-instant events in the order they were scheduled, and a chunk's
    completion is scheduled when the chunk starts, so sorting by
    :func:`_chain` restores the order of an event per chunk.
    """
    chunks = []
    run = CPUScheduler._run

    def recording(cpu, process, item):
        run(cpu, process, item)
        # A chunk that starts as the last one ends was started by its
        # completion (a preempted chunk stops before its end).
        last = getattr(cpu, "on_cpu", None)
        if last is not None and last.start + last.cost != cpu._started_at:
            last = None
        cpu.on_cpu = _Chunk(cpu, process, last, len(chunks))
        chunks.append(cpu.on_cpu)

    monkeypatch.setattr(CPUScheduler, "_run", recording)
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
    chunks.sort(key=functools.cmp_to_key(_started_before))
    return "\n".join(chunk.line for chunk in chunks)


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
