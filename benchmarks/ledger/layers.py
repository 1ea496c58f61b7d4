"""Layer taxonomy and the cProfile fold behind the traced run.

Layers are this repository's modules, bucketed by the path of the file
that defines a function. The fold turns one ``cProfile`` run into

* ``self_s`` per layer: a Python function's own time goes to its file's
  layer; a builtin has no file, so its time goes to the layer of each
  caller, edge by edge along cProfile's per-caller table;
* ``calls_in`` per layer: calls entering the layer from a different
  one. Call counts are exact and repeat run to run;
* every caller-layer -> callee-layer edge with its call count and
  inclusive seconds: the layer-level "span that caused it".

All of a run's profiled time is handed to some layer, so the layer
``self_s`` sum to the profile's total by construction; the caller
checks that sum against its own wall-clock of the traced phase.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

import repro

OTHER = "other"  # stdlib, networkx, the harness itself

LAYERS = (
    "sim", "phys.cpu", "phys.link", "phys.node", "click", "net.packet",
    "net.trie", "net.tcp", "routing.ospf", "routing.bgp", "routing.rib",
    "traffic", "tools", "obs", "core", OTHER,
)

# Whole packages that are one layer.
_DIR_LAYERS = {
    "sim": "sim",
    "click": "click",
    "traffic": "traffic",
    "tools": "tools",
    "obs": "obs",
    "core": "core",
    "overlay": "core",
    "topologies": "core",
    "rcc": "core",
    "faults": "core",
}

# Packages split across layers are listed file by file, with no
# default: a new file there lands in ``other`` until it is classified,
# and the self-test fails on any repro file in ``other``.
_FILE_LAYERS = {
    "__init__.py": "core",
    "phys/__init__.py": "phys.node",
    "phys/cpu.py": "phys.cpu",
    "phys/process.py": "phys.cpu",
    "phys/load.py": "phys.cpu",
    "phys/vserver.py": "phys.cpu",
    "phys/link.py": "phys.link",
    "phys/htb.py": "phys.link",
    "phys/node.py": "phys.node",
    "phys/sockets.py": "phys.node",
    "phys/vnet.py": "phys.node",
    "net/__init__.py": "net.packet",
    "net/packet.py": "net.packet",
    "net/addr.py": "net.packet",
    "net/checksum.py": "net.packet",
    "net/trie.py": "net.trie",
    "net/tcp.py": "net.tcp",
    "routing/__init__.py": "routing.rib",
    "routing/ospf.py": "routing.ospf",
    "routing/bgp.py": "routing.bgp",
    "routing/bgp_mux.py": "routing.bgp",
    "routing/policy.py": "routing.bgp",
    "routing/rib.py": "routing.rib",
    "routing/platform.py": "routing.rib",
    "routing/xorp.py": "routing.rib",
    "routing/rip.py": "routing.rib",
    "routing/static.py": "routing.rib",
}

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of_file(path: str) -> str:
    """The layer of a source file, by its path under the ``repro``
    package; anything outside the package is ``other``."""
    if not path.startswith(REPRO_ROOT):
        return OTHER
    rel = path[len(REPRO_ROOT):].replace(os.sep, "/")
    if rel in _FILE_LAYERS:
        return _FILE_LAYERS[rel]
    return _DIR_LAYERS.get(rel.split("/", 1)[0], OTHER) if "/" in rel else OTHER


def fold_profile(stats: dict) -> dict:
    """Fold ``pstats.Stats(...).stats`` by layer.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` with ``callers`` mapping a caller to its own ``(nc, cc,
    tt, ct)`` for that edge. Returns ``{"self_s", "calls_in", "edges",
    "total_s"}``.
    """
    memo: Dict[tuple, Dict[str, float]] = {}

    def layers_of(func: tuple, seen: frozenset = frozenset()) -> Dict[str, float]:
        """Layer weights of a function: a Python function is its file's
        layer; a builtin is its callers' layers, weighted by their call
        counts (exact, unlike times) and followed through builtin
        callers."""
        if func[0] != "~":
            return {layer_of_file(func[0]): 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[0] for edge in callers.values())
        weights: Dict[str, float] = {}
        if not callers or total == 0 or func in seen:
            weights[OTHER] = 1.0  # profiler entry points, builtin cycles
        else:
            for caller, edge in callers.items():
                share = edge[0] / total
                for layer, weight in layers_of(caller, seen | {func}).items():
                    weights[layer] = weights.get(layer, 0.0) + share * weight
        if not seen:
            memo[func] = weights
        return weights

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0.0)
    edges: Dict[Tuple[str, str], list] = {}
    total_s = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        total_s += tt
        builtin = func[0] == "~"
        if not builtin:
            self_s[layer_of_file(func[0])] += tt
        elif not callers:
            self_s[OTHER] += tt
        for caller, (edge_nc, _edge_cc, edge_tt, edge_ct) in callers.items():
            for caller_layer, weight in layers_of(caller).items():
                if builtin:
                    # The builtin works on its caller's behalf.
                    self_s[caller_layer] += edge_tt * weight
                    continue
                callee_layer = layer_of_file(func[0])
                edge = edges.setdefault((caller_layer, callee_layer), [0.0, 0.0])
                edge[0] += edge_nc * weight
                edge[1] += edge_ct * weight
                if caller_layer != callee_layer:
                    calls_in[callee_layer] += edge_nc * weight
    return {
        "self_s": self_s,
        "calls_in": {layer: int(round(count)) for layer, count in calls_in.items()},
        "edges": [
            {"from": a, "to": b, "calls": int(round(calls)), "inclusive_s": secs}
            for (a, b), (calls, secs) in sorted(edges.items())
        ],
        "total_s": total_s,
    }
