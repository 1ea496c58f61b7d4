"""VINI core: the virtual network infrastructure itself.

This is the paper's primary contribution: the machinery that embeds
arbitrary *virtual* networks — virtual nodes with arbitrary interface
counts, virtual point-to-point links numbered from common subnets,
per-node forwarding tables and routing processes — onto a fixed
physical infrastructure, with controlled event injection (link
failures), fate-sharing upcalls, and resource isolation, so that
multiple experiments can run simultaneously.
"""

from repro.core.infrastructure import VINI
from repro.core.virtual_network import VirtualLink, VirtualNetwork, VirtualNode
from repro.core.upcalls import UpcallDispatcher
from repro.core.experiment import Experiment
from repro.core.spec import build_experiment, experiment_spec

__all__ = [
    "Experiment",
    "build_experiment",
    "experiment_spec",
    "UpcallDispatcher",
    "VINI",
    "VirtualLink",
    "VirtualNetwork",
    "VirtualNode",
]
