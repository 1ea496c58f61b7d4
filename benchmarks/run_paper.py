"""``make paper``: the paper's evaluation, end to end (~4 min).

Runs every scenario of :mod:`benchmarks.paper` once, writes what it
measured into ``results/paper.json`` and EXPERIMENTS.md, then holds it
to the claims. A number that moved shows up in ``git diff`` whether or
not it left its band; ``-k fig8`` reruns one experiment.
"""

import pytest

from benchmarks import paper


@pytest.mark.parametrize("experiment", list(paper.SCENARIOS))
def test_paper(experiment):
    recorded = paper.record(experiment, paper.SCENARIOS[experiment]())
    assert paper.check(experiment, recorded) == []
