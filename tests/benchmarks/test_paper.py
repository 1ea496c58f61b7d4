"""The committed outcome of ``make paper`` against the claims table and
against EXPERIMENTS.md (no simulation is run).

``benchmarks/results/paper.json`` is what the last ``make paper`` wrote;
tier-2 CI reruns it and fails on a ``git diff``. Here, in milliseconds:
every committed number is inside its claim's band, claims and numbers
pair off one to one, and each generated table of EXPERIMENTS.md is
exactly what the numbers render to — so neither a number, a band nor a
table can be edited alone.
"""

import pytest

from benchmarks import paper


@pytest.fixture(scope="module")
def committed():
    return paper.load()


def test_every_experiment_has_claims_and_a_committed_record(committed):
    assert list(paper.SCENARIOS) == list(
        dict.fromkeys(claim.experiment for claim in paper.CLAIMS))
    assert sorted(committed) == sorted(paper.SCENARIOS)
    keys = [(claim.experiment, claim.key) for claim in paper.CLAIMS]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("experiment", list(paper.SCENARIOS))
def test_committed_numbers_meet_their_claims_one_to_one(experiment, committed):
    assert paper.check(experiment, committed[experiment]) == []


@pytest.mark.parametrize("experiment", list(paper.SCENARIOS))
def test_experiments_md_table_is_the_rendered_record(experiment, committed):
    page = paper.EXPERIMENTS_MD.read_text()
    start, end = paper.block(page, experiment)
    assert page[start:end] == paper.render(experiment, committed[experiment])


def test_check_names_what_is_wrong(committed):
    good = committed["table2"]
    assert paper.check("table2", dict(good, **{"network.mbps": 799.0})) == [
        "table2: network.mbps = 799 is outside [800, inf]"]
    assert paper.check("table2", dict(good, extra=1.0)) == [
        "table2: extra was recorded but has no claim"]
    short = {k: v for k, v in good.items() if k != "iias.mbps"}
    assert paper.check("table2", short) == [
        "table2: iias.mbps is claimed but was not recorded"]
    # A plotted series rides along without a claim.
    assert paper.check("table2", dict(good, series=[[0.0, 1.0]])) == []
