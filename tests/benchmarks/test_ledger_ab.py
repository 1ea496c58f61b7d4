"""The A/B summary of ``benchmarks/ledger_ab.py`` (no ledger is run)."""

import json

from benchmarks import ledger_ab
from benchmarks.ledger_ab import summarise


def _ledger(run_s, digest="d0", artifact_bytes=1616831, fail_share=0.0):
    stat = lambda value: {"median": value}
    return {"workloads": {"zoo-converge": {
        "digest": digest, "fail_share": fail_share,
        "counters": {"sim.events": 7, "obs.artifact_bytes": artifact_bytes},
        "outputs": {"rtt_ms": 76.3},
        "end_to_end": {"setup_s": stat(0.4), "run_s": stat(run_s),
                       "work_per_s": stat(50.0 / run_s),
                       "peak_rss_mb": stat(54.0)},
    }}}


def test_summary_gives_ratios_per_set_and_counts_wins(capsys):
    pairs = [(_ledger(2.0), _ledger(1.6)), (_ledger(2.0), _ledger(1.8)),
             (_ledger(1.8), _ledger(1.9))]
    assert summarise(pairs) == 0
    rows = {tuple(line.split()[:2]): line
            for line in capsys.readouterr().out.splitlines()}
    run_s = rows[("zoo-converge", "run_s")]
    assert "0.900x" in run_s and "0.80/0.90/1.06 (2/3)" in run_s
    assert "(2/3)" in rows[("zoo-converge", "work_per_s")]  # higher is better
    assert "identical in every set" in rows[("zoo-converge", "digest")]


def test_a_digest_that_differs_in_one_set_is_counted(capsys):
    pairs = [(_ledger(2.0), _ledger(2.0)),
             (_ledger(2.0, fail_share=0.25), _ledger(2.0, "d1", 1612345))]
    assert summarise(pairs) == 1
    out = capsys.readouterr().out
    assert "DIFFERS; worst fail_share base 0.2500 new 0.0000" in out
    # The counter behind the digest is named with both values and the
    # delta; the ones that agree are not listed.
    assert "counters.obs.artifact_bytes: base 1616831 -> new 1612345 (-4486)" in out
    assert "sim.events" not in out and "rtt_ms" not in out


def test_an_earlier_ab_leaves_no_set_behind(tmp_path, monkeypatch):
    def run_set(checkout, out, passthrough):
        with open(out, "w") as handle:
            json.dump(_ledger(2.0), handle)
        return _ledger(2.0)

    monkeypatch.setattr(ledger_ab, "run_set", run_set)
    (tmp_path / "base_5.json").write_text("{}")  # a 6-set A/B's, say
    (tmp_path / "notes.txt").write_text("kept")
    assert ledger_ab.main(["base", "new", "--sets", "2", "--out", str(tmp_path)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "base_1.json", "base_2.json", "new_1.json", "new_2.json", "notes.txt"]
