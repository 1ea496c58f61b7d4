"""The committed outcome of ``make reach`` against the source (no
simulation is run).

``benchmarks/results/unreached.txt`` is what the last ``make reach``
wrote; tier-2 CI reruns it and fails on a ``git diff``. Here, in
milliseconds: every row still names a function of ``src/repro``, so a
rename or a move cannot strand the list between two audits.
"""

from benchmarks import reach


def test_every_unreached_row_names_a_function_that_exists():
    names = {name for name, _lines in reach.functions().values()}
    with open(reach.OUT) as committed:
        rows = [line.split()[0] for line in committed if not line.startswith("#")]
    assert rows and rows == sorted(rows)
    assert [row for row in rows if row not in names] == []
