"""Three Fig-8 archives built once per session for the read side
(``test_query.py``, ``test_cli.py``): two with the same seed — the
byte-identical pair every determinism assertion leans on — and one with
a single trace record's timestamp nudged by 1 ms, the controlled
perturbation the diff engine must localize exactly. Read-only: a test
that damages an archive copies it first.
"""

import os

import pytest

from repro.obs.fig8 import run_fig8

NUDGE_INDEX = 137
NUDGE_DT = 1e-3
#: Stops before the link recovers: one fault, one episode.
END_AT = 30.0


@pytest.fixture(scope="session")
def archives(tmp_path_factory):
    base = tmp_path_factory.mktemp("fig8-archives")
    a, _ = run_fig8(str(base / "a"), seed=8, end_at=END_AT)
    b, _ = run_fig8(str(base / "b"), seed=8, end_at=END_AT)
    c, _ = run_fig8(str(base / "c"), seed=8, end_at=END_AT,
                    nudge_index=NUDGE_INDEX, nudge_dt=NUDGE_DT)
    return {"a": os.path.dirname(a), "b": os.path.dirname(b),
            "c": os.path.dirname(c)}
