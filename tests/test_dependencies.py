"""``repro`` runs on the standard library alone.

``networkx`` is a test-only oracle (``pyproject.toml``'s ``test``
extra). The fence runs in a fresh interpreter where importing it fails:
every module of the package is imported, and the Abilene mirror is
built (which installs the underlay routes) and run, so a lazy import
inside a function on that path fails the test too.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

FENCE = """
import importlib, pkgutil, sys
sys.modules["networkx"] = None  # any `import networkx` raises ImportError
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
from repro.topologies import build_abilene_iias
vini, exp = build_abilene_iias()
exp.run(until=5.0)
print(" ".join(names))
"""


def test_repro_imports_and_runs_without_networkx():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", FENCE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    imported = set(done.stdout.split())
    assert {"repro.core.infrastructure", "repro.topologies.generators",
            "repro.obs.query", "repro.obs.fig8",
            "repro.obs.__main__"} <= imported
