"""The documents name only what exists.

Every backticked ``repro.<dotted>`` name in the prose docs must import as
a module or resolve from one by ``getattr``, so a rename or a deletion
that leaves a document behind fails here. Schema tags such as
``repro.archive/1`` name a format, not code, and are skipped. Every
name in the first column of DESIGN.md's "Kept without a run" table must
be one the reach audit knows, so a deleted function cannot linger there:
a ``Class.attr`` (with its ``/ attr`` continuations) or a bare name must
be a function, and a class (``Class.*`` too), a ``path.py`` or a
``path.py::Name`` must hold one.
"""

import importlib
import re
from pathlib import Path

from benchmarks import reach

REPO = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md", "benchmarks/README.md")
INLINE_CODE = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"\brepro(?:\.\w+)+(?![\w/])")
KEPT_METHODS = re.compile(r"`(\w+)\.(\w+)`((?:\s*/\s*`\w+`)*)")


def resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_backticked_repro_name_in_the_docs_resolves():
    dead = []
    for doc in DOCS:
        for number, line in enumerate(
                (REPO / doc).read_text().splitlines(), start=1):
            for span in INLINE_CODE.findall(line):
                for dotted in DOTTED.findall(span):
                    if not resolves(dotted):
                        dead.append(f"{doc}:{number}: {dotted}")
    assert dead == []


def test_every_kept_method_in_design_is_a_function_the_reach_audit_knows():
    known = set()
    for (path, _first), (name, _lines) in reach.functions().items():
        parts = name.split(":", 1)[1].split(".")
        known.update(".".join(parts[cut:]) for cut in range(len(parts)))
        known.update(parts)  # a class holding a function
        known.update({path, f"{path}::{parts[0]}"})
    section = (REPO / "DESIGN.md").read_text().split("### Kept without a run", 1)[1]
    table = [line for line in section.split("\n#", 1)[0].splitlines()
             if line.startswith("|")]
    rows = table[2:]  # past the header and its rule
    assert rows
    dead = []
    for row in rows:
        for cls, attr, more in KEPT_METHODS.findall(row.split("|")[1]):
            for name in [attr] + re.findall(r"`(\w+)`", more):
                if f"{cls}.{name}" not in known:
                    dead.append(f"{cls}.{name}")
        for name in INLINE_CODE.findall(row.split("|")[1]):
            if name.removesuffix(".*") not in known:
                dead.append(name)
    assert dead == []
