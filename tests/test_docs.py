"""The documents name only what exists.

Every backticked ``repro.<dotted>`` name in the prose docs must import as
a module or resolve from one by ``getattr``, so a rename or a deletion
that leaves a document behind fails here. Schema tags such as
``repro.archive/1`` name a format, not code, and are skipped.
"""

import importlib
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md", "benchmarks/README.md")
INLINE_CODE = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"\brepro(?:\.\w+)+(?![\w/])")


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
