"""The documents name only what exists.

Every backticked ``repro.<dotted>`` name in the prose docs must import as
a module or resolve from one by ``getattr``, so a rename or a deletion
that leaves a document behind fails here. Schema tags such as
``repro.archive/1`` name a format, not code, and are skipped. Every
name in the first column of DESIGN.md's "Kept without a run" table must
be one the reach audit knows, so a deleted function cannot linger there:
a ``Class.attr`` (with its ``/ attr`` continuations) or a bare name must
be a function, and a class (``Class.*`` too), a ``path.py`` or a
``path.py::Name`` must hold one. The other way round, every row of
``benchmarks/results/unreached.txt`` must fall under one of those names,
so a function that stops being reached needs a caller or a line there.
The field fence holds ``src/repro`` to state something reads, and the
drop fence (last test) to one place that records a lost packet.
"""

import ast
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


def kept_cells():
    """The first column of DESIGN.md's "Kept without a run" table."""
    section = (REPO / "DESIGN.md").read_text().split("### Kept without a run", 1)[1]
    table = [line for line in section.split("\n#", 1)[0].splitlines()
             if line.startswith("|")]
    rows = table[2:]  # past the header and its rule
    assert rows
    return [row.split("|")[1] for row in rows]


def kept_methods(cell):
    """Each ``Class.attr`` of a cell, its ``/ attr`` continuations spelled out."""
    for cls, attr, more in KEPT_METHODS.findall(cell):
        for name in [attr] + re.findall(r"`(\w+)`", more):
            yield f"{cls}.{name}"


def test_every_kept_method_in_design_is_a_function_the_reach_audit_knows():
    known = set()
    for (path, _first), (name, _lines) in reach.functions().items():
        parts = name.split(":", 1)[1].split(".")
        known.update(".".join(parts[cut:]) for cut in range(len(parts)))
        known.update(parts)  # a class holding a function
        known.update({path, f"{path}::{parts[0]}"})
    dead = []
    for cell in kept_cells():
        dead += [name for name in kept_methods(cell) if name not in known]
        for name in INLINE_CODE.findall(cell):
            if name.removesuffix(".*") not in known:
                dead.append(name)
    assert dead == []


def test_every_unreached_function_falls_under_a_kept_name():
    kept = set()
    for cell in kept_cells():
        kept.update(kept_methods(cell))
        # What is left is bare names, classes and paths.
        kept.update(name.removesuffix(".*")
                    for name in INLINE_CODE.findall(KEPT_METHODS.sub("", cell)))
    with open(reach.OUT) as committed:
        rows = [line.split()[0] for line in committed if not line.startswith("#")]
    assert rows
    stray = []
    for row in rows:
        module, qualname = row.split(":", 1)
        path = module.removeprefix("repro.").replace(".", "/") + ".py"
        parts = qualname.split(".")
        # The qualified name and every scope around it (class, enclosing
        # function), the last name, the file, the file's top-level name.
        under = {".".join(parts[:cut]) for cut in range(1, len(parts) + 1)}
        under.update({parts[-1], path, f"{path}::{parts[0]}"})
        if not under & kept:
            stray.append(row)
    assert stray == []


# Stored for whoever catches the error or reads the violation, not for
# the program: the name and reason of each field the fence lets through.
UNREAD_FIELDS = {
    "line_no": "ConfigSyntaxError: the config line number, for the catcher",
    "line": "ConfigSyntaxError: the config line's text, for the catcher",
    "detail": "Violation: the invariant's measured values, for the reader",
    "context": "Violation: the events before the breach, for the reader",
}


def test_every_stored_field_is_read_somewhere():
    """Every ``self.<name> = ...`` in ``src/repro`` is loaded as
    ``<something>.<name>`` somewhere in ``src/repro``, ``benchmarks`` or
    ``examples``, outside a ``__repr__`` / ``__str__``; a field only
    written (a counter bumped per packet for no reader) fails here. The
    check is by attribute name, not by class: a dead field whose name
    another class reads (``tx_packets``, ``drops``) passes unseen."""
    stored, loaded = {}, set()
    for root in ("src/repro", "benchmarks", "examples"):
        for path in sorted((REPO / root).rglob("*.py")):
            tree = ast.parse(path.read_text())
            in_repr = set()
            for node in ast.walk(tree):
                if (isinstance(node, ast.FunctionDef)
                        and node.name in ("__repr__", "__str__")):
                    in_repr.update(id(inner) for inner in ast.walk(node))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Attribute):
                    continue
                if isinstance(node.ctx, ast.Load):
                    if id(node) not in in_repr:
                        loaded.add(node.attr)
                elif (root == "src/repro" and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    where = f"{path.relative_to(REPO)}:{node.lineno}"
                    stored.setdefault(node.attr, where)
    unread = {name: where for name, where in stored.items()
              if name not in loaded and name not in UNREAD_FIELDS}
    assert unread == {}
    # An allowlisted name that is gone, or read after all, leaves the list.
    assert sorted(name for name in UNREAD_FIELDS
                  if name not in stored or name in loaded) == []


OLD_DROP_KINDS = {f"{site}_drop" for site in (
    "link", "click", "loss", "kernel", "sock", "tap", "iface", "tcp")}


def test_every_lost_packet_is_recorded_at_one_site():
    """``src/repro`` logs the ``drop`` kind and closes a dropped flight
    (``flight_drop``) at one call site each, ``TraceCollector.drop``,
    and names none of the per-site kinds that site replaced."""
    logs, closes, old = [], [], []
    for path in sorted((REPO / "src/repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.relative_to(REPO)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and node.value in OLD_DROP_KINDS:
                old.append(where)
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "flight_drop":
                closes.append(where)
            elif (node.func.attr == "log" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "drop"):
                logs.append(where)
    assert len(logs) == 1 and len(closes) == 1, (logs, closes)
    assert logs[0].split(":")[0] == closes[0].split(":")[0] == "src/repro/sim/trace.py"
    assert old == []
