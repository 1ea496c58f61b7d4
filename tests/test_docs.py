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
The field fence holds ``src/repro`` to state something reads, the
settings fence to keyword defaults the runs give two values, and the drop
fence (last test) to one place that records a lost packet.
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


# The registry calls that create an instrument, and the calls in
# ``src/repro/obs`` that read one by name.
REGISTRARS = {"counter", "gauge", "histogram"}
METRIC_READERS = {"value", "get", "find", "sum_values", "watch_metric"}


def test_every_registered_instrument_has_a_reader():
    """Every instrument registered in ``src/repro`` is named by a string
    literal, and that literal is read: it appears in ``benchmarks`` (a
    ``paper.py`` claim, the ledger's ``COUNTER_SOURCES``) or
    ``examples``, or a reading call in ``src/repro/obs`` is given it.
    The report's dump of every row is not a reader; an instrument only
    a test reads fails here."""
    registered, unnamed = {}, []
    for path in sorted((REPO / "src/repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and _name(node.func) in REGISTRARS):
                continue
            where = f"{path.relative_to(REPO)}:{node.lineno}"
            name = node.args[0] if node.args else None
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                registered.setdefault(name.value, where)
            else:
                unnamed.append(where)
    literals = set()
    for root in ("benchmarks", "examples", "src/repro/obs"):
        for path in sorted((REPO / root).rglob("*.py")):
            nodes = list(ast.walk(ast.parse(path.read_text())))
            if root == "src/repro/obs":
                nodes = [arg for call in nodes if isinstance(call, ast.Call)
                         and _name(call.func) in METRIC_READERS for arg in call.args]
            literals.update(node.value for node in nodes
                            if isinstance(node, ast.Constant) and isinstance(node.value, str))
    assert unnamed == []
    assert {name: where for name, where in registered.items()
            if name not in literals} == {}


# Callee name -> index of the callback argument that the callee calls
# with the positional arguments after it: ``sim.schedule(t, fn, *a)``.
FORWARDERS = {"schedule": 1, "at": 1, "call_soon": 0, "exec_after": 1, "partial": 0}
# The value of an argument the scanner cannot resolve: it may be any.
ANY = object()


def _name(node):
    return getattr(node, "attr", getattr(node, "id", None))


def setting_values(files):
    """``{module:qualname(param=): (values, passers)}`` for each
    keyword-defaulted parameter of a def in a ``repro.*`` module of
    ``files`` (``{module: source}``): the values the calls in ``files``
    give it, and the modules of the calls that name it.

    A call matches by the callee's simple name, a class by its
    ``__init__``: ``super().__init__`` names the class's first base, and
    a class with no ``__init__`` passes to its base's. A call that omits
    the parameter gives the default; a callback handed to a
    :data:`FORWARDERS` callee is called with the positional arguments
    after it. A value is a literal, or a name bound to one at module
    level (through ``from`` imports anywhere in the caller's module) or
    in the caller's class body (``self.X``); anything else is
    :data:`ANY`. A ``**`` argument is a
    dict display, a ``dict(...)`` call, a name bound to one of those, a
    subscript of a name bound to a dict of them, a loop variable over a
    literal tuple of them, or the function's own ``**kwargs``: the other
    keywords its callers pass, resolved to a fixpoint. An unresolved
    ``**`` argument or a ``*args`` gives every parameter :data:`ANY`. A
    closure's defaults bind names, not settings, so closures are
    skipped."""
    trees = {module: ast.parse(source) for module, source in files.items()}
    top, imports, members = {}, {}, {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                imports.update(((module, a.asname or a.name), (node.module, a.name))
                               for a in node.names)
        for node in tree.body:
            for target, value in _bindings(node):
                top[module, target] = value
            if isinstance(node, ast.ClassDef):
                for inner in node.body:
                    for target, value in _bindings(inner):
                        members[module, node.name, target] = value

    def bound(node, ctx):
        """``(node, module)`` that a name or a ``self.X`` is bound to."""
        module = ctx["module"]
        if isinstance(node, ast.Name):
            key = module, node.id
            for _hop in range(8):
                if key in top:
                    return top[key], key[0]
                source = imports.get(key)
                if source is None:
                    return None
                key = source if source in top or source in imports else (
                    f"{source[0]}.__init__", source[1])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "self" and ctx["owner"]):
            value = members.get((module, ctx["owner"], node.attr))
            return value and (value, module)
        return None

    def literal(node, ctx):
        if isinstance(node, ast.Constant):
            return node.value
        if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant)):
            return -node.operand.value
        if isinstance(node, (ast.Tuple, ast.List)):
            items = tuple(literal(item, ctx) for item in node.elts)
            return ANY if any(item is ANY for item in items) else items
        binding = bound(node, ctx)
        if binding is None:
            return ANY
        return literal(binding[0], dict(ctx, module=binding[1]))

    def alternatives(node, ctx):
        """The keyword dicts that ``**node`` may be, or None."""
        if isinstance(node, ast.Dict) and all(
                isinstance(k, ast.Constant) and isinstance(k.value, str) for k in node.keys):
            return [{k.value: literal(v, ctx) for k, v in zip(node.keys, node.values)}]
        if isinstance(node, ast.Call) and _name(node.func) == "dict" and not node.args:
            passed = arguments([], node.keywords, ctx)
            return None if passed is None else [kw for _pos, kw in passed]
        if isinstance(node, ast.Name) and node.id in ctx["loops"]:
            options = [alternatives(item, ctx) for item in ctx["loops"][node.id]]
        elif isinstance(node, ast.Name) and node.id == ctx["kwarg"]:
            extras = forwarded.get(ctx["fn"], set())
            return None if extras is None else [dict(extra) for extra in extras]
        elif isinstance(node, ast.Subscript):
            binding = bound(node.value, ctx)
            if binding is None or not isinstance(binding[0], ast.Dict):
                return None
            inner = dict(ctx, module=binding[1], loops={})
            options = [alternatives(item, inner) for item in binding[0].values]
        else:
            binding = bound(node, ctx)
            return binding and alternatives(binding[0], dict(ctx, module=binding[1], loops={}))
        if None in options:
            return None
        return [kw for option in options for kw in option]

    def arguments(args, keywords, ctx):
        """``[(positional values, {keyword: value})]`` a call may pass, or
        None when it passes ``*args`` or an unresolved ``**``."""
        if any(isinstance(a, ast.Starred) for a in args):
            return None
        out = [{}]
        for k in keywords:
            options = [{k.arg: literal(k.value, ctx)}] if k.arg else alternatives(k.value, ctx)
            if options is None:
                return None
            out = [{**kw, **option} for kw in out for option in options]
        positional = [literal(a, ctx) for a in args]
        return [(positional, kw) for kw in out]

    settings, calls, bases, inits, named = [], [], {}, set(), {}

    def walk(node, ctx):
        # ``cls``: the class whose body this is; ``owner``: the class
        # whose method (or a closure in one) this is, for ``super()`` and
        # ``self.X``; ``fn``/``kwarg``: the def whose ``**kwargs`` this
        # body forwards; ``loops``: loop variables over literal tuples.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases[child.name] = _name(child.bases[0]) if child.bases else None
                walk(child, dict(ctx, scope=f"{ctx['scope']}{child.name}.",
                                 cls=child.name, owner=child.name))
                continue
            if isinstance(child, ast.FunctionDef):
                args, cls = child.args, ctx["cls"]
                positional = [a.arg for a in args.posonlyargs + args.args]
                if cls and "staticmethod" not in map(_name, child.decorator_list):
                    positional = positional[1:]  # self or cls
                defaults = list(zip(positional[len(positional) - len(args.defaults):],
                                    args.defaults)) + [
                    (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                callee = cls if cls and child.name == "__init__" else child.name
                if cls and callee == cls:
                    inits.add(cls)
                inner = dict(ctx, scope=f"{ctx['scope']}{child.name}.<locals>.",
                             cls=None, loops={})
                if cls or not ctx["scope"]:  # not a closure
                    if ctx["module"].startswith("repro."):
                        settings.extend((f"{ctx['module']}:{ctx['scope']}{child.name}({p}=)",
                                         callee, positional, p, literal(d, ctx))
                                        for p, d in defaults)
                    if args.kwarg:
                        named.setdefault(callee, set()).update(
                            positional + [a.arg for a in args.kwonlyargs])
                    inner = dict(inner, fn=callee, kwarg=args.kwarg and args.kwarg.arg)
                walk(child, inner)
                continue
            if isinstance(child, ast.For) and isinstance(child.iter, (ast.Tuple, ast.List)):
                loops, targets = dict(ctx["loops"]), [(child.target, child.iter.elts)]
                while targets:
                    target, items = targets.pop()
                    if isinstance(target, ast.Name):
                        loops[target.id] = items
                    elif isinstance(target, ast.Tuple) and all(
                            isinstance(i, ast.Tuple) and len(i.elts) == len(target.elts)
                            for i in items):
                        targets += [(t, [i.elts[n] for i in items])
                                    for n, t in enumerate(target.elts)]
                walk(child, dict(ctx, loops=loops))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                callee = _name(func)
                if (callee == "__init__" and isinstance(func.value, ast.Call)
                        and _name(func.value.func) == "super"):
                    callee = bases.get(ctx["owner"])
                calls.append((callee, child.args, child.keywords, ctx))
                at = FORWARDERS.get(callee)
                if at is not None and len(child.args) > at:
                    calls.append((_name(child.args[at]), child.args[at + 1:], [], ctx))
            walk(child, ctx)

    for module, tree in trees.items():
        walk(tree, dict(module=module, scope="", cls=None, owner=None,
                        fn=None, kwarg=None, loops={}))

    def target(callee):  # a class without __init__ builds its base
        while callee in bases and callee not in inits and bases[callee]:
            callee = bases[callee]
        return callee

    calls = [(target(callee), *rest) for callee, *rest in calls]
    forwarded, grew = {}, True  # forwarder -> its callers' other keywords
    while grew:
        grew = False
        for callee, args, keywords, ctx in calls:
            if callee not in named or forwarded.get(callee, ()) is None:
                continue
            passed = arguments(args, keywords, ctx)
            if passed is None:
                forwarded[callee], grew = None, True
                continue
            extras = forwarded.setdefault(callee, set())
            new = {frozenset((k, v) for k, v in kw.items() if k not in named[callee])
                   for _pos, kw in passed} - extras
            extras |= new
            grew = grew or bool(new)
    by_callee = {}
    for callee, args, keywords, ctx in calls:
        by_callee.setdefault(callee, []).append(
            (arguments(args, keywords, ctx), ctx["module"]))
    out = {}
    for where, callee, positional, param, default in settings:
        index = positional.index(param) if param in positional else len(positional)
        values, passers = set(), set()
        for passed, module in by_callee.get(callee, []):
            if passed is None:
                values.add(ANY)
                continue
            for args, kw in passed:
                if param in kw or index < len(args):
                    values.add(kw[param] if param in kw else args[index])
                    passers.add(module)
                else:
                    values.add(default)
        out[where] = values, passers
    return out


def _bindings(node):
    if isinstance(node, ast.Assign):
        return [(t.id, node.value) for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and node.value and isinstance(node.target, ast.Name):
        return [(node.target.id, node.value)]
    return []


def one_valued_settings(values):
    """The settings of :func:`setting_values` that fewer than two values reach."""
    return sorted(where for where, (seen, _passers) in values.items()
                  if ANY not in seen and len(seen) < 2)


# The settings the fence lets through, each with its reason: kept for
# what it reaches though only tests give it a second value, or given
# one value by the ledger, which only a change to the benchmark edits.
UNPASSED_SETTINGS = {
    "repro.obs.report:build_report(traffic=)":
        "the fluid plane's report section, kept without a run in DESIGN.md",
    "repro.traffic.plane:FluidTrafficPlane.add_flow(size_bytes=)":
        "finite fluid flows, kept without a run; the plane golden pins them",
    "repro.obs.export:FlightStream.__init__(fmt=)":
        "passed as 'jsonl' by the ledger's abilene-failover workload",
    "repro.obs.export:FlightStream.__init__(chunk_flights=)":
        "passed as 64 by the ledger's abilene-failover workload",
    "repro.obs.live:LiveMonitor.__init__(interval=)":
        "passed as 1.0 by the ledger's abilene-failover workload",
}


def test_every_setting_takes_two_values_in_the_runs():
    """A keyword default of a reached ``src/repro`` function that the
    calls in ``src``, ``benchmarks`` and ``examples`` give fewer than two
    values is a setting no run varies: it becomes a constant, and goes
    with any branch only a second value reached. Functions of
    ``unreached.txt`` are DESIGN.md's "Kept without a run" rows, and are
    skipped."""
    files = {}
    for root in ("src", "benchmarks", "examples"):
        for path in sorted((REPO / root).rglob("*.py")):
            rel = path.relative_to(REPO / root if root == "src" else REPO)
            files[".".join(rel.with_suffix("").parts)] = path.read_text()
    with open(reach.OUT) as committed:
        unreached = {line.split()[0] for line in committed if not line.startswith("#")}
    values = setting_values(files)
    found = [where for where in one_valued_settings(values)
             if where.split("(")[0] not in unreached]
    assert sorted(set(found) - set(UNPASSED_SETTINGS)) == []
    # An allowlisted setting that is gone, or varied after all, leaves the list.
    assert sorted(set(UNPASSED_SETTINGS) - set(found)) == []
    assert len(UNPASSED_SETTINGS) <= 8
    # Only a change to the benchmark may fold what the ledger passes.
    assert sorted(where for where, why in UNPASSED_SETTINGS.items() if "ledger" in why
                  and not any(m.startswith("benchmarks.ledger.") for m in values[where][1])) == []


FENCED = """
class Base:
    def __init__(self, size=1, name=""):
        pass

class Child(Base):
    def __init__(self):
        super().__init__(name="child")

class Plain(Base):
    pass

def tool(node, count=1, timeout=2.0, *, payload=56):
    def closure(x=node):
        return x

def spread(a, b=0, c=0):
    pass

def scheduled(a, late=False):
    pass

def knob(a, rate=1.0, burst=3, mode="in"):
    pass

def relay(x, **kwargs):
    knob(x, **kwargs)

def outer(**kwargs):
    relay(1, **kwargs)
"""

# Calls to ``knob`` (besides one that passes only ``a``), and the
# settings of it that stay one-valued.
KNOB_CASES = [
    ('knob(0, **{"rate": 2.0})', ["burst", "mode"]),
    ("knob(0, **dict(burst=5))", ["mode", "rate"]),
    ('MODES = {"a": {"mode": "out"}, "b": {}}\nknob(0, **MODES[key])', ["burst", "rate"]),
    ('for name, opts in (("x", {"rate": 2.0}), ("y", dict(burst=1))):\n'
     "    knob(0, **opts)", ["mode"]),
    ('outer(mode="out")', ["burst", "rate"]),
    ("RATE = 1.0\nknob(0, rate=RATE)", ["burst", "mode", "rate"]),
    ("knob(0, 2.0)", ["burst", "mode"]),
    ("knob(0, mode=pick())", ["burst", "rate"]),
]


def test_the_settings_scanner_flags_only_an_unpassed_default():
    def flagged(callers):
        return one_valued_settings(setting_values({"repro.demo": FENCED, "example": callers}))

    callers = """
tool(n, 3)
tool(n)
spread(**options)
sim.schedule(1.0, scheduled, "a", True)
scheduled("b")
Plain(size=4)
"""
    knobs = [f"repro.demo:knob({p}=)" for p in ("burst", "mode", "rate")]
    assert flagged(callers) == knobs + [
        "repro.demo:tool(payload=)", "repro.demo:tool(timeout=)"]
    # Two values by keyword, past its index, through a forwarder, or
    # against the default; ``**options`` is unresolved; ``size`` through
    # a class without ``__init__``, ``name`` through ``super().__init__``;
    # the closure's default is not a setting.
    callers += "tool(n, timeout=1.0, payload=0)\nknob(0)\n"
    assert flagged(callers) == knobs
    # A dict display, ``dict(...)``, a subscript of a dict of dicts, a
    # loop over a tuple of dicts, a two-level ``**kwargs`` forward; a
    # name bound to the default's value; a second literal; a call.
    for case, one_valued in KNOB_CASES:
        assert flagged(f"{callers}{case}\n") == [
            f"repro.demo:knob({p}=)" for p in one_valued], case


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
