"""``make reach``: the functions of ``src/repro`` that nothing runs (~7 min).

Each paper scenario, ledger workload (scale 0.25), example and one
battery of the ``python -m repro.obs`` verbs runs in a fresh child under
a call-only trace (a trace function that returns None is told of
function entries and nothing else), as many children at a time as there
are cores. Every def no child entered becomes one ``module:qualname
lines`` row of ``results/unreached.txt``, shares per package on top.
Seeds are fixed and nothing wall-clock is written: ``git diff`` judges.
"""

import ast
import json
import multiprocessing
import os
import pathlib
import runpy
import sys
import tempfile
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
OUT = ROOT / "benchmarks" / "results" / "unreached.txt"


def _verbs(tmp):
    from repro.obs.__main__ import main
    from repro.obs.query import ArchiveReader
    a, b, out = (os.path.join(tmp, name) for name in ("a", "b", "out.json"))
    battery = [
        f"fig8 {a}", f"fig8 {b} --nudge-index 500", f"ls {a}", f"ls {a} --json",
        f"diff {a} {b} --explain", f"diff {a} {b} --hash-only", f"explain {a}",
        f"perfetto {a} {out}", f"flight --count 20 --slowest 3 --export {out}",
        "flight --count 20 --diff plvini planetlab",
        f"q {a} trace.spill --kind rib_change --where op=replace --cols router,op"
        " --t0 1 --t1 80 --window 10 --agg count,max:t --by router,bucket"]
    for line in battery:
        assert main(line.split()) == 0, line
    for name in ArchiveReader(a).names():
        assert main(["q", a, name, "--limit", "3"]) == 0, name


def run(job):
    """One job, in this fresh process: the ``(file, first line)`` of every code object entered."""
    entered = set()
    sys.stdout = open(os.devnull, "w")
    with tempfile.TemporaryDirectory() as tmp:
        sys.argv = [script, *argv] = job.replace("TMP", tmp).split()
        sys.path[:0] = [str(ROOT), str(PACKAGE.parent), str((ROOT / script).parent)]
        sys.settrace(lambda frame, event, arg: entered.add(frame.f_code))
        try:
            if script == "paper":
                from benchmarks import paper
                paper.SCENARIOS[argv[0]]()
            elif script == "verbs":
                _verbs(tmp)
            else:
                runpy.run_path(str(ROOT / script), run_name="__main__")
        except SystemExit as done:
            assert not done.code, f"{job} exited with {done.code}"
        sys.settrace(None)
    return {(os.path.relpath(code.co_filename, PACKAGE), code.co_firstlineno)
            for code in entered if code.co_filename.startswith(str(PACKAGE))}


def functions():
    """``(file, first line) -> (module:qualname, lines)`` of every def under ``src/repro``."""
    found = {}
    for path in PACKAGE.rglob("*.py"):
        rel = str(path.relative_to(PACKAGE))
        tree = ast.parse(path.read_text())
        tree.scope = "repro." + rel[:-3].replace(os.sep, ".") + ":"
        for node in ast.walk(tree):  # breadth first: a scope before what it holds
            for child in ast.iter_child_nodes(node):
                child.scope = node.scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A code object starts at its first decorator.
                    first = min(n.lineno for n in [child] + child.decorator_list)
                    found[rel, first] = (node.scope + child.name,
                                         child.end_lineno - child.lineno + 1)
                    child.scope += child.name + ".<locals>."
                elif isinstance(child, ast.ClassDef):
                    child.scope += child.name + "."
    return found


def main():
    sys.path[:0] = [str(ROOT), str(PACKAGE.parent)]
    from benchmarks import paper
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    jobs = [f"paper {name}" for name in paper.SCENARIOS]
    jobs += [f"benchmarks/ledger/child.py --workload {workload['name']} --seed 11"
             " --scale 0.25 --workdir TMP --spawned-at 0" for workload in workloads]
    jobs += [f"examples/{path.name}" for path in (ROOT / "examples").glob("*.py")]
    jobs += ["verbs"]
    os.environ["PYTHONHASHSEED"] = "0"  # read by each spawned child
    spawn = multiprocessing.get_context("spawn")
    with spawn.Pool(os.cpu_count(), maxtasksperchild=1) as pool:
        entered = set().union(*pool.imap_unordered(run, jobs))
    found = functions()
    total, missed = Counter(), Counter()
    for key, (name, lines) in found.items():
        for package in ("all", name.split(".")[1]):
            total[package] += lines
            missed[package] += lines * (key not in entered)
    rows = sorted(f"{name}  {lines}" for key, (name, lines) in found.items()
                  if key not in entered)
    head = [f"# {len(jobs)} runs entered all but {len(rows)} of {len(found)} functions;"
            " function lines of those, per package:"]
    head += [f"# {package:11s}{missed[package]:6d} of {total[package]:5d}"
             f"{100 * missed[package] / total[package]:6.1f} %" for package in sorted(total)]
    OUT.write_text("\n".join(head + rows) + "\n")
    print(*head[:2], sep="\n")


if __name__ == "__main__":
    main()
