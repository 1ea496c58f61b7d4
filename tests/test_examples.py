"""The examples must stay runnable: compile all, smoke-run the quick ones."""

import os
import py_compile
import runpy

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
ALL_EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)


def test_examples_exist():
    assert len(ALL_EXAMPLES) >= 3  # the deliverable floor
    assert "quickstart.py" in ALL_EXAMPLES


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_compiles(name):
    py_compile.compile(os.path.join(EXAMPLES_DIR, name), doraise=True)


@pytest.mark.parametrize("name", [
    "quickstart.py", "life_of_a_packet.py", "bgp_multiplexer.py",
    "simultaneous_experiments.py", "abilene_failover.py", "internet_zoo.py",
])
def test_fast_examples_run_to_completion(name, capsys):
    runpy.run_path(os.path.join(EXAMPLES_DIR, name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # each example narrates its result


def test_readme_quickstart_runs(capsys):
    """README's Quickstart block is code, not prose: it runs as written
    (its controlled failure drops the second half of the pings)."""
    with open(os.path.join(EXAMPLES_DIR, "..", "README.md")) as file:
        readme = file.read()
    start = readme.index("```python\n", readme.index("## Quickstart")) + 10
    exec(compile(readme[start:readme.index("```", start)], "README.md", "exec"), {})
    assert "10 transmitted, 5 received" in capsys.readouterr().out
