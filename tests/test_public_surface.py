"""The top-level ``airconsensus`` namespace: what the acceptance suite and
the README's example use must stay exported."""

import ast
import contextlib
import io
import re
from pathlib import Path

import airconsensus

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert len(set(airconsensus.__all__)) == len(airconsensus.__all__)
    for name in airconsensus.__all__:
        assert hasattr(airconsensus, name), name


def test_acceptance_suite_uses_only_exported_names():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ac"
    }
    assert "run" in used
    assert not used - set(airconsensus.__all__), sorted(used - set(airconsensus.__all__))


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {})
    reason, steps, mean = out.getvalue().split()
    assert reason == airconsensus.CONVERGED
    assert int(steps) > 0
    assert 0.0 <= float(mean) <= 2 * 3.141592653589793
