"""Source layout rules that no linter in the toolchain enforces."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_bench_names import LAYERTRACE

import riordan

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "riordan").glob("*.py"))

# public names that only the tests call
TESTED_ONLY = {
    "from_record", "sum_lhs", "sum_rhs", "to_text", "central_binomial_gf", "power_coeff",
    "row", "zero",
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_source_line_exceeds_100_columns(path):
    long = [
        n for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100
    ]
    assert long == [], f"{path.name}: lines over 100 columns: {long}"


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the non-dunder methods of those classes.

    Yields ``(name, is_method)``.
    """
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("__"):
                    yield item.name, True


def test_every_definition_has_a_use():
    # a method is reached only through an attribute (or an import); a bare
    # name that matches it is some other binding, such as a local variable
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    named, reached = set(), set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            reached.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            reached.update(alias.name for alias in node.names)
    traced = {
        node.value for node in ast.walk(ast.parse(LAYERTRACE.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    exempt = set(riordan.__all__) | traced | TESTED_ONLY
    unused = sorted({
        name for tree in trees for name, is_method in _definitions(tree)
        if name not in reached and (is_method or name not in named) and name not in exempt
    })
    assert unused == [], f"defined in src/riordan but used nowhere there: {unused}"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # in a fresh interpreter, so that only what this import adds counts, and
    # not what site or an earlier test has already loaded
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import riordan.cli\n"
        "print(riordan.cli.__file__)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         check=True, capture_output=True, text=True).stdout
    origin, loaded = out.splitlines()
    assert Path(origin).resolve().is_relative_to(SRC)
    loaded = set(loaded.split())
    assert {"riordan.cli", "riordan.reports", "riordan.identities"} <= loaded
    assert loaded & {"dataclasses", "inspect"} == set()
