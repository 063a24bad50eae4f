"""Source layout and README rules that no linter in the toolchain enforces."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_bench_names import LAYERTRACE

import riordan

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "riordan").glob("*.py"))
README = SRC.parent / "README.md"

# public names that only the tests call: criterion 5's closed form and the
# per-point API; each must be documented in the README
TESTED_ONLY = {"power_coeff", "sum_lhs", "sum_rhs"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_source_line_exceeds_100_columns(path):
    long = [
        n for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100
    ]
    assert long == [], f"{path.name}: lines over 100 columns: {long}"


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the non-dunder methods of those classes.

    Yields ``(name, owner)``: the name of a method's class, and None for the rest.
    """
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("__"):
                    yield item.name, node.name


def _overrides(path: Path, owner: str, name: str) -> bool:
    """Whether a base of class ``owner`` defines the method ``name`` too.

    An override is reached through its base's interface (a ``NamedTuple``'s
    ``_replace``, say), not by its own name in ``src``.
    """
    cls = getattr(importlib.import_module(f"riordan.{path.stem}"), owner)
    return any(name in vars(base) for base in cls.__mro__[1:])


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
        name for path, tree in zip(SOURCES, trees) for name, owner in _definitions(tree)
        if name not in reached and (owner or name not in named) and name not in exempt
        and not (owner and _overrides(path, owner, name))
    })
    assert unused == [], f"defined in src/riordan but used nowhere there: {unused}"


def test_every_named_tuple_field_is_read():
    # a field that nothing reads is a concept half removed: its readers went, it stayed
    read = {
        node.attr for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = {
        f"{cls.__name__}.{field}": field
        for path in SOURCES
        for module in [importlib.import_module(f"riordan.{path.stem}")]
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")
        and cls.__module__ == module.__name__
        for field in cls._fields
    }
    assert len(fields) > 20
    assert sorted(name for name, field in fields.items() if field not in read) == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_has_a_use(path):
    # __init__.py imports to re-export; a __future__ import changes the compiler
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - named) == [], f"{path.name}: imported but never used"


def test_only_series_imports_gcd():
    # series.py alone brings exact integer vectors to lowest terms
    importers = sorted(
        path.name for path in SOURCES if path.name != "series.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "math"
        and any(alias.name == "gcd" for alias in node.names)
    )
    assert importers == [], f"import gcd from math outside series.py: {importers}"


def test_identities_imports_no_pair_reduction():
    # its kernels hand back raw pairs, which the column or batch they join reduces once
    tree = ast.parse((SRC / "riordan" / "identities.py").read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert "_reduced" not in names


def test_only_the_ratio_reader_and_the_hyper_command_build_specs():
    # a spec is read off its family's term ratio (hypergeom._spec) or parsed from the
    # command line, so no hand-written parameter list comes back
    callers = set()
    for path in SOURCES:
        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "HypergeometricSpec":
                callers.add((path.name, owner))
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(ast.parse(path.read_text()), None)
    assert callers == {("hypergeom.py", "_spec"), ("cli.py", "_cmd_hyper")}


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


def test_tested_only_names_are_in_the_readme():
    readme = README.read_text()
    assert sorted(name for name in TESTED_ONLY if f"`{name}" not in readme) == []


def test_readme_library_tour_runs_and_shows_its_values():
    # each expression line's comment starts with the value's repr or str
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(), re.S)[1]
    lines = block.splitlines()
    namespace = {}
    shown = 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        forms = (repr(value), str(value))
        assert comment in forms or comment.startswith(tuple(f + ":" for f in forms)), comment
        shown += 1
    assert shown, "the tour shows no values"
