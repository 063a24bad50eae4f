"""The standing mutant suite (``mutants.py``) still aims where it says.

The full run, which applies each mutant and runs its tests, is opt-in
(``python tests/mutants.py``).  These checks are cheap: a refactor that
moves a mutant's code or renames its tests must update the mutant rather
than silently lose it.
"""

import ast

import pytest
from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_snippet_occurs_once_and_its_mutant_parses(mutant):
    text = (ROOT / "src" / mutant.path).read_text()
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    ast.parse(text.replace(mutant.snippet, mutant.replacement))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_named_test_exists(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        tree = ast.parse((ROOT / path).read_text())
        defined = {item.name for item in tree.body if isinstance(item, ast.FunctionDef)}
        assert name.split("[")[0] in defined, node
