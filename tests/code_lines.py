"""Count the code lines of ``src/``: no blank, comment or docstring line.

A line counts when it holds a token other than a comment, a newline, an
indent or a dedent (by :mod:`tokenize`) and lies outside every docstring,
the leading string statement of a module, class or function (by
:mod:`ast`).  A statement that spans several lines counts each of them.

Run it from anywhere; it needs only the standard library::

    python tests/code_lines.py

It prints one line per file under ``src/`` and the total.  pytest does
not collect this file (no ``test_`` prefix).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines spanned by the docstrings of the module and its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the Python source ``text``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.relative_to(SRC)}: {count}")
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
