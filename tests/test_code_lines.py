"""The code-line counter (``code_lines.py``) counts what it says it counts."""

from code_lines import SRC, code_lines, main

SOURCE = '''"""A module docstring,
over two lines."""

# a comment

import os  # a trailing comment


def f(x):
    """A function docstring."""
    # another comment
    total = (x +
             1 +
             2)

    return total


class C:
    """A class docstring."""

    y = "a string that is no docstring"
'''


def test_code_lines_of_a_small_source_is_its_hand_count():
    # import, def, the three lines of one statement, return, class and y
    assert code_lines(SOURCE) == 8


def test_main_prints_each_source_file_and_their_sum(capsys):
    assert main() == 0
    *files, total = capsys.readouterr().out.splitlines()
    paths = sorted(SRC.rglob("*.py"))
    assert files == [f"{path.relative_to(SRC)}: {code_lines(path.read_text())}"
                     for path in paths]
    assert total == f"total: {sum(int(line.rsplit(': ', 1)[1]) for line in files)}"
