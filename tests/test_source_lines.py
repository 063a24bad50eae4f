"""Source layout rules that no linter in the toolchain enforces."""

from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "riordan").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_source_line_exceeds_100_columns(path):
    long = [
        n for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100
    ]
    assert long == [], f"{path.name}: lines over 100 columns: {long}"
