"""Source style: no line of the package is longer than 88 columns."""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cordesfem"
MAX_COLUMNS = 88


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_lines_fit_88_columns(path):
    long = [f"{path.name}:{number}: {len(line)} columns"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert not long, "\n".join(long)
