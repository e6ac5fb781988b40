"""Source style: no line of the package, of the scripts or of the tests is
longer than 88 columns."""

from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cordesfem"
SCRIPTS = TESTS.parent / "scripts"
PATHS = (sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
         + sorted(TESTS.glob("*.py")))
MAX_COLUMNS = 88


@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.name)
def test_lines_fit_88_columns(path):
    long = [f"{path.name}:{number}: {len(line)} columns"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert not long, "\n".join(long)
