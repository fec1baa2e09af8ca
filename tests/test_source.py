"""The package source keeps every line within 99 characters, so a
shorter ``src/`` cannot come from joining lines."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clustertube"


def test_lines_fit_in_99_characters():
    long = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 99
    ]
    assert PACKAGE.is_dir() and not long
