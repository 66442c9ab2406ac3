"""No line of the package or its tests is longer than 100 columns."""
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAX_COLUMNS = 100


def long_lines(root: Path) -> list[str]:
    """``path:line: width`` of every line over MAX_COLUMNS in the .py files
    under root's src/ and tests/."""
    return [f"{path.relative_to(root)}:{number}: {len(line)}"
            for top in ("src", "tests") for path in sorted((root / top).rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_COLUMNS]


def test_no_line_longer_than_100_columns():
    assert (ROOT / "src" / "dtnsat" / "model.py").is_file()
    assert long_lines(ROOT) == []


def test_a_long_line_is_reported(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "wide.py").write_text("x = 1\n" + "#" * (MAX_COLUMNS + 1) + "\n")
    (tmp_path / "tests" / "fits.py").write_text("#" * MAX_COLUMNS + "\n")
    assert long_lines(tmp_path) == [f"src/wide.py:2: {MAX_COLUMNS + 1}"]
