"""Compare two directories of CLI outputs cell by cell.

    python tools/diff_outputs.py OLD NEW

Meant for two ``tools/run_recipes.py`` output directories.  Prints one line
per file: ``identical``, or for a ``.csv`` file the number of numeric cells
that differ and their largest absolute difference, with cells where both
values lie below 1e-20 (roundoff in exactly empty levels) counted apart.
Exits 1 if a file is missing on one side, a CSV header, metadata line,
non-numeric cell or row count differs, or any other file differs at all;
exits 0 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

TINY = 1e-20


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _split(text: str) -> tuple[str, list[str], list[list[str]]]:
    """(header, metadata lines, data rows) of one CLI CSV output."""
    lines = text.splitlines()
    header = lines[0] if lines else ""
    meta = [line for line in lines[1:] if line.startswith("#")]
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    return header, meta, rows


def compare_csv(old: str, new: str) -> tuple[str, bool]:
    """One-line verdict on two CSV texts and whether their structure matches."""
    old_header, old_meta, old_rows = _split(old)
    new_header, new_meta, new_rows = _split(new)
    if old_header != new_header:
        return "header differs", False
    if old_meta != new_meta:
        return "metadata differs", False
    if len(old_rows) != len(new_rows):
        return f"row count differs ({len(old_rows)} vs {len(new_rows)})", False
    count = tiny_count = 0
    largest = tiny_largest = 0.0
    for i, (a_row, b_row) in enumerate(zip(old_rows, new_rows)):
        if len(a_row) != len(b_row):
            return f"row {i} has {len(a_row)} vs {len(b_row)} cells", False
        for a, b in zip(a_row, b_row):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None:
                return f"row {i}: non-numeric cell differs ({a!r} vs {b!r})", False
            if abs(x) < TINY and abs(y) < TINY:
                tiny_count += 1
                tiny_largest = max(tiny_largest, abs(x - y))
            else:
                count += 1
                largest = max(largest, abs(x - y))
    return (
        f"{count} numeric cells differ, max |diff| {largest:.3g}; "
        f"{tiny_count} cells below {TINY:g} differ, max |diff| {tiny_largest:.3g}",
        True,
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/diff_outputs.py OLD NEW", file=sys.stderr)
        return 2
    old_dir, new_dir = (Path(arg) for arg in argv)
    names = sorted(
        {p.relative_to(old_dir) for p in old_dir.rglob("*") if p.is_file()}
        | {p.relative_to(new_dir) for p in new_dir.rglob("*") if p.is_file()}
    )
    ok = True
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.is_file() and new.is_file()):
            verdict, same_shape = f"only in {old_dir if old.is_file() else new_dir}", False
        elif old.read_bytes() == new.read_bytes():
            verdict, same_shape = "identical", True
        elif name.suffix == ".csv":
            verdict, same_shape = compare_csv(old.read_text(), new.read_text())
        else:
            verdict, same_shape = "differs", False
        ok &= same_shape
        print(f"{name}: {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
