"""Compare two directories of CLI outputs cell by cell.

    python tools/diff_outputs.py OLD NEW

Meant for two ``tools/run_recipes.py`` output directories.  Prints one line
per file: ``identical``, or for a ``.csv`` file the number of numeric cells
that differ and their largest absolute and relative differences, |new - old|
and |new - old| / |old| (a cell whose old value is 0 counts its absolute
difference as relative), with cells where both values lie below 1e-20
(roundoff in exactly empty levels) counted apart, followed by one indented ``# key: old -> new`` line per differing metadata
key.  Exits 1 if a file is missing on one side, a CSV header, metadata line,
non-numeric cell or row count differs, or any other file differs at all;
exits 0 otherwise.  If standard output closes early (piped into ``head``),
it stops quietly with exit code 1.
"""

from __future__ import annotations

import os
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


def _metadata_changes(old_meta: list[str], new_meta: list[str]) -> list[str]:
    """``# key: old -> new`` for every metadata key whose value differs."""
    def values(lines):
        return dict(line[2:].partition(" = ")[::2] for line in lines)

    old, new = values(old_meta), values(new_meta)
    return [
        f"# {key}: {old.get(key, '(absent)')} -> {new.get(key, '(absent)')}"
        for key in sorted(old.keys() | new.keys())
        if old.get(key) != new.get(key)
    ]


def compare_csv(old: str, new: str) -> tuple[str, bool]:
    """Verdict on two CSV texts and whether their structure matches.

    The first line counts the differing data cells; each differing metadata
    key follows on a line of its own.
    """
    old_header, old_meta, old_rows = _split(old)
    new_header, new_meta, new_rows = _split(new)
    if old_header != new_header:
        return "header differs", False
    changes = "".join(f"\n    {line}" for line in _metadata_changes(old_meta, new_meta))
    if len(old_rows) != len(new_rows):
        return f"row count differs ({len(old_rows)} vs {len(new_rows)}){changes}", False
    count = tiny_count = 0
    largest = relative = tiny_largest = 0.0
    for i, (a_row, b_row) in enumerate(zip(old_rows, new_rows)):
        if len(a_row) != len(b_row):
            return f"row {i} has {len(a_row)} vs {len(b_row)} cells{changes}", False
        for a, b in zip(a_row, b_row):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None:
                return f"row {i}: non-numeric cell differs ({a!r} vs {b!r}){changes}", False
            if abs(x) < TINY and abs(y) < TINY:
                tiny_count += 1
                tiny_largest = max(tiny_largest, abs(x - y))
            else:
                count += 1
                largest = max(largest, abs(x - y))
                relative = max(relative, abs(y - x) / abs(x) if x != 0.0 else abs(y - x))
    return (
        f"{count} numeric cells differ, max |diff| {largest:.3g}, max |diff / old| {relative:.3g}; "
        f"{tiny_count} cells below {TINY:g} differ, max |diff| {tiny_largest:.3g}{changes}",
        old_meta == new_meta,
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
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: send what is still buffered nowhere, so that
        # the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
