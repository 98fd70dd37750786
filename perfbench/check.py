"""Output check: each CLI output against its stored reference, plus invariants.

A CLI output is one header line, ``# key = value`` metadata lines and data
rows.  The header and every metadata line must equal the reference exactly.
Data cells that parse as numbers must agree within ``ATOL + RTOL * |ref|``;
other cells must be equal.  The tolerance allows for a different but
correct eigensolver or summation order; it is far tighter than any physical
effect the workloads show.
"""

from __future__ import annotations

from pathlib import Path

from workloads import WORKLOADS

RTOL = 1e-7
ATOL = 1e-9
POPULATION_SUM_TOL = 1e-9  # rows carry 12 significant digits
OVERLAP_FLOOR = 1.0 - 1e-10
ISOLATED_CEILING = 1e-10

REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def reference_path(workload: str, variant: int, output: str) -> Path:
    return REFERENCE_DIR / workload / f"v{variant:02d}" / output


def parse(text: str) -> tuple[str, list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    meta = [ln for ln in lines[1:] if ln.startswith("#")]
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    return lines[0], meta, rows


def metadata(meta: list[str]) -> dict[str, str]:
    """The ``# key = value`` metadata lines of an output, as a dict."""
    return dict(ln[2:].split(" = ", 1) for ln in meta)


def _cell_matches(got: str, ref: str) -> bool:
    try:
        g, r = float(got), float(ref)
    except ValueError:
        return got == ref
    return abs(g - r) <= ATOL + RTOL * abs(r)


def compare(text: str, reference: str) -> list[str]:
    """Differences between one output and its reference, empty if none."""
    header, meta, rows = parse(text)
    ref_header, ref_meta, ref_rows = parse(reference)
    problems = []
    if header != ref_header:
        problems.append(f"header {header!r} != {ref_header!r}")
    if meta != ref_meta:
        changed = sorted(set(meta) ^ set(ref_meta))
        problems.append(f"metadata differs: {changed}")
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} data rows, reference has {len(ref_rows)}")
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref_row) or not all(map(_cell_matches, row, ref_row)):
            problems.append(f"row {i}: {','.join(row)} != {','.join(ref_row)}")
    return problems


def invariants(workload: str, text: str) -> list[str]:
    """Physical invariants the workload's output must satisfy on its own."""
    header, meta, rows = parse(text)
    problems = []
    if workload == "grid":
        na = WORKLOADS["grid"].na
        for row in rows:
            total = sum(float(row[i]) for i in (2, 3, 4))
            if abs(total - na) > POPULATION_SUM_TOL:
                problems.append(f"a11+a22+a33 = {total!r} != {na} at {row[:2]}")
    elif workload == "store":
        values = metadata(meta)
        overlap = float(values["content_overlap"])
        if not overlap > OVERLAP_FLOOR:
            problems.append(f"content_overlap {overlap!r} <= {OVERLAP_FLOOR!r}")
        level = int(values["stored_isolated_level"])
        stored = next(row for row in rows if row[0] == "stored")
        population = float(stored[level])
        if not population < ISOLATED_CEILING:
            problems.append(f"stored level-{level} population {population!r}")
    return problems


def check_invocation(workload: str, variant: int, out_dir: Path) -> list[str]:
    """All problems with one invocation's outputs in ``out_dir``."""
    problems = []
    for output in WORKLOADS[workload].outputs:
        path = out_dir / output
        if not path.is_file():
            problems.append(f"{output}: missing")
            continue
        text = path.read_text()
        reference = reference_path(workload, variant, output).read_text()
        try:
            found = compare(text, reference) + invariants(workload, text)
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            found = [f"unreadable output: {exc!r}"]
        problems += [f"{output}: {p}" for p in found]
    return problems
