"""Run every ``configs/`` recipe through the CLI and keep what it leaves.

    python tools/run_recipes.py OUTDIR

Each recipe runs as committed, one ``python -m dicke3.cli`` process at a
time, against the ``src/`` of the checkout holding this script.  The command
comes from the recipe's file-name prefix.  For every recipe OUTDIR receives
the CSV output(s) under the recipe's name, plus ``<name>.exit`` (the exit
code) and ``<name>.stderr``.  Running it in two checkouts and comparing the
directories with ``diff -r`` shows whether a change moved any output.  Each
recipe's line on standard output also gives the process's wall time, its
own CPU time (user + system) and its peak resident set size (``ru_maxrss``,
both from ``os.wait4``); nothing of it goes to OUTDIR.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = {
    "phase_diagram": "phase-diagram",
    "populations": "populations",
    "rabi_stored_frame": "evolve",
    "rotate_check": "rotate-check",
    "separatrix": "separatrix",
    "spectrum": "spectrum",
    "store_retrieve": "store-retrieve",
}


def command_for(name: str) -> str:
    for prefix, command in COMMANDS.items():
        if name.startswith(prefix):
            return command
    raise SystemExit(f"error: no command for recipe {name!r}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit("usage: python tools/run_recipes.py OUTDIR")
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for recipe in sorted((ROOT / "configs").glob("*.json")):
        name = recipe.stem
        argv = [sys.executable, "-m", "dicke3.cli", command_for(name),
                "--config", str(recipe), "--out", str(out / f"{name}.csv")]
        with open(out / f"{name}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=out, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        (out / f"{name}.exit").write_text(f"{code}\n")
        cpu = usage.ru_utime + usage.ru_stime
        rss = usage.ru_maxrss / 1024  # kilobytes on Linux
        print(f"{name}: exit {code}, wall {wall:.2f} s, cpu {cpu:.2f} s, peak rss {rss:.1f} MB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
