"""Alternating parent/change pairs of ``perfbench/run.py`` runs, summarised.

    python tools/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT \
        --workload W --seeds A..B

For every seed N in A..B (both included) it runs
``python3 perfbench/run.py --workload W --seed N --seconds 35 --trace 0`` once
in each checkout, one after the other, the parent first on odd seeds.  Every
run reads bytecode from a fresh cache of its own (``PYTHONPYCACHEPREFIX``,
which the CLI processes it starts inherit), so a checkout holding
``__pycache__`` imports no faster than one that compiles.  An untimed run of
the same workload (``--seconds 0``) fills the cache first: else the first
repetition to import a module compiles it, and ``peak_rss_mb``, the largest
over the repetitions, reads the compiler (grid and store 68.4 and 69.0 MB
against 65.6 and 66.4 MB from a filled cache, on a 2-core host).  Writing
bytecode is switched on for it: under ``PYTHONDONTWRITEBYTECODE`` an empty
prefix would have every process compile numpy and scipy (an import of the
CLI took 1.6-2.2 s that way, against 0.4-0.7 s).  It
prints one workload's entry of a ``BENCH_*.json`` ``benchmark`` block as
JSON: every run's end-to-end metrics, per side their median and inclusive
quartiles and the failed invocations, the pairs in which the change is
lower and the ratio of the medians.  The last line gives the verdict on
``wall_s``: a gain holds when the change is lower in at least 9 of every 10
pairs and its median lies below the parent's by more than the parent's
quartile spread.  Under ``worse`` it lists every end-to-end metric that the
change checkout's ``BENCHMARK.json`` declares whose change median is worse
than the parent's by more than the metric's bound, read as a fraction of
the parent median; an empty list means none got worse.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WIN_SHARE = 0.9  # pairs the change must win
SECONDS = 35  # each run's length, the benchmark's own
METRIC = "wall_s"  # the metric a gain is claimed on


def seeds_of(text: str) -> list[int]:
    """The seeds of ``A..B``, both ends included."""
    first, sep, last = text.partition("..")
    if not sep or int(last) < int(first):
        raise ValueError(f"seeds must be A..B with A <= B, got {text!r}")
    return list(range(int(first), int(last) + 1))


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in a checkout, from a bytecode cache of its
    own that an untimed run fills first: its last output line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        for seconds in (0, SECONDS):
            out = subprocess.run([*argv, "--seconds", str(seconds)], cwd=checkout, env=env,
                                 capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values) -> dict:
    """Median and inclusive quartiles, rounded as in the BENCH files."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summary(seeds, parent: list[dict], change: list[dict]) -> dict:
    """The workload entry of a ``benchmark`` block from each side's run
    records (``run.py``'s last line), in seed order."""
    names = list(parent[0]["metrics"])
    entry = {"pairs": len(seeds), "seeds": list(seeds),
             "first_in_pair": ["parent" if seed % 2 else "change" for seed in seeds]}
    for side, records in (("parent", parent), ("change", change)):
        runs = {name: [round(r["metrics"][name]["value"], 4) for r in records] for name in names}
        entry[side] = {
            "runs": runs,
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "correct": all(r["correct"] for r in records),
            "stats": {name: quartiles(values) for name, values in runs.items()},
        }
    p, c = entry["parent"], entry["change"]
    entry["change_lower_in_pairs"] = {
        name: sum(b < a for a, b in zip(p["runs"][name], c["runs"][name])) for name in names}
    entry["change_over_parent_median"] = {
        name: round(c["stats"][name]["median"] / p["stats"][name]["median"], 4) for name in names}
    return entry


def verdict(entry: dict, metric: str) -> dict:
    """Whether the change lowers ``metric``: lower in at least WIN_SHARE of
    the pairs, and the medians apart by more than the parent's IQR."""
    p, c = entry["parent"]["stats"][metric], entry["change"]["stats"][metric]
    wins, iqr = entry["change_lower_in_pairs"][metric], round(p["q3"] - p["q1"], 4)
    gap = round(p["median"] - c["median"], 4)
    return {
        "metric": metric, "pairs": entry["pairs"], "change_lower_in_pairs": wins,
        "parent_median": p["median"], "change_median": c["median"],
        "change_over_parent_median": entry["change_over_parent_median"][metric],
        "parent_iqr": iqr, "median_difference": gap,
        "met": wins >= WIN_SHARE * entry["pairs"] and gap > iqr,
    }


def end_to_end(checkout: Path) -> list[dict]:
    """The end-to-end metrics (name, bound, better) a checkout's benchmark declares."""
    return json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]


def worse(entry: dict, metrics: list[dict]) -> list[dict]:
    """The metrics whose change median is worse than the parent's by more
    than their bound, a fraction of the parent median."""
    out = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        p, c = entry["parent"]["stats"][name]["median"], entry["change"]["stats"][name]["median"]
        excess = (c - p if metric["better"] == "lower" else p - c) / p
        if excess > bound:
            out.append({"metric": name, "parent_median": p, "change_median": c,
                        "worse_by": round(excess, 4), "bound": bound})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seeds_of)
    args = parser.parse_args(argv)
    runs = {"parent": [], "change": []}
    for seed in args.seeds:
        for side in ("parent", "change") if seed % 2 else ("change", "parent"):
            runs[side].append(run_once(getattr(args, side), args.workload, seed))
            value = runs[side][-1]["metrics"][METRIC]["value"]
            print(f"# seed {seed} {side}: {METRIC} = {value:.4f}", file=sys.stderr, flush=True)
    entry = summary(args.seeds, runs["parent"], runs["change"])
    print(json.dumps(entry, indent=1))
    print(json.dumps({**verdict(entry, METRIC), "worse": worse(entry, end_to_end(args.change))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
