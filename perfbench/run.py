"""dicke3 benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {pencil,grid,store} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src/``.  With ``--trace 0`` the workload runs
as fresh ``dicke3`` CLI processes, one after another (closed loop, one
client), for about ``--seconds``; end-to-end metrics are medians over the
repetitions.  With ``--trace 1`` it runs once untraced and once with spans
around every public function of the layers, and reports per-layer metrics.
Every invocation's output is checked against ``references/``.  The last
line of standard output is one JSON object; a full record, with the run
environment, goes to ``.bench_out/`` and spans to ``.bench_out/trace-*.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracing
from workloads import WORKLOADS, config_for, variant_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

MIN_REPS = 2
SETUP_PER_REP = 2
MIN_SETUP_SAMPLES = 12
SETUP_CODE = "import dicke3.cli as c; c.build_parser()"
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("bytes_computed"):
        return "B"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict, log: Path) -> dict:
    """Run one process to its end; wall time, its own CPU time and peak RSS."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": proc.returncode,
    }


def setup_time(env: dict, work: Path) -> float:
    """Time for a fresh interpreter to import the CLI and build its parser."""
    sample = run_child([sys.executable, "-c", SETUP_CODE], env, work / "setup.log")
    if sample["returncode"] != 0:
        sys.exit("error: cannot import dicke3.cli from " + str(SRC) + ":\n" + (work / "setup.log").read_text())
    return sample["wall_s"]


def run_invocation(workload: str, variant: int, config: Path, rep: Path, env: dict, trace_id: str | None = None) -> dict:
    """One CLI invocation of the workload, checked against its reference."""
    shutil.rmtree(rep, ignore_errors=True)
    rep.mkdir(parents=True)
    cli_argv = [WORKLOADS[workload].command, "--config", str(config), "--out", str(rep / "out.csv")]
    if trace_id is None:
        argv = [sys.executable, "-m", "dicke3.cli", *cli_argv]
    else:
        argv = [sys.executable, str(BENCH / "tracing.py"), str(SRC), str(rep / "spans.json"), trace_id, *cli_argv]
    result = run_child(argv, env, rep / "stderr.log")
    if result["returncode"] != 0:
        result["problems"] = [f"exit code {result['returncode']}: {(rep / 'stderr.log').read_text()[-2000:]}"]
    else:
        result["problems"] = check.check_invocation(workload, variant, rep)
    return result


def count_failed(reps: list[dict]) -> int:
    """Invocations that exited non-zero or failed the output check."""
    return sum(1 for r in reps if r["problems"])


def blas_record() -> dict:
    """OpenBLAS builds numpy and scipy load, with their thread counts."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    record = {}
    for module in (numpy, scipy):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        entry = {"vendor": info.get("name"), "version": info.get("version")}
        libs = glob.glob(os.path.join(os.path.dirname(module.__file__), os.pardir, f"{module.__name__}.libs", "*openblas*"))
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    get_threads = getattr(lib, symbol)
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    entry["threads"] = get_threads()
                    break
        record[module.__name__] = entry
    return record


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_commit": git_commit(),
    }


def run_untraced(args, variant: int, config: Path, work: Path, env: dict) -> tuple[dict, list[dict]]:
    deadline = time.perf_counter() + args.seconds
    setups, reps, rounds = [], [], []
    while True:
        # Set-up samples are spread over the run, so a slow spell of the
        # machine moves their median as little as it moves the repetitions'.
        started = time.perf_counter()
        setups += [setup_time(env, work) for _ in range(SETUP_PER_REP)]
        reps.append(run_invocation(args.workload, variant, config, work / "rep", env))
        rounds.append(time.perf_counter() - started)
        if len(reps) >= MIN_REPS and time.perf_counter() + statistics.median(rounds) > deadline:
            break
    # The time left, too short for another repetition, holds more samples.
    while len(setups) < MIN_SETUP_SAMPLES or time.perf_counter() + statistics.median(setups) < deadline:
        setups.append(setup_time(env, work))
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setups),
    }
    return metrics, reps


def run_traced(args, variant: int, config: Path, work: Path, env: dict) -> tuple[dict, list[dict]]:
    plain = run_invocation(args.workload, variant, config, work / "rep", env)
    trace_id = f"{args.workload}-s{args.seed}"
    traced = run_invocation(args.workload, variant, config, work / "rep", env, trace_id=trace_id)
    spans = json.loads((work / "rep" / "spans.json").read_text())["spans"]
    metrics = tracing.per_layer(spans, traced["wall_s"], plain["wall_s"])
    expected_dim = WORKLOADS[args.workload].dim
    if metrics["solver.ground_state.dim_max"] != expected_dim:
        traced["problems"].append(
            f"ground states solved up to dim {metrics['solver.ground_state.dim_max']:g}, expected {expected_dim}"
        )
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{trace_id}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "variant": variant,
                    "fields": tracing.SPAN_FIELDS, "spans": spans})
    )
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dicke3" / "cli.py").is_file():
        print(f"error: no dicke3 sources at {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    variant = variant_of(args.seed)
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(config_for(args.workload, variant), indent=2) + "\n")
        runner = run_traced if args.trace else run_untraced
        metrics, reps = runner(args, variant, config, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = count_failed(reps)
    units = {name: END_TO_END.get(name) or unit_of(name) for name in metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "trace": args.trace,
        "config": config_for(args.workload, variant),
        "environment": environment(),
        "failed_frac": failed / len(reps),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "invocations": reps,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("# env " + json.dumps(record["environment"]))
    for rep in reps:
        for problem in rep["problems"]:
            print(f"# FAILED {problem}")
    print(f"failed_frac = {record['failed_frac']:.4g} ratio ({failed} of {len(reps)} invocations)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
