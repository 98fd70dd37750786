"""Regenerate the reference outputs and the per-variant cutoff record.

    python3 perfbench/make_references.py [workload ...]

Runs every variant of the named workloads (default: all) once through the
CLI and stores its outputs under ``references/<workload>/vNN/``.  For each
variant it also records the converged photon cutoff and basis dimension in
``references/<workload>/variants.json`` and stops with an error if any
variant leaves the cutoff the workload declares.  Regenerate only at a
commit whose outputs are trusted: the benchmark checks every later run
against these files.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import check
from run import SRC, WORK, child_env, run_child
from workloads import VARIANTS, WORKLOADS, config_for


def pencil_cutoffs(config: dict) -> set[int]:
    """Converged cutoff of every ray, as the phase-diagram command finds it."""
    sys.path.insert(0, str(SRC))
    import dicke3 as d3

    base = d3.ModelConfig(d3.Configuration.XI, config["omega1"], config["omega2"], config["omega3"],
                          0.0, 0.0, 0.0, na=config["na"], nmax=8)
    n_steps = int(np.floor(config["s_max"] / config["dmu"] + 1e-9))
    if n_steps != 150:
        raise SystemExit(f"pencil variant has {n_steps} points per ray, expected 150")
    s_outer = config["dmu"] * n_steps
    return {
        d3.converge_cutoff(d3.with_couplings(base, s_outer * np.cos(t), s_outer * np.sin(t)))
        for t in d3.ray_pencil(config["rays"])
    }


def main(names: list[str]) -> int:
    env = child_env()
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        record = []
        for variant in range(VARIANTS):
            config = config_for(name, variant)
            work = WORK / f"references-{name}-v{variant:02d}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            (work / "config.json").write_text(json.dumps(config, indent=2) + "\n")
            argv = [sys.executable, "-m", "dicke3.cli", wl.command,
                    "--config", str(work / "config.json"), "--out", str(work / "out.csv")]
            result = run_child(argv, env, work / "stderr.log")
            if result["returncode"] != 0:
                raise SystemExit((work / "stderr.log").read_text())
            target = check.reference_path(name, variant, "")
            target.mkdir(parents=True, exist_ok=True)
            cutoffs = set()
            for output in wl.outputs:
                text = (work / output).read_text()
                problems = check.invariants(name, text)
                if problems:
                    raise SystemExit(f"{name} v{variant}: {problems}")
                (target / output).write_text(text)
                meta = check.metadata(check.parse(text)[1])
                if meta["nmax"] != "None":
                    cutoffs.add(int(meta["nmax"]))
            if name == "pencil":
                cutoffs = pencil_cutoffs(config)
            if cutoffs != {wl.nmax}:
                raise SystemExit(f"{name} v{variant}: converged cutoffs {cutoffs}, expected {wl.nmax}")
            record.append({"variant": variant, "config": config, "nmax": wl.nmax, "dim": wl.dim,
                           "wall_s": round(result["wall_s"], 2)})
            print(f"{name} v{variant:02d}: nmax {wl.nmax}, dim {wl.dim}, {result['wall_s']:.1f} s", flush=True)
            shutil.rmtree(work)
        (check.REFERENCE_DIR / name / "variants.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
