"""The three benchmark workloads and the inputs each seed gives them.

Every workload is one ``dicke3`` CLI invocation per repetition.  A seed is
folded onto one of ``VARIANTS`` parameter variants; the reference outputs
under ``references/`` hold one file set per variant.  Variant 0 is the
committed recipe the workload is cut from.  The other variants move one
parameter inside a range that leaves the converged photon cutoff, and so
the basis dimension, unchanged; ``make_references.py`` checks and records
that for every variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

VARIANTS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    na: int
    nmax: int  # converged photon cutoff, the same for every variant
    outputs: tuple[str, ...]  # files one invocation writes into its work directory

    @property
    def atomic_dim(self) -> int:
        return (self.na + 1) * (self.na + 2) // 2

    @property
    def dim(self) -> int:
        return (self.nmax + 1) * self.atomic_dim


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pencil", "phase-diagram", na=2, nmax=32, outputs=("out.csv",)),
        Workload(
            "grid",
            "populations",
            na=4,
            nmax=128,
            outputs=("out_unrotated.csv", "out_first.csv", "out_second.csv"),
        ),
        Workload("store", "store-retrieve", na=8, nmax=64, outputs=("out.csv",)),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _offset(variant: int) -> float:
    """0 for variant 0, then -1/8, +1/8, -2/8, ... down to -1."""
    half = VARIANTS // 2
    return (-1) ** variant * math.ceil(variant / 2) / half


def config_for(workload: str, variant: int) -> dict:
    """The JSON run configuration the CLI receives for one variant."""
    x = _offset(variant)
    if workload == "pencil":
        # The phase_diagram_xi_resonant recipe on every third of its 37 rays
        # (13 rays keep theta = pi/2).  Step and radius scale together by up
        # to 4%, so every ray keeps 150 points and nmax = 32.
        dmu = 0.01 * (1.0 + 0.04 * x)
        return {
            "configuration": "xi",
            "omega1": 0.0,
            "omega2": 1.0,
            "omega3": 2.0,
            "na": 2,
            "rays": 13,
            "s_max": 150 * dmu,
            "dmu": dmu,
            "threads": 1,
        }
    if workload == "grid":
        # populations_v_equal on a 3x3 grid; mu_max = 2 fixes nmax = 128.  The
        # common upper level frequency moves by up to 10%.
        w = 1.0 + 0.1 * x
        return {
            "configuration": "v",
            "omega1": 0.0,
            "omega2": w,
            "omega3": w,
            "na": 4,
            "grid": 3,
            "mu_max": 2.0,
        }
    if workload == "store":
        # Lambda at equal detuning: the spectrum depends on the coupling
        # radius only, so the angle moves freely at radius 1 (variant 0 is
        # store_retrieve_lambda's mu13 = 0.6, mu23 = 0.8) with nmax = 64.
        if variant == 0:
            mu13, mu23 = 0.6, 0.8
        else:
            angle = math.atan2(0.8, 0.6) + 0.55 * x
            mu13, mu23 = math.cos(angle), math.sin(angle)
        return {
            "configuration": "lambda",
            "omega1": 0.0,
            "omega2": 0.0,
            "omega3": 1.0,
            "mu13": mu13,
            "mu23": mu23,
            "na": 8,
        }
    raise ValueError(f"unknown workload {workload!r}")
