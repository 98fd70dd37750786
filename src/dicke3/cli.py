"""Command-line interface: model parameters in, CSV data out.

Every command emits a header line, `#`-prefixed metadata echoing the
resolved run parameters, and data rows with 12 significant digits.  Values
are deterministic for a given run configuration, including under
``--threads``.  Exit codes: 0 success, 2 invalid configuration, 3 numerical
non-convergence.  Parameters may come from a JSON file (``--config``) with
command-line flags taking precedence.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    phase_diagram,
    ray_pencil,
    separatrix_lambda,
    separatrix_v,
    separatrix_xi,
)
from .basis import BasisState, DimensionLimitError, enumerate_basis
from .model import (
    ModelConfig,
    build_frame_hamiltonian,
    build_hamiltonian,
    rotated_parameters,
    with_couplings,
)
from .operators import Configuration, collective_A
from .rotations import (
    Branch,
    RotationSpec,
    UndefinedAngleError,
    rotation_pair,
    transform_exact,
    transform_generator_closed_form,
)
from .solver import (
    DEFAULT_ENERGY_TOL,
    DEFAULT_TAIL_TOL,
    NonConvergenceError,
    QuantumState,
    converged_ground_state,
    diagonalize,
    evolve,
    ground_state,
    populations,
)
from . import protocol

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    return str(value)


def _render_csv(header: list[str], meta: dict, rows) -> str:
    lines = [",".join(header)]
    for key in sorted(meta):
        lines.append(f"# {key} = {_fmt(meta[key])}")
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _add_model_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--configuration", choices=["xi", "lambda", "v"])
    p.add_argument("--omega1", type=float)
    p.add_argument("--omega2", type=float)
    p.add_argument("--omega3", type=float)
    p.add_argument("--mu12", type=float)
    p.add_argument("--mu13", type=float)
    p.add_argument("--mu23", type=float)
    p.add_argument("--na", type=int)
    p.add_argument("--nmax", type=int, help="photon cutoff; omit for automatic convergence")
    p.add_argument("--Omega", type=float, dest="Omega")
    p.add_argument("--etol", type=float, help="cutoff convergence energy tolerance")
    p.add_argument("--ptol", type=float, help="cutoff convergence tail tolerance")


_MODEL_DEFAULTS = {
    "configuration": None,
    "omega1": 0.0,
    "omega2": 0.0,
    "omega3": 1.0,
    "mu12": 0.0,
    "mu13": 0.0,
    "mu23": 0.0,
    "na": 1,
    "nmax": None,
    "Omega": 1.0,
    "etol": DEFAULT_ENERGY_TOL,
    "ptol": DEFAULT_TAIL_TOL,
}


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Layer defaults, then the JSON config file, then explicit flags."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            file_values = json.load(fh)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ValueError(f"unknown keys in {config_path}: {sorted(unknown)}")
        merged.update(file_values)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    _check_numbers(merged, defaults)
    return merged


def _check_numbers(params: dict, defaults: dict) -> None:
    """Integer-defaulted keys must be integers, float-defaulted ones finite reals."""
    for key, default in defaults.items():
        value = params[key]
        if isinstance(default, bool) or not isinstance(default, (int, float)):
            continue
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if isinstance(default, int):
            ok, kind = number and isinstance(value, numbers.Integral), "an integer"
        else:
            ok, kind = number and math.isfinite(value), "a finite real number"
        if not ok:
            raise ValueError(f"{key} must be {kind}, got {value!r}")


def _model_from(params: dict, nmax: int) -> ModelConfig:
    if params["configuration"] is None:
        raise ValueError("a configuration (xi, lambda or v) is required")
    return ModelConfig(
        cfg=Configuration.from_label(params["configuration"]),
        omega1=params["omega1"],
        omega2=params["omega2"],
        omega3=params["omega3"],
        mu12=params["mu12"],
        mu13=params["mu13"],
        mu23=params["mu23"],
        na=params["na"],
        nmax=nmax,
        Omega=params["Omega"],
    )


def _resolve_cutoff(
    params: dict, *, at_couplings: tuple[float, float] | None = None
) -> tuple[int, QuantumState | None]:
    """Fixed --nmax wins; otherwise converge, optionally at given couplings.

    Returns the cutoff and, when it was converged, the unrotated ground
    state the search ended on (None for a fixed --nmax).
    """
    if params["nmax"] is not None:
        return params["nmax"], None
    probe = _model_from(params, nmax=8)
    if at_couplings is not None:
        probe = with_couplings(probe, *at_couplings)
    return converged_ground_state(probe, params["etol"], params["ptol"])


def _branch_option(value: str | None) -> Branch | None:
    if value in (None, "none"):
        return None
    return Branch.from_label(value)


def cmd_spectrum(args) -> int:
    params = _resolve(args, {**_MODEL_DEFAULTS, "rotated": "none", "band_labels": False})
    rotated = _branch_option(params["rotated"])
    nmax, _ = _resolve_cutoff(params)
    m = _model_from(params, nmax)
    basis = enumerate_basis(m.na, m.nmax)
    spec = diagonalize(build_frame_hamiltonian(m, basis, rotated), basis)

    meta = {**params, "nmax": nmax, "dim": basis.dim}
    header = ["index", "energy"]
    label_values = None
    if params["band_labels"]:
        if rotated is None:
            raise ValueError("band labels require a rotated frame")
        rp = rotated_parameters(m, rotated)
        if rp.lambda_t != 0.0:
            raise ValueError(
                "band labels require a vanishing one-body coupling "
                f"(lambda_t = {rp.lambda_t:g})"
            )
        counts = basis.level_counts[:, rp.isolated_level - 1]
        label_values = np.rint((spec.vectors**2).T @ counts).astype(int)
        header.append("n_isolated")
        meta["isolated_level"] = rp.isolated_level
    rows = []
    for i, e in enumerate(spec.energies):
        row = [i, e] if label_values is None else [i, e, label_values[i]]
        rows.append(row)
    _emit(args.out, _render_csv(header, meta, rows))
    return EXIT_OK


def cmd_populations(args) -> int:
    params = _resolve(
        args,
        {**_MODEL_DEFAULTS, "grid": 21, "mu_max": 2.0, "frame": None},
    )
    frames = (
        [params["frame"]] if params["frame"] else ["unrotated", "first", "second"]
    )
    if args.out is None and len(frames) > 1:
        raise ValueError("--out is required when emitting all three frames")
    values = np.linspace(0.0, params["mu_max"], params["grid"])
    nmax, _ = _resolve_cutoff(params, at_couplings=(params["mu_max"], params["mu_max"]))
    m0 = _model_from(params, nmax)
    basis = enumerate_basis(m0.na, m0.nmax)

    for frame in frames:
        rotated = _branch_option(frame if frame != "unrotated" else None)
        rows = []
        skipped_origin = False
        for mu_a in values:
            for mu_b in values:
                if rotated is not None and mu_a == 0.0 and mu_b == 0.0:
                    skipped_origin = True  # decoupling angle undefined there
                    continue
                m = with_couplings(m0, mu_a, mu_b)
                H = build_frame_hamiltonian(m, basis, rotated)
                a11, a22, a33, nph = populations(ground_state(H, basis))
                rows.append([mu_a, mu_b, a11, a22, a33, nph])
        meta = {**params, "frame": frame, "nmax": nmax}
        if skipped_origin:
            meta["note"] = "origin skipped: rotation undefined at zero couplings"
        text = _render_csv(
            ["mu_a", "mu_b", "a11", "a22", "a33", "nphot"], meta, rows
        )
        if args.out is None:
            _emit(None, text)
        else:
            path = Path(args.out)
            _emit(str(path.with_name(f"{path.stem}_{frame}{path.suffix}")), text)
    return EXIT_OK


def cmd_phase_diagram(args) -> int:
    params = _resolve(
        args,
        {
            **_MODEL_DEFAULTS,
            "rotated": "none",
            "rays": 37,
            "s_max": 1.5,
            "dmu": 0.01,
            "threads": 1,
        },
    )
    rotated = _branch_option(params["rotated"])
    m = _model_from(params, nmax=8)
    diagram = phase_diagram(
        m,
        ray_pencil(params["rays"]),
        params["s_max"],
        params["dmu"],
        rotated=rotated,
        workers=params["threads"],
        etol=params["etol"],
        ptol=params["ptol"],
    )
    rows = [
        [locus.theta, locus.s, locus.mu_a, locus.mu_b, locus.fidelity]
        for locus in diagram.minima
    ]
    _emit(
        args.out,
        _render_csv(["theta", "s", "mu_a", "mu_b", "fidelity"], params, rows),
    )
    return EXIT_OK


def cmd_separatrix(args) -> int:
    params = _resolve(
        args, {**_MODEL_DEFAULTS, "samples": 101, "mu_max": 2.0}
    )
    if params["configuration"] is None:
        raise ValueError("a configuration (xi, lambda or v) is required")
    cfg = Configuration.from_label(params["configuration"])
    Om = params["Omega"]
    w21 = params["omega2"] - params["omega1"]
    w31 = params["omega3"] - params["omega1"]
    rows = []
    if cfg is Configuration.V:
        for theta in np.linspace(0.0, np.pi / 2, params["samples"]):
            r = separatrix_v(Om, w21, w31, theta)
            rows.append([r * np.cos(theta), r * np.sin(theta)])
        header = ["mu12", "mu13"]
    elif cfg is Configuration.XI:
        for mu23 in np.linspace(0.0, params["mu_max"], params["samples"]):
            mu12 = separatrix_xi(Om, w21, w31, mu23)
            if mu12 is not None:
                rows.append([mu12, mu23])
        header = ["mu12", "mu23"]
    else:
        for mu23 in np.linspace(0.0, params["mu_max"], params["samples"]):
            mu13 = separatrix_lambda(Om, w21, w31, mu23)
            if mu13 is not None:
                rows.append([mu23, mu13])
        header = ["mu23", "mu13"]
    _emit(args.out, _render_csv(header, params, rows))
    return EXIT_OK


def cmd_store_retrieve(args) -> int:
    params = _resolve(args, dict(_MODEL_DEFAULTS))
    nmax, initial = _resolve_cutoff(params)
    m = _model_from(params, nmax)
    if initial is None:
        basis = enumerate_basis(m.na, m.nmax)
        initial = ground_state(build_hamiltonian(m, basis), basis)
    stored, stored_content = protocol.store(m, initial)
    retrieved, retrieved_content = protocol.retrieve(m, stored)

    rows = []
    for stage, state in (
        ("initial", initial),
        ("stored", stored),
        ("retrieved", retrieved),
    ):
        a11, a22, a33, nph = populations(state)
        rows.append([stage, a11, a22, a33, nph])
    meta = {
        **params,
        "nmax": nmax,
        "content_overlap": protocol.content_overlap(stored_content, retrieved_content),
        "stored_sector_weight": stored_content.sector_weight,
        "retrieved_sector_weight": retrieved_content.sector_weight,
        "stored_isolated_level": stored_content.isolated_level,
        "retrieved_isolated_level": retrieved_content.isolated_level,
        "detuned": stored_content.detuned,
    }
    _emit(
        args.out,
        _render_csv(["stage", "a11", "a22", "a33", "nphot"], meta, rows),
    )
    return EXIT_OK


def cmd_rotate_check(args) -> int:
    params = _resolve(args, {"na": 2, "nmax": 2, "samples": 20, "seed": 0})
    rng = np.random.default_rng(params["seed"])
    basis = enumerate_basis(params["na"], params["nmax"])
    rows = []
    overall = 0.0
    for j, k in (rotation_pair(cfg) for cfg in Configuration):
        angles = rng.uniform(-np.pi, np.pi, params["samples"])
        for l in (1, 2, 3):
            for m_ in (1, 2, 3):
                worst = 0.0
                for alpha in angles:
                    spec = RotationSpec(j, k, float(alpha))
                    A = collective_A(basis, l, m_)
                    exact = transform_exact(spec, A, basis).matrix
                    closed = transform_generator_closed_form(spec, l, m_, basis).matrix
                    worst = max(worst, float(np.max(np.abs(exact - closed))))
                rows.append([f"K{j}{k}", l, m_, worst])
                overall = max(overall, worst)
    meta = {**params, "max_error": overall}
    _emit(args.out, _render_csv(["rotation", "l", "m", "max_error"], meta, rows))
    return EXIT_OK


def cmd_evolve(args) -> int:
    params = _resolve(
        args,
        {
            **_MODEL_DEFAULTS,
            "rotated": "none",
            "initial": None,
            "t_max": 50.0,
            "t_steps": 501,
        },
    )
    rotated = _branch_option(params["rotated"])
    nmax, _ = _resolve_cutoff(params)
    m = _model_from(params, nmax)
    basis = enumerate_basis(m.na, m.nmax)
    H = build_frame_hamiltonian(m, basis, rotated)
    spec = diagonalize(H, basis)
    if params["initial"] is None:
        state = ground_state(H, basis)
    else:
        occ = [int(x) for x in str(params["initial"]).split(",")]
        if len(occ) != 4:
            raise ValueError("--initial must be 'nu,n1,n2,n3'")
        try:
            pos = basis.index[BasisState(*occ)]
        except KeyError:
            raise ValueError(f"initial state {occ} is not in the basis") from None
        amps = np.zeros(basis.dim, dtype=complex)
        amps[pos] = 1.0
        state = QuantumState(amps, basis)
    rows = []
    for t in np.linspace(0.0, params["t_max"], params["t_steps"]):
        a11, a22, a33, nph = populations(evolve(spec, state, t))
        rows.append([t, a11, a22, a33, nph])
    meta = {**params, "nmax": nmax}
    _emit(args.out, _render_csv(["t", "a11", "a22", "a33", "nphot"], meta, rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke3",
        description="Exact diagonalization of three-level collective atom-field models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, model=True):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="JSON file with run parameters")
        p.add_argument("--out", help="output path (default: stdout)")
        if model:
            _add_model_arguments(p)
        p.set_defaults(func=func)
        return p

    p = add("spectrum", cmd_spectrum, "eigenvalues, optionally with frozen-level band labels")
    p.add_argument("--rotated", choices=["none", "first", "second"])
    p.add_argument("--band-labels", action="store_true", dest="band_labels", default=None)

    p = add("populations", cmd_populations, "level populations over a coupling grid")
    p.add_argument("--grid", type=int)
    p.add_argument("--mu-max", type=float, dest="mu_max")
    p.add_argument("--frame", choices=["unrotated", "first", "second"])

    p = add("phase-diagram", cmd_phase_diagram, "fidelity-minima loci over a ray pencil")
    p.add_argument("--rotated", choices=["none", "first", "second"])
    p.add_argument("--rays", type=int)
    p.add_argument("--s-max", type=float, dest="s_max")
    p.add_argument("--dmu", type=float)
    p.add_argument("--threads", type=int)

    p = add("separatrix", cmd_separatrix, "closed-form variational phase boundary")
    p.add_argument("--samples", type=int)
    p.add_argument("--mu-max", type=float, dest="mu_max")

    add("store-retrieve", cmd_store_retrieve, "qubit store/retrieve report")

    p = add("rotate-check", cmd_rotate_check, "closed-form rotations vs exponential oracle", model=False)
    p.add_argument("--na", type=int)
    p.add_argument("--nmax", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    p = add("evolve", cmd_evolve, "populations under time evolution")
    p.add_argument("--rotated", choices=["none", "first", "second"])
    p.add_argument("--initial", help="basis state 'nu,n1,n2,n3' (default: ground state)")
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--t-steps", type=int, dest="t_steps")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, UndefinedAngleError, DimensionLimitError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
