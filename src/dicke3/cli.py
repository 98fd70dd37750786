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
from .basis import BasisSet, BasisState, DimensionLimitError, enumerate_basis, index_of
from .model import (
    ModelConfig,
    build_hamiltonian,
    rotated_parameters,
    with_couplings,
)
from .operators import Configuration, atomic_collective_matrix
from .rotations import (
    Branch,
    UndefinedAngleError,
    atomic_rotation_matrix,
    decoupling_angle,
    rotate_amplitudes,
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

# Flag settings the default cannot give; every other flag takes its default's
# type, and a boolean default makes a switch.
_FLAG_SETTINGS = {
    "configuration": {"choices": ["xi", "lambda", "v"]},
    "rotated": {"choices": ["none", "first", "second"]},
    "frame": {"choices": ["unrotated", "first", "second"]},
    "nmax": {"type": int, "help": "photon cutoff; model commands converge it when omitted"},
    "initial": {"help": "basis state 'nu,n1,n2,n3' (default: ground state)"},
    "etol": {"help": "cutoff convergence energy tolerance"},
    "ptol": {"help": "cutoff convergence tail tolerance"},
}


# Floors of the counts; zero grid points, times or samples give an empty table.
_MINIMA = {"threads": 1, "grid": 0, "t_steps": 0, "samples": 0}
# Times evolved at once by `evolve`, which so holds one chunk of states.
EVOLVE_CHUNK = 64


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(values, dict):
        raise ValueError(f"config file {path} must hold a JSON object of run parameters")
    return values


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Layer defaults, then the JSON config file, then explicit flags."""
    merged = dict(defaults)
    if args.config:
        file_values = _read_config(args.config)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ValueError(f"unknown keys in {args.config}: {sorted(unknown)}")
        merged.update(file_values)
    for key in defaults:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    _check_numbers(merged, defaults)
    return merged


def _check_numbers(params: dict, defaults: dict) -> None:
    """Integer-defaulted keys must be integers (at least any _MINIMA),
    float-defaulted ones finite reals, boolean-defaulted ones true or false,
    and keys whose flag has choices one of them (or null where the default is null)."""
    for key, default in defaults.items():
        value = params[key]
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        choices = _FLAG_SETTINGS.get(key, {}).get("choices")
        if choices:
            ok = value in choices or (value is None and default is None)
            kind = f"one of {choices}" if isinstance(value, str) else "a string"
            kind += " or null" if default is None else ""
        elif isinstance(default, bool):
            ok, kind = isinstance(value, bool), "true or false"
        elif isinstance(default, int):
            ok, kind = number and isinstance(value, numbers.Integral), "an integer"
        elif isinstance(default, float):
            ok, kind = number and math.isfinite(value), "a finite real number"
        else:
            continue
        if not ok:
            raise ValueError(f"{key} must be {kind}, got {value!r}")
        if key in _MINIMA and value < _MINIMA[key]:
            raise ValueError(f"{key} must be at least {_MINIMA[key]}, got {value!r}")


def _model_from(params: dict, nmax: int) -> ModelConfig:
    if params["configuration"] is None:
        raise ValueError("a configuration (xi, lambda or v) is required")
    names = ("omega1", "omega2", "omega3", "mu12", "mu13", "mu23", "na", "Omega")
    cfg = Configuration.from_label(params["configuration"])
    return ModelConfig(cfg, nmax=nmax, **{name: params[name] for name in names})


def _resolve_model(
    params: dict, *, at_couplings: tuple[float, float] | None = None
) -> tuple[ModelConfig, BasisSet, QuantumState | None]:
    """Model and basis at the cutoff: fixed --nmax wins; otherwise converge,
    optionally at given couplings.

    Also returns, when the cutoff was converged, the unrotated ground state
    the search ended on (None for a fixed --nmax).
    """
    nmax, state = params["nmax"], None
    if nmax is None:
        probe = _model_from(params, nmax=8)
        if at_couplings is not None:
            probe = with_couplings(probe, *at_couplings)
        nmax, state = converged_ground_state(probe, params["etol"], params["ptol"])
    m = _model_from(params, nmax)
    basis = enumerate_basis(m.na, nmax) if state is None else state.basis
    return m, basis, state


def _branch_option(value: str | None) -> Branch | None:
    if value in (None, "none"):
        return None
    return Branch.from_label(value)


def cmd_spectrum(params: dict, out: str | None) -> int:
    rotated = _branch_option(params["rotated"])
    if params["band_labels"]:  # checked before the cutoff search, which changes nothing they read
        if rotated is None:
            raise ValueError("band labels require a rotated frame")
        rp = rotated_parameters(_model_from(params, nmax=8), rotated)
        if rp.lambda_t != 0.0:
            raise ValueError(
                "band labels require a vanishing one-body coupling "
                f"(lambda_t = {rp.lambda_t:g})"
            )
    m, basis, _ = _resolve_model(params)
    spec = diagonalize(build_hamiltonian(m, basis, rotated), basis)

    meta = {**params, "nmax": m.nmax, "dim": basis.dim}
    header = ["index", "energy"]
    label_values = None
    if params["band_labels"]:
        # every sector holds one isolated-level count: read it off its first state
        counts = basis.level_counts[:, rp.isolated_level - 1]
        label_values = spec.merged([np.full(e.size, counts[idx[0]]) for idx, e, _ in spec.sectors])
        header.append("n_isolated")
        meta["isolated_level"] = rp.isolated_level
    rows = []
    for i, e in enumerate(spec.energies):
        row = [i, e] if label_values is None else [i, e, label_values[i]]
        rows.append(row)
    _emit(out, _render_csv(header, meta, rows))
    return EXIT_OK


def cmd_populations(params: dict, out: str | None) -> int:
    frames = (
        [params["frame"]] if params["frame"] else ["unrotated", "first", "second"]
    )
    if out is None and len(frames) > 1:
        raise ValueError("--out is required when emitting all three frames")
    if params["mu_max"] < 0:  # else the corner's couplings fail, naming a key never set
        raise ValueError(f"mu_max must be nonnegative, got {params['mu_max']!r}")
    values = np.linspace(0.0, params["mu_max"], params["grid"])
    corner = (params["mu_max"], params["mu_max"])
    m0, basis, corner_state = _resolve_model(params, at_couplings=corner)

    # Every frame's rotation acts on the atomic factor, so a rotated frame's
    # ground state is the unrotated one turned by its decoupling angle: each
    # point is solved once, and the cutoff search's state is reused at the
    # corner it was converged at.
    branches = {frame: _branch_option(frame if frame != "unrotated" else None) for frame in frames}
    rows = {frame: [] for frame in frames}
    for mu_a in values:
        for mu_b in values:
            at_origin = mu_a == 0.0 and mu_b == 0.0  # no decoupling angle there
            wanted = [f for f in frames if branches[f] is None or not at_origin]
            if not wanted:
                continue
            m = with_couplings(m0, mu_a, mu_b)
            if corner_state is not None and (mu_a, mu_b) == corner:
                psi = corner_state
            else:
                psi = ground_state(build_hamiltonian(m, basis), basis)
            for frame in wanted:
                state = psi
                if branches[frame] is not None:
                    alpha = decoupling_angle(m, branches[frame])
                    amps = rotate_amplitudes(m.cfg, alpha, psi.amplitudes, basis)
                    state = QuantumState(amps, basis)
                rows[frame].append([mu_a, mu_b, *populations(state)])

    origin_seen = params["grid"] > 0  # the grid starts at 0.0
    for frame in frames:
        meta = {**params, "frame": frame, "nmax": m0.nmax}
        if origin_seen and branches[frame] is not None:
            meta["note"] = "origin skipped: rotation undefined at zero couplings"
        text = _render_csv(
            ["mu_a", "mu_b", "a11", "a22", "a33", "nphot"], meta, rows[frame]
        )
        if out is None:
            _emit(None, text)
        else:
            path = Path(out)
            _emit(str(path.with_name(f"{path.stem}_{frame}{path.suffix}")), text)
    return EXIT_OK


def cmd_phase_diagram(params: dict, out: str | None) -> int:
    if params["nmax"] is not None:
        raise ValueError("nmax cannot be set for phase-diagram: every ray converges its own cutoff")
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
        out,
        _render_csv(["theta", "s", "mu_a", "mu_b", "fidelity"], params, rows),
    )
    return EXIT_OK


def cmd_separatrix(params: dict, out: str | None) -> int:
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
    _emit(out, _render_csv(header, params, rows))
    return EXIT_OK


def cmd_store_retrieve(params: dict, out: str | None) -> int:
    m, basis, initial = _resolve_model(params)
    if initial is None:
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
        "nmax": m.nmax,
        "content_overlap": protocol.content_overlap(stored_content, retrieved_content),
        "stored_sector_weight": stored_content.sector_weight,
        "retrieved_sector_weight": retrieved_content.sector_weight,
        "stored_isolated_level": stored_content.isolated_level,
        "retrieved_isolated_level": retrieved_content.isolated_level,
        "detuned": stored_content.detuned,
    }
    _emit(
        out,
        _render_csv(["stage", "a11", "a22", "a33", "nphot"], meta, rows),
    )
    return EXIT_OK


def cmd_rotate_check(params: dict, out: str | None) -> int:
    # Rotations act on the atomic factor only; the photon identity adds nothing.
    rng = np.random.default_rng(params["seed"])
    na = params["na"]
    rows = []
    overall = 0.0
    for cfg in Configuration:
        angles = rng.uniform(-np.pi, np.pi, params["samples"])
        for l in (1, 2, 3):
            for m_ in (1, 2, 3):
                A = atomic_collective_matrix(na, l, m_)
                worst = 0.0
                for alpha in angles.tolist():
                    R = atomic_rotation_matrix(cfg, alpha, na)
                    exact = R @ A @ R.T
                    if l == m_:
                        exact = (exact + exact.T) / 2.0
                    closed = transform_generator_closed_form(cfg, alpha, l, m_, na)
                    worst = max(worst, float(np.max(np.abs(exact - closed))))
                rows.append(["K{}{}".format(*cfg.rotation_plane), l, m_, worst])
                overall = max(overall, worst)
    meta = {**params, "max_error": overall}
    _emit(out, _render_csv(["rotation", "l", "m", "max_error"], meta, rows))
    return EXIT_OK


def cmd_evolve(params: dict, out: str | None) -> int:
    rotated = _branch_option(params["rotated"])
    if params["initial"] is not None:  # a malformed state is refused before the cutoff search
        try:
            occ = BasisState(*(int(x) for x in str(params["initial"]).split(",")))
        except (TypeError, ValueError):  # not four integers
            raise ValueError("--initial must be 'nu,n1,n2,n3'") from None
    m, basis, _ = _resolve_model(params)
    H = build_hamiltonian(m, basis, rotated)
    if params["initial"] is None:
        state = ground_state(H, basis)
    else:  # and one outside the basis before the solve
        amps = np.zeros(basis.dim, dtype=complex)
        amps[index_of(basis, occ)] = 1.0
        state = QuantumState(amps, basis)
    spec = diagonalize(H, basis)
    times = np.linspace(0.0, params["t_max"], params["t_steps"])
    rows = []
    for start in range(0, times.size, EVOLVE_CHUNK):
        chunk = times[start : start + EVOLVE_CHUNK]
        rows += [[t, *populations(psi)] for t, psi in zip(chunk, evolve(spec, state, chunk))]
    meta = {**params, "nmax": m.nmax}
    _emit(out, _render_csv(["t", "a11", "a22", "a33", "nphot"], meta, rows))
    return EXIT_OK


# Every subcommand's help and parameters, declared once: name -> default.
# The parser derives one --flag per name (underscores as dashes), _resolve
# takes its defaults and config-file keys from the same table, and command
# "a-b" runs cmd_a_b, looked up when it runs.
COMMANDS = {
    "spectrum": (
        "eigenvalues, optionally with frozen-level band labels",
        {**_MODEL_DEFAULTS, "rotated": "none", "band_labels": False},
    ),
    "populations": (
        "level populations over a coupling grid",
        {**_MODEL_DEFAULTS, "grid": 21, "mu_max": 2.0, "frame": None},
    ),
    "phase-diagram": (
        "fidelity-minima loci over a ray pencil",
        {**_MODEL_DEFAULTS, "rotated": "none", "rays": 37, "s_max": 1.5, "dmu": 0.01, "threads": 1},
    ),
    "separatrix": (
        "closed-form variational phase boundary",
        {**_MODEL_DEFAULTS, "samples": 101, "mu_max": 2.0},
    ),
    "store-retrieve": ("qubit store/retrieve report", _MODEL_DEFAULTS),
    "rotate-check": (
        "closed-form rotations vs the exact atomic rotation",
        {"na": 2, "samples": 20, "seed": 0},
    ),
    "evolve": (
        "populations under time evolution",
        {**_MODEL_DEFAULTS, "rotated": "none", "initial": None, "t_max": 50.0, "t_steps": 501},
    ),
}


def _flag_settings(name: str, default) -> dict:
    if isinstance(default, bool):
        return {"action": "store_true", "default": None}
    typed = {"type": type(default)} if isinstance(default, (int, float)) else {}
    return {**typed, **_FLAG_SETTINGS.get(name, {})}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke3",
        description="Exact diagonalization of three-level collective atom-field models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, defaults) in COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.add_argument("--config", help="JSON file with run parameters")
        p.add_argument("--out", help="output path (default: stdout)")
        for name, default in defaults.items():
            p.add_argument("--" + name.replace("_", "-"), dest=name, **_flag_settings(name, default))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return run(_resolve(args, COMMANDS[args.command][1]), args.out)
    except (ValueError, UndefinedAngleError, DimensionLimitError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except MemoryError as exc:  # numpy's names the refused allocation
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
