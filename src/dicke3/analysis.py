"""Ground-state fidelity, coupling-space scans, and variational separatrices.

Abrupt ground-state changes show up as minima of the fidelity between
neighbouring ground states along a path in coupling space.  Scans run along
straight rays through the origin (a pencil of rays maps the whole phase
boundary; fixed-coordinate lines are also supported but can miss minima).
The closed-form variational boundaries are provided for overlay.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .basis import enumerate_basis
from .model import ModelConfig, build_frame_hamiltonian, coupling_name, with_couplings
from .operators import Configuration, OperatorMatrix
from .rotations import Branch, UndefinedAngleError, rotate_amplitudes
from .solver import (
    DEFAULT_ENERGY_TOL,
    DEFAULT_TAIL_TOL,
    QuantumState,
    converged_ground_state,
    ground_state,
)

NOISE_FLOOR = 1e-9
DEFAULT_STEP = 0.01
DEFAULT_RAY_COUNT = 37
_BRACKET_IMAG_TOL = 1e-10


def fidelity(s1: QuantumState, s2: QuantumState) -> float:
    """Squared overlap of two states on the same basis."""
    if not s1.basis.compatible_with(s2.basis):
        raise ValueError("states live on different bases")
    return float(np.abs(np.vdot(s1.amplitudes, s2.amplitudes)) ** 2)


def dalpha_dmu(
    cfg: Configuration,
    which_mu: str,
    mu_pair: tuple[float, float],
) -> float:
    """Derivative of the decoupling angle when one coupling varies.

    ``mu_pair`` carries the plane couplings (A, B); with rho^2 = A^2 + B^2,
    dalpha/dA = -B / rho^2 and dalpha/dB = A / rho^2.  Both branches give
    the same derivative (their angles differ by a constant).
    """
    names = [coupling_name(p) for p in cfg.allowed_pairs]
    if which_mu not in names:
        raise ValueError(
            f"{which_mu!r} is not an allowed coupling of {cfg.value}; expected one of {names}"
        )
    a, b = mu_pair
    rho2 = a**2 + b**2
    if rho2 == 0.0:
        raise UndefinedAngleError("angle derivative undefined at the origin")
    return -b / rho2 if which_mu == names[0] else a / rho2


def _real_bracket(value: complex, label: str) -> float:
    if abs(value.imag) > _BRACKET_IMAG_TOL:
        raise ValueError(f"{label} has a non-real value: {value!r}")
    return float(value.real)


def fidelity_rot_second_order(
    s_mu: QuantumState,
    s_mu_dmu: QuantumState,
    K: OperatorMatrix,
    dalpha: float,
    dmu: float,
) -> float:
    """Second-order expansion of the rotated-frame fidelity.

    F ~ |<psi'|psi>|^2 + (dmu dalpha)^2 [<psi'|psi><psi'|K^2|psi> +
    |<psi'|K|psi>|^2], with psi' the neighbouring ground state.  All three
    brackets are checked to be real.
    """
    if not s_mu.basis.compatible_with(s_mu_dmu.basis):
        raise ValueError("states live on different bases")
    if K.dim != s_mu.basis.dim:
        raise ValueError("generator dimension does not match the states")
    psi = s_mu.amplitudes
    psi_p = s_mu_dmu.amplitudes
    k_psi = K.matrix @ psi
    overlap = _real_bracket(np.vdot(psi_p, psi), "<psi'|psi>")
    k1 = _real_bracket(np.vdot(psi_p, k_psi), "<psi'|K|psi>")
    k2 = _real_bracket(np.vdot(psi_p, K.matrix @ k_psi), "<psi'|K^2|psi>")
    return overlap**2 + (dmu * dalpha) ** 2 * (overlap * k2 + k1 * k1)


def fidelity_rotated_exact(
    s_mu: QuantumState,
    s_mu_dmu: QuantumState,
    cfg: Configuration,
    delta_alpha: float,
) -> float:
    """Exact fidelity between the rotated neighbours, |<psi'|e^{dA K}|psi>|^2.

    The two frame rotations share one generator, so their composition is the
    single rotation by the angle difference ``delta_alpha``.
    """
    if not s_mu.basis.compatible_with(s_mu_dmu.basis):
        raise ValueError("states live on different bases")
    rotated = rotate_amplitudes(cfg, -delta_alpha, s_mu.amplitudes, s_mu.basis)
    bracket = np.vdot(s_mu_dmu.amplitudes, rotated)
    return float(np.abs(bracket) ** 2)


@dataclass(frozen=True)
class SweepMinimum:
    """Strict local fidelity minimum with quadratic refinement."""

    s: float
    mu_a: float
    mu_b: float
    fidelity: float


@dataclass(frozen=True)
class RaySweep:
    """Fidelity series along one ray through the coupling-plane origin.

    ``fidelities[i]`` compares the ground states at ``s_values[i]`` and
    ``s_values[i+1]`` and is attributed to their midpoint; the susceptibility
    is 2 (1 - F) / dmu^2.
    """

    config: ModelConfig
    theta: float
    dmu: float
    nmax: int
    rotated: Branch | None
    s_values: np.ndarray
    fidelities: np.ndarray
    susceptibilities: np.ndarray
    minima: tuple[SweepMinimum, ...]
    states: tuple[QuantumState, ...]


def _ray_direction(theta: float) -> tuple[float, float]:
    ca, sa = np.cos(theta), np.sin(theta)
    if abs(ca) < 1e-15:
        ca = 0.0
    if abs(sa) < 1e-15:
        sa = 0.0
    if ca < 0 or sa < 0:
        raise ValueError(f"ray must stay in the first quadrant, got theta={theta}")
    return float(ca), float(sa)


def _detect_minima(
    mids: np.ndarray,
    fids: np.ndarray,
    coords: list[tuple[float, float]],
    dmu: float,
) -> tuple[SweepMinimum, ...]:
    """Strict interior minima above the noise floor, refined by a parabola."""
    out = []
    for i in range(1, len(fids) - 1):
        if not (fids[i] < fids[i - 1] and fids[i] < fids[i + 1]):
            continue
        if 1.0 - fids[i] < NOISE_FLOOR:
            continue
        fm, f0, fp = fids[i - 1], fids[i], fids[i + 1]
        curvature = fm - 2 * f0 + fp
        if curvature > 0:
            shift = 0.5 * dmu * (fm - fp) / curvature
            s_star = mids[i] + shift
            f_star = f0 - (fm - fp) ** 2 / (8 * curvature)
        else:
            s_star, f_star = mids[i], f0
        frac = (s_star - mids[i]) / dmu
        ax, bx = coords[i]
        ax2, bx2 = coords[i + 1] if frac >= 0 else coords[i - 1]
        out.append(
            SweepMinimum(
                s=float(s_star),
                mu_a=float(ax + abs(frac) * (ax2 - ax)),
                mu_b=float(bx + abs(frac) * (bx2 - bx)),
                fidelity=float(f_star),
            )
        )
    return tuple(out)


def _scan_path(
    config: ModelConfig,
    path: np.ndarray,
    coords: list[tuple[float, float]],
    dmu: float,
    rotated: Branch | None,
    etol: float,
    ptol: float,
):
    """Shared scan engine: ground states at ``coords`` and their fidelities.

    ``path[i]`` is the path coordinate of the coupling point ``coords[i]``.
    The photon cutoff is converged once, in the unrotated frame, at the last
    point and shared by the whole path (the converged cutoff grows
    monotonically with the couplings, so the outer point dominates); sharing
    one basis keeps the overlaps well defined.  Returns the cutoff, the
    states, the neighbour fidelities, the susceptibilities and the minima.
    """
    nmax, _ = converged_ground_state(with_couplings(config, *coords[-1]), etol, ptol)
    basis = enumerate_basis(config.na, nmax)
    at_cutoff = dataclasses.replace(config, nmax=nmax)
    states = tuple(
        ground_state(build_frame_hamiltonian(with_couplings(at_cutoff, a, b), basis, rotated), basis)
        for a, b in coords
    )
    fids = np.array([fidelity(s1, s2) for s1, s2 in zip(states, states[1:])])
    chi = 2.0 * (1.0 - fids) / dmu**2
    mids = (path[:-1] + path[1:]) / 2.0
    mid_coords = [((a0 + a1) / 2, (b0 + b1) / 2) for (a0, b0), (a1, b1) in zip(coords, coords[1:])]
    minima = _detect_minima(mids, fids, mid_coords, dmu)
    fids.setflags(write=False)
    chi.setflags(write=False)
    return nmax, states, fids, chi, minima


def scan_ray(
    config: ModelConfig,
    theta: float,
    s_max: float,
    dmu: float = DEFAULT_STEP,
    *,
    rotated: Branch | None = None,
    etol: float = DEFAULT_ENERGY_TOL,
    ptol: float = DEFAULT_TAIL_TOL,
    keep_states: bool = True,
) -> RaySweep:
    """Ground states and neighbour fidelities along a ray of slope theta."""
    if dmu <= 0:
        raise ValueError("dmu must be positive")
    ca, sa = _ray_direction(theta)
    n_steps = int(np.floor(s_max / dmu + 1e-9))
    if n_steps < 2:
        raise ValueError("ray too short: needs at least two radii")
    radii = dmu * np.arange(1, n_steps + 1)
    coords = [(s * ca, s * sa) for s in radii]
    nmax, states, fids, chi, minima = _scan_path(config, radii, coords, dmu, rotated, etol, ptol)
    return RaySweep(
        config=config,
        theta=theta,
        dmu=dmu,
        nmax=nmax,
        rotated=rotated,
        s_values=radii,
        fidelities=fids,
        susceptibilities=chi,
        minima=minima,
        states=states if keep_states else (),
    )


@dataclass(frozen=True)
class DiagramLocus:
    theta: float
    s: float
    mu_a: float
    mu_b: float
    fidelity: float


@dataclass(frozen=True)
class PhaseDiagram:
    """Fidelity-minima loci collected over a pencil of rays."""

    config: ModelConfig
    rotated: Branch | None
    thetas: tuple[float, ...]
    rays: tuple[RaySweep, ...]
    minima: tuple[DiagramLocus, ...]


def ray_pencil(count: int = DEFAULT_RAY_COUNT, span: tuple[float, float] = (0.0, np.pi / 2)) -> np.ndarray:
    """Evenly spaced ray angles across the first quadrant."""
    if count < 1:
        raise ValueError("need at least one ray")
    return np.linspace(span[0], span[1], count)


def _ray_task(args) -> RaySweep:
    config, theta, s_max, dmu, rotated, etol, ptol = args
    return scan_ray(
        config, theta, s_max, dmu, rotated=rotated, etol=etol, ptol=ptol, keep_states=False
    )


def phase_diagram(
    config: ModelConfig,
    thetas,
    s_max: float,
    dmu: float = DEFAULT_STEP,
    *,
    rotated: Branch | None = None,
    workers: int = 1,
    etol: float = DEFAULT_ENERGY_TOL,
    ptol: float = DEFAULT_TAIL_TOL,
) -> PhaseDiagram:
    """Minima loci over a pencil of rays; rays are independent workloads.

    Results are merged in the given theta order, so the output is identical
    for any worker count.
    """
    thetas = tuple(float(t) for t in thetas)
    if not thetas:
        raise ValueError("need a nonempty pencil of rays")
    tasks = [(config, theta, s_max, dmu, rotated, etol, ptol) for theta in thetas]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rays = tuple(pool.map(_ray_task, tasks))
    else:
        rays = tuple(_ray_task(t) for t in tasks)
    minima = tuple(
        DiagramLocus(ray.theta, m.s, m.mu_a, m.mu_b, m.fidelity)
        for ray in rays
        for m in ray.minima
    )
    return PhaseDiagram(config, rotated, thetas, rays, minima)


@dataclass(frozen=True)
class LineSweep:
    """Fidelity series along a fixed-coordinate line (can miss minima)."""

    config: ModelConfig
    which_mu: str
    dmu: float
    nmax: int
    rotated: Branch | None
    mu_values: np.ndarray
    fidelities: np.ndarray
    susceptibilities: np.ndarray
    minima: tuple[SweepMinimum, ...]


def scan_line(
    config: ModelConfig,
    which_mu: str,
    mu_max: float,
    dmu: float = DEFAULT_STEP,
    *,
    rotated: Branch | None = None,
    etol: float = DEFAULT_ENERGY_TOL,
    ptol: float = DEFAULT_TAIL_TOL,
) -> LineSweep:
    """Vary one allowed coupling, holding the other at its configured value."""
    names = [coupling_name(p) for p in config.cfg.allowed_pairs]
    if which_mu not in names:
        raise ValueError(f"{which_mu!r} is not an allowed coupling of {config.cfg.value}")
    if dmu <= 0:
        raise ValueError("dmu must be positive")
    other = names[1] if which_mu == names[0] else names[0]
    fixed = getattr(config, other)
    n_steps = int(np.floor(mu_max / dmu + 1e-9))
    if n_steps < 2:
        raise ValueError("line too short: needs at least two points")
    grid = dmu * np.arange(1, n_steps + 1)
    coords = [(v, fixed) if which_mu == names[0] else (fixed, v) for v in grid]
    nmax, _, fids, chi, minima = _scan_path(config, grid, coords, dmu, rotated, etol, ptol)
    return LineSweep(config, which_mu, dmu, nmax, rotated, grid, fids, chi, minima)


def _threshold_boundary(Omega: float, budget: float, threshold: float, mu: float) -> float | None:
    """Coupling c solving Omega budget = 4 c^2 + (2 |mu| - sqrt(Omega threshold))^2 theta(.).

    None once the threshold term alone exceeds the budget.
    """
    excess = 2.0 * abs(mu) - np.sqrt(Omega * threshold)
    threshold_term = excess**2 if excess > 0 else 0.0
    remainder = Omega * budget - threshold_term
    if remainder < 0:
        return None
    return float(np.sqrt(remainder) / 2.0)


def separatrix_xi(Omega: float, omega21: float, omega31: float, mu23: float) -> float | None:
    """Ladder-configuration variational boundary: mu12 for a given mu23.

    Solves Omega w21 = 4 mu12^2 + (2 |mu23| - sqrt(Omega w31))^2 theta(.),
    returning None once the threshold term alone exceeds the budget.
    """
    if Omega <= 0 or omega21 <= 0 or omega31 <= 0:
        raise ValueError("Omega, omega21 and omega31 must be positive")
    return _threshold_boundary(Omega, omega21, omega31, mu23)


def separatrix_v(Omega: float, omega21: float, omega31: float, theta: float) -> float:
    """V-configuration boundary: radius of the ellipse along angle theta.

    4 mu12^2 / (Omega w21) + 4 mu13^2 / (Omega w31) = 1; a circle at equal
    detuning.
    """
    if Omega <= 0:
        raise ValueError("Omega must be positive")
    if omega21 <= 0 or omega31 <= 0:
        raise ValueError(
            "degenerate ellipse: omega21 and omega31 must both be positive"
        )
    ca, sa = np.cos(theta), np.sin(theta)
    return float(0.5 / np.sqrt(ca**2 / (Omega * omega21) + sa**2 / (Omega * omega31)))


def separatrix_lambda(Omega: float, omega21: float, omega31: float, mu23: float) -> float | None:
    """Lambda-configuration boundary: mu13 for a given mu23.

    Same shape as the ladder case; at omega21 = 0 it degenerates to the
    circle mu13^2 + mu23^2 = Omega w31 / 4.
    """
    if Omega <= 0 or omega31 <= 0:
        raise ValueError("Omega and omega31 must be positive")
    if omega21 < 0:
        raise ValueError("omega21 must be nonnegative")
    return _threshold_boundary(Omega, omega31, omega21, mu23)
