"""Ground-state fidelity, coupling-space scans, and variational separatrices.

Abrupt ground-state changes show up as minima of the fidelity between
neighbouring ground states along rays through the coupling-plane origin, on
which H is affine in the radius; a pencil of rays maps the whole phase
boundary, its rays of one photon cutoff solved together (a single ray is a
pencil of one: ``phase_diagram(config, [theta], ...).rays[0]``).  The
closed-form variational boundaries are provided for overlay.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .basis import enumerate_basis
from .model import ModelConfig, build_hamiltonian, coupling_name, with_couplings
from .operators import Configuration
from .rotations import Branch, UndefinedAngleError, atomic_generator_matrix, rotate_amplitudes
from .solver import (
    DEFAULT_ENERGY_TOL,
    DEFAULT_TAIL_TOL,
    QuantumState,
    converged_ground_state,
    pencil_ground_states,
)

NOISE_FLOOR = 1e-9
DEFAULT_STEP = 0.01
DEFAULT_RAY_COUNT = 37
_BRACKET_IMAG_TOL = 1e-10


def fidelity(s1: QuantumState, s2: QuantumState) -> float:
    """Squared overlap of two states on the same basis."""
    if s1.basis != s2.basis:
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
    cfg: Configuration,
    dalpha: float,
    dmu: float,
) -> float:
    """Second-order expansion of the rotated-frame fidelity.

    F ~ |<psi'|psi>|^2 + 2 <psi'|psi> (dmu dalpha) <psi'|K|psi> +
    (dmu dalpha)^2 [<psi'|psi><psi'|K^2|psi> + |<psi'|K|psi>|^2], the square
    of <psi'|exp(dmu dalpha K)|psi> to second order in the angle step, with
    psi' the neighbouring ground state and K cfg's generator, applied to the
    atomic factor as in ``rotate_amplitudes``.  All three brackets are
    checked to be real.
    """
    basis = s_mu.basis
    if basis != s_mu_dmu.basis:
        raise ValueError("states live on different bases")
    K = atomic_generator_matrix(basis.na, *cfg.rotation_plane)
    psi = s_mu.amplitudes
    psi_p = s_mu_dmu.amplitudes
    k_psi = psi.reshape(basis.nmax + 1, basis.atomic_dim) @ K.T  # np.vdot flattens it
    overlap = _real_bracket(np.vdot(psi_p, psi), "<psi'|psi>")
    k1 = _real_bracket(np.vdot(psi_p, k_psi), "<psi'|K|psi>")
    k2 = _real_bracket(np.vdot(psi_p, k_psi @ K.T), "<psi'|K^2|psi>")
    step = dmu * dalpha
    return overlap**2 + 2.0 * overlap * step * k1 + step**2 * (overlap * k2 + k1 * k1)


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
    if s_mu.basis != s_mu_dmu.basis:
        raise ValueError("states live on different bases")
    rotated = rotate_amplitudes(cfg, -delta_alpha, s_mu.amplitudes, s_mu.basis)
    bracket = np.vdot(s_mu_dmu.amplitudes, rotated)
    return float(np.abs(bracket) ** 2)


@dataclass(frozen=True)
class SweepMinimum:
    """Strict local fidelity minimum with quadratic refinement, on the ray of angle theta."""

    theta: float
    s: float
    mu_a: float
    mu_b: float
    fidelity: float


@dataclass(frozen=True)
class RaySweep:
    """Fidelity series along one ray through the coupling-plane origin.

    ``fidelities[i]`` compares the ground states at ``s_values[i]`` and
    ``s_values[i+1]`` and is attributed to their midpoint; the susceptibility
    is 2 (1 - F) / dmu^2, F the squared overlap: 2 chi_F + O(dmu^2), twice
    the chi_F = sum_{n>0} |<n|dH|0>|^2 / (E_n - E_0)^2 of You, Li & Gu (PRE
    76, 022101 (2007)), who start from the unsquared overlap.
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
    theta: float,
    direction: tuple[float, float],
    mids: np.ndarray,
    fids: np.ndarray,
    dmu: float,
) -> tuple[SweepMinimum, ...]:
    """Interior minima above the noise floor, refined by a parabola, at
    s * direction on the ray of angle theta.  Each lies more than NOISE_FLOOR
    below both neighbours: on a ray of constant fidelity roundoff alone
    would otherwise make and place them."""
    ca, sa = direction
    out = []
    for i in range(1, len(fids) - 1):
        if not fids[i] + NOISE_FLOOR < min(fids[i - 1], fids[i + 1]):
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
        out.append(
            SweepMinimum(
                theta=theta,
                s=float(s_star),
                mu_a=float(s_star * ca),
                mu_b=float(s_star * sa),
                fidelity=float(f_star),
            )
        )
    return tuple(out)


def _sweeps(config, thetas, s_max, dmu, rotated, etol, ptol) -> list[RaySweep]:
    """The :class:`RaySweep` of every ray in ``thetas``; see :func:`phase_diagram`.
    Rays of one cutoff go to :func:`dicke3.solver.pencil_ground_states`
    together, which solves those of one band shape in lockstep."""
    if dmu <= 0:
        raise ValueError("dmu must be positive")
    if not s_max / dmu < np.iinfo(np.intp).max:
        raise ValueError(f"s_max / dmu must be below {np.iinfo(np.intp).max}, got {s_max!r} / {dmu!r}")
    directions = [_ray_direction(theta) for theta in thetas]
    n_steps = int(np.floor(s_max / dmu + 1e-9))
    if n_steps < 2:
        raise ValueError("ray too short: needs at least two radii")
    radii = dmu * np.arange(1, n_steps + 1)
    cutoffs = [converged_ground_state(with_couplings(config, radii[-1] * ca, radii[-1] * sa), etol, ptol)[0]
               for ca, sa in directions]
    fids = np.empty((len(thetas), n_steps - 1))
    for nmax in dict.fromkeys(cutoffs):
        rays = [i for i, cutoff in enumerate(cutoffs) if cutoff == nmax]
        basis = enumerate_basis(config.na, nmax)
        unit = dataclasses.replace(config, nmax=nmax)
        Hs = [build_hamiltonian(with_couplings(unit, *directions[i]), basis, rotated) for i in rays]
        for group, walk in pencil_ground_states(Hs, basis, radii):
            overlaps = [(p * q).sum(axis=1) for (p, _), (q, _) in itertools.pairwise(walk)]  # along C-order rows
            fids[[rays[g] for g in group]] = np.square(overlaps).T
    chi = 2.0 * (1.0 - fids) / dmu**2
    for a in (fids, chi):
        a.setflags(write=False)
    mids = (radii[:-1] + radii[1:]) / 2.0
    sweeps = []
    for i, (theta, direction) in enumerate(zip(thetas, directions)):
        minima = _detect_minima(theta, direction, mids, fids[i], dmu)
        sweeps.append(RaySweep(config, theta, dmu, cutoffs[i], rotated, radii, fids[i], chi[i], minima))
    return sweeps


@dataclass(frozen=True)
class PhaseDiagram:
    """Fidelity-minima loci collected over a pencil of rays."""

    config: ModelConfig
    rotated: Branch | None
    rays: tuple[RaySweep, ...]
    minima: tuple[SweepMinimum, ...]


def ray_pencil(count: int = DEFAULT_RAY_COUNT) -> np.ndarray:
    """Evenly spaced ray angles across the first quadrant."""
    if count < 1:
        raise ValueError("need at least one ray")
    return np.linspace(0.0, np.pi / 2, count)


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
    """Rays and minima loci over a pencil, solved together (see :func:`_sweeps`).

    Each ray's photon cutoff is converged once, in the unrotated frame, at
    its outermost point and shared by the whole ray (the converged cutoff
    grows monotonically with the couplings, so the outer point dominates);
    sharing one basis keeps the overlaps well defined.  H is affine in the
    radius in every frame (its hop blocks scale with it), so one H per ray,
    at unit radius, feeds :func:`dicke3.solver.pencil_ground_states`.

    With ``workers`` > 1 worker j of W takes every W-th ray from the j-th,
    so that each holds rays from all along the pencil, whose costs vary with
    theta.  Results are merged in the given theta order, and a ray's result
    does not depend on the rays solved beside it, so the output is identical
    for any worker count.
    """
    thetas = tuple(float(t) for t in thetas)
    if not thetas:
        raise ValueError("need a nonempty pencil of rays")
    sweeps = functools.partial(_sweeps, config, s_max=s_max, dmu=dmu, rotated=rotated, etol=etol, ptol=ptol)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(workers, len(thetas))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            dealt = list(pool.map(sweeps, [thetas[j::workers] for j in range(workers)]))
        rays = tuple(dealt[i % workers][i // workers] for i in range(len(thetas)))
    else:
        rays = tuple(sweeps(thetas))
    minima = tuple(m for ray in rays for m in ray.minima)
    return PhaseDiagram(config, rotated, rays, minima)


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
