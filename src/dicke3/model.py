"""Model configuration and Hamiltonian assembly for the three configurations.

The full Hamiltonian couples one boson mode to the two allowed dipolar
transitions.  A level-pair rotation at either of two special angles cancels
one matter-field coupling; the resulting frame is described by a closed
parameter bundle (rotated level terms, a residual one-body coupling on the
forbidden pair, and a single surviving matter-field coupling equal to the
root sum square of the originals).  Every frame is assembled by one routine:
the field and level terms are the diagonal, read from the basis's photon
numbers and level counts, and the couplings are atomic (m x m) blocks placed
in the photon blocks of the photon-major basis.  The similarity transform
U H U.T is kept in :mod:`dicke3.rotations` as a test oracle.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, LevelSector
from .operators import (
    Configuration,
    OperatorMatrix,
    atomic_collective_matrix,
    excitation_values,
)
from .rotations import Branch, decoupling_angle

EQUAL_DETUNING_TOL = 1e-12

_COUPLING_NAMES = {(1, 2): "mu12", (1, 3): "mu13", (2, 3): "mu23"}


def coupling_name(pair: tuple[int, int]) -> str:
    return _COUPLING_NAMES[pair]


@dataclass(frozen=True)
class ModelConfig:
    """Configuration tag, frequencies, couplings, atom count, photon cutoff.

    Level frequencies are ordered omega1 <= omega2 <= omega3 and the
    coupling forbidden by the configuration must be exactly zero.  All
    couplings are kept nonnegative; a sign flip is gauge equivalent under
    a -> -a.  Energies are in units of the field frequency by default
    (Omega = 1).
    """

    cfg: Configuration
    omega1: float
    omega2: float
    omega3: float
    mu12: float
    mu13: float
    mu23: float
    na: int
    nmax: int
    Omega: float = 1.0

    def __post_init__(self):
        for name in ("na", "nmax"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("omega1", "omega2", "omega3", "mu12", "mu13", "mu23", "Omega"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.na < 1:
            raise ValueError(f"atom count must be >= 1, got {self.na}")
        if self.nmax < 0:
            raise ValueError(f"photon cutoff must be >= 0, got {self.nmax}")
        if not self.Omega > 0:
            raise ValueError(f"field frequency must be positive, got {self.Omega}")
        if not self.omega1 <= self.omega2 <= self.omega3:
            raise ValueError(
                "level frequencies must satisfy omega1 <= omega2 <= omega3, got "
                f"({self.omega1}, {self.omega2}, {self.omega3})"
            )
        for name in ("mu12", "mu13", "mu23"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        forbidden = coupling_name(self.cfg.forbidden_pair)
        if getattr(self, forbidden) != 0.0:
            raise ValueError(
                f"{self.cfg.value} configuration requires {forbidden} = 0, "
                f"got {getattr(self, forbidden)}"
            )

    @property
    def omegas(self) -> tuple[float, float, float]:
        return (self.omega1, self.omega2, self.omega3)

    def coupling(self, pair: tuple[int, int]) -> float:
        return getattr(self, coupling_name(pair))

    @property
    def plane_couplings(self) -> tuple[float, float]:
        """The two allowed couplings in coupling-plane (abscissa, ordinate) order."""
        a, b = self.cfg.allowed_pairs
        return (self.coupling(a), self.coupling(b))

    @property
    def one_body_gap(self) -> float:
        """Frequency difference multiplying the residual one-body coupling.

        Zero gap means the rotated frames carry no one-body term (the
        equal-detuning case for Lambda and V; full level degeneracy for the
        ladder).
        """
        lo, hi = self.cfg.forbidden_pair
        return self.omegas[hi - 1] - self.omegas[lo - 1]

    def equal_detuning(self, tol: float = EQUAL_DETUNING_TOL) -> bool:
        return abs(self.one_body_gap) <= tol


def with_couplings(config: ModelConfig, mu_a: float, mu_b: float) -> ModelConfig:
    """Copy of ``config`` with the allowed couplings set to (mu_a, mu_b)."""
    a, b = config.cfg.allowed_pairs
    return dataclasses.replace(
        config, **{coupling_name(a): mu_a, coupling_name(b): mu_b}
    )


def detuning(config: ModelConfig, j: int, k: int) -> float:
    """Field-minus-transition frequency mismatch for levels j < k."""
    if not (j < k and j in (1, 2, 3) and k in (1, 2, 3)):
        raise ValueError(f"need level indices j < k in 1..3, got ({j}, {k})")
    return config.Omega - abs(config.omegas[j - 1] - config.omegas[k - 1])


def _require_matching_basis(config: ModelConfig, basis: BasisSet) -> None:
    if basis.na != config.na or basis.nmax != config.nmax:
        raise ValueError(
            f"basis (na={basis.na}, nmax={basis.nmax}) does not match "
            f"config (na={config.na}, nmax={config.nmax})"
        )


def _assemble(
    config: ModelConfig,
    basis: BasisSet,
    level_terms: tuple[float, float, float],
    couplings: dict[tuple[int, int], float],
    one_body: tuple[tuple[int, int], float] | None = None,
) -> OperatorMatrix:
    """Common assembly: field term + level terms + dipolar couplings.

    The field and level terms form the diagonal, read from the basis's
    occupation arrays.  In the photon-major enumeration H is block
    tridiagonal over photon number with atomic (m x m) blocks: the dipolar
    couplings fill the blocks next to the diagonal, the one-body term the
    diagonal blocks.  Every entry rounds exactly as in the term-by-term sum
    of photon (x) atomic kron products (the tests pin this bitwise, signed
    zeros included), and the result is bitwise symmetric.  Every term
    conserves the excitation-number parity, in the rotated frames too (each
    rotation plane joins two levels of equal weight parity), so the result
    carries the parity of every basis state for the sector solver.
    """
    nph, m = basis.nmax + 1, basis.atomic_dim
    diagonal = config.Omega * basis.photon_numbers
    for lvl, w in enumerate(level_terms, start=1):
        if w != 0.0:
            diagonal = diagonal + w * basis.level_counts[:, lvl - 1]
    H = np.zeros((basis.dim, basis.dim))
    np.fill_diagonal(H, diagonal)
    blocks = H.reshape(nph, m, nph, m)
    nu = np.arange(nph)

    atomic_coupling = np.zeros((m, m))
    for (j, k), mu in couplings.items():
        if mu != 0.0:
            atomic_coupling += mu * _symmetric_pair(basis.na, j, k)
    if atomic_coupling.any():
        # (a + a^dagger) joins photon blocks nu and nu + 1 with sqrt(nu + 1)
        hop = np.sqrt(nu[1:])[:, None, None] * atomic_coupling / np.sqrt(basis.na)
        blocks[nu[:-1], :, nu[1:], :] -= hop
        blocks[nu[1:], :, nu[:-1], :] -= hop

    if one_body is not None:
        (j, k), lam = one_body
        if lam != 0.0:
            blocks[nu, :, nu, :] += lam * _symmetric_pair(basis.na, j, k)
    labels = excitation_values(basis, config.cfg) % 2
    return OperatorMatrix(H, hermitian=True, parity_labels=labels)


def _symmetric_pair(na: int, j: int, k: int) -> np.ndarray:
    return atomic_collective_matrix(na, j, k) + atomic_collective_matrix(na, k, j)


def build_hamiltonian(config: ModelConfig, basis: BasisSet) -> OperatorMatrix:
    """Full Hamiltonian: field + level terms - (a t + a) dipolar couplings."""
    _require_matching_basis(config, basis)
    couplings = {pair: config.coupling(pair) for pair in config.cfg.allowed_pairs}
    return _assemble(config, basis, config.omegas, couplings)


@dataclass(frozen=True)
class RotatedParameters:
    """Parameter bundle of the rotated frame for one (configuration, branch).

    Exactly one of the rotated couplings survives, equal to the root sum
    square of the two originals; the residual one-body coupling lambda_t
    acts on the forbidden pair and vanishes at equal detuning.
    """

    alpha: float
    branch: Branch
    omega_t1: float
    omega_t2: float
    omega_t3: float
    lambda_t: float
    lambda_pair: tuple[int, int]
    mu_t12: float
    mu_t13: float
    mu_t23: float
    coupled_pair: tuple[int, int]

    @property
    def omega_ts(self) -> tuple[float, float, float]:
        return (self.omega_t1, self.omega_t2, self.omega_t3)

    @property
    def mu_ts(self) -> dict[tuple[int, int], float]:
        return {(1, 2): self.mu_t12, (1, 3): self.mu_t13, (2, 3): self.mu_t23}

    @property
    def coupled_mu(self) -> float:
        return self.mu_ts[self.coupled_pair]

    @property
    def isolated_level(self) -> int:
        """The level outside the surviving coupled pair."""
        return ({1, 2, 3} - set(self.coupled_pair)).pop()


def rotated_parameters(config: ModelConfig, branch: Branch) -> RotatedParameters:
    """Rotated-frame parameters for the chosen branch.

    The rational forms below keep structural zeros exact: at equal detuning
    lambda_t is exactly 0.0, so the isolated level decouples bitwise in the
    assembled matrix.
    """
    alpha = decoupling_angle(config, branch)
    cfg = config.cfg
    w1, w2, w3 = config.omegas
    first = branch is Branch.FIRST

    if cfg is Configuration.XI:
        a, b = config.mu12, config.mu23
        rho2 = a * a + b * b
        mixed_lo = (w1 * a * a + w3 * b * b) / rho2
        mixed_hi = (w1 * b * b + w3 * a * a) / rho2
        lam = (w3 - w1) * a * b / rho2
        omega_t = (mixed_lo, w2, mixed_hi) if first else (mixed_hi, w2, mixed_lo)
        lam = lam if first else -lam
        coupled = (1, 2) if first else (2, 3)
    elif cfg is Configuration.LAMBDA:
        a, b = config.mu13, config.mu23
        rho2 = a * a + b * b
        mixed_lo = (w1 * b * b + w2 * a * a) / rho2
        mixed_hi = (w1 * a * a + w2 * b * b) / rho2
        lam = (w2 - w1) * a * b / rho2
        omega_t = (mixed_lo, mixed_hi, w3) if first else (mixed_hi, mixed_lo, w3)
        lam = -lam if first else lam
        coupled = (2, 3) if first else (1, 3)
    else:
        a, b = config.mu12, config.mu13
        rho2 = a * a + b * b
        mixed_lo = (w2 * a * a + w3 * b * b) / rho2
        mixed_hi = (w2 * b * b + w3 * a * a) / rho2
        lam = (w3 - w2) * a * b / rho2
        omega_t = (w1, mixed_lo, mixed_hi) if first else (w1, mixed_hi, mixed_lo)
        lam = lam if first else -lam
        coupled = (1, 2) if first else (1, 3)

    mu_ts = {(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0}
    mu_ts[coupled] = float(np.hypot(a, b))
    return RotatedParameters(
        alpha=alpha,
        branch=branch,
        omega_t1=omega_t[0],
        omega_t2=omega_t[1],
        omega_t3=omega_t[2],
        lambda_t=lam,
        lambda_pair=cfg.forbidden_pair,
        mu_t12=mu_ts[(1, 2)],
        mu_t13=mu_ts[(1, 3)],
        mu_t23=mu_ts[(2, 3)],
        coupled_pair=coupled,
    )


def build_rotated_hamiltonian(
    config: ModelConfig, basis: BasisSet, branch: Branch
) -> OperatorMatrix:
    """Rotated-frame Hamiltonian assembled from the parameter bundle.

    Agrees with U H U.T from the similarity transform; assembling from the
    bundle instead exposes the parameter table itself to tests.
    """
    _require_matching_basis(config, basis)
    params = rotated_parameters(config, branch)
    return _assemble(
        config,
        basis,
        params.omega_ts,
        {params.coupled_pair: params.coupled_mu},
        one_body=(params.lambda_pair, params.lambda_t),
    )


def build_frame_hamiltonian(
    config: ModelConfig, basis: BasisSet, rotated: Branch | None
) -> OperatorMatrix:
    """Hamiltonian in the requested frame: unrotated or a decoupled branch."""
    if rotated is None:
        return build_hamiltonian(config, basis)
    return build_rotated_hamiltonian(config, basis, rotated)


def effective_coupling(config: ModelConfig, branch: Branch, n_active: int) -> float:
    """Coupling strength of the two-level block with n_active unfrozen atoms."""
    if not 0 <= n_active <= config.na:
        raise ValueError(f"active atom count {n_active} outside [0, {config.na}]")
    params = rotated_parameters(config, branch)
    return float(np.sqrt(n_active / config.na) * params.coupled_mu)


def build_effective_two_level(
    config: ModelConfig, sector: LevelSector, branch: Branch
) -> OperatorMatrix:
    """Two-level block Hamiltonian on a frozen-level sector.

    The surviving coupled pair forms a reduced collective model whose
    coupling carries the sqrt(n_active / N_a) dilution; the frozen level
    contributes only the constant shift omega_t * n_fixed.  The residual
    one-body term is deliberately absent: this is the decoupled block, exact
    when the one-body coupling vanishes.
    """
    if sector.na != config.na or sector.nmax != config.nmax:
        raise ValueError("sector does not match the model configuration")
    params = rotated_parameters(config, branch)
    if sector.level != params.isolated_level:
        raise ValueError(
            f"sector freezes level {sector.level} but branch {branch.value} "
            f"isolates level {params.isolated_level}"
        )
    full = _assemble(
        config,
        sector.parent,
        params.omega_ts,
        {params.coupled_pair: params.coupled_mu},
    )
    sub = full.matrix[np.ix_(sector.parent_indices, sector.parent_indices)].copy()
    return OperatorMatrix(sub, hermitian=True)
