"""Model configuration and Hamiltonian assembly for the three configurations.

The full Hamiltonian couples one boson mode to the two allowed dipolar
transitions.  A level-pair rotation at either of two special angles cancels
one matter-field coupling; the resulting frame is described by a closed
parameter bundle (rotated level terms, a residual one-body coupling on the
forbidden pair, and a single surviving matter-field coupling equal to the
root sum square of the originals).  One plane-rotation rule in
``rotated_parameters`` derives that bundle for every configuration from the
geometry table on :class:`dicke3.operators.Configuration`.  Every frame is
built by ``build_hamiltonian`` (``rotated=None`` for the lab frame, else a
branch) through one routine, in photon-block form
(:class:`dicke3.operators.BlockHamiltonian`): the field and level terms are
the diagonal, read from the basis's photon numbers and level counts, and the
couplings are one atomic (m x m) block each, placed between (dipolar) or on
(one-body) the photon blocks.  No dim x dim array is built unless the dense
view is read.  The similarity transform U H U.T is left to the tests.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet
from .operators import (
    BlockHamiltonian,
    Configuration,
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

    def equal_detuning(self) -> bool:
        return abs(self.one_body_gap) <= EQUAL_DETUNING_TOL


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


def _assemble(
    config: ModelConfig,
    basis: BasisSet,
    level_terms: tuple[float, float, float],
    couplings: dict[tuple[int, int], float],
    one_body: tuple[tuple[int, int], float] | None = None,
    isolated: int | None = None,
) -> BlockHamiltonian:
    """Common assembly: field term + level terms + dipolar couplings.

    The field and level terms form the diagonal, read from the basis's
    occupation arrays.  The dipolar couplings sum into the atomic coupling
    that -(a + a^dagger) / sqrt(na) joins photon blocks with, the one-body
    term into the on-site block.  Every
    entry of the dense view rounds exactly as in the term-by-term sum of
    photon (x) atomic products (the tests pin this bitwise, signed zeros
    included).  Every term conserves the excitation-number parity, in the
    rotated frames too (each rotation plane joins two levels of equal weight
    parity), so the result labels every basis state with its parity for the
    sector solver; when the couplings leave level ``isolated`` out, its
    occupation is conserved too and joins the label.
    """
    diagonal = config.Omega * basis.photon_numbers
    for lvl, w in enumerate(level_terms, start=1):
        if w != 0.0:
            diagonal = diagonal + w * basis.level_counts[:, lvl - 1]

    atomic_coupling = np.zeros((basis.atomic_dim, basis.atomic_dim))
    for (j, k), mu in couplings.items():
        if mu != 0.0:
            atomic_coupling += mu * _symmetric_pair(basis.na, j, k)

    on_site = None
    if one_body is not None:
        (j, k), lam = one_body
        if lam != 0.0:
            on_site = lam * _symmetric_pair(basis.na, j, k)
    labels = excitation_values(basis, config.cfg) % 2
    if isolated is not None:
        labels += 2 * basis.level_counts[:, isolated - 1]
    return BlockHamiltonian(diagonal, on_site, atomic_coupling, labels)


def _symmetric_pair(na: int, j: int, k: int) -> np.ndarray:
    return atomic_collective_matrix(na, j, k) + atomic_collective_matrix(na, k, j)


@dataclass(frozen=True)
class RotatedParameters:
    """Parameter bundle of the rotated frame for one (configuration, branch).

    Exactly one of the rotated couplings survives, ``coupled_mu`` on
    ``coupled_pair``, equal to the root sum square of the two originals; the
    residual one-body coupling lambda_t acts on the forbidden pair and
    vanishes at equal detuning.
    """

    alpha: float
    branch: Branch
    omega_ts: tuple[float, float, float]
    lambda_t: float
    lambda_pair: tuple[int, int]
    coupled_pair: tuple[int, int]
    coupled_mu: float

    @property
    def mu_ts(self) -> dict[tuple[int, int], float]:
        return {p: self.coupled_mu if p == self.coupled_pair else 0.0 for p in _COUPLING_NAMES}

    @property
    def isolated_level(self) -> int:
        """The level outside the surviving coupled pair."""
        return ({1, 2, 3} - set(self.coupled_pair)).pop()


def rotated_parameters(config: ModelConfig, branch: Branch) -> RotatedParameters:
    """Rotated-frame parameters for the chosen branch.

    One plane-rotation rule serves every configuration.  With (A, B) the
    plane couplings, (j, k) the rotation plane and rho^2 = A^2 + B^2, the
    first branch mixes the plane's levels into
    w~_j = (w_j A^2 + w_k B^2) / rho^2 and w~_k = (w_j B^2 + w_k A^2) / rho^2,
    leaves lambda~ = (w_j - w_k) A B / rho^2 on the forbidden pair, and puts
    the single coupling hypot(A, B) on the first allowed pair.  The second
    branch swaps w~_j and w~_k, flips the sign of lambda~ and moves the
    coupling to the second allowed pair.  These rational forms keep
    structural zeros exact: at equal detuning lambda_t is exactly 0.0, so
    the isolated level decouples bitwise in the assembled matrix.
    """
    alpha = decoupling_angle(config, branch)
    cfg = config.cfg
    a, b = config.plane_couplings
    j, k = cfg.rotation_plane
    w_j, w_k = config.omegas[j - 1], config.omegas[k - 1]
    rho2 = a * a + b * b
    mixed_j = (w_j * a * a + w_k * b * b) / rho2
    mixed_k = (w_j * b * b + w_k * a * a) / rho2
    lam = (w_j - w_k) * a * b / rho2
    first = branch is Branch.FIRST
    omega_t = list(config.omegas)
    omega_t[j - 1], omega_t[k - 1] = (mixed_j, mixed_k) if first else (mixed_k, mixed_j)
    return RotatedParameters(
        alpha=alpha,
        branch=branch,
        omega_ts=tuple(omega_t),
        lambda_t=lam if first else -lam,
        lambda_pair=cfg.forbidden_pair,
        coupled_pair=cfg.allowed_pairs[0 if first else 1],
        coupled_mu=float(np.hypot(a, b)),
    )


def build_hamiltonian(
    config: ModelConfig, basis: BasisSet, rotated: Branch | None = None
) -> BlockHamiltonian:
    """Hamiltonian in the lab frame (``rotated=None``) or a decoupled frame.

    The lab frame holds field + level terms - (a t + a) dipolar couplings; a
    branch's frame is assembled from its parameter bundle, which agrees with
    U H U.T from the similarity transform and exposes the parameter table
    itself to tests.  Without a one-body term (lambda_t exactly 0, as at
    equal detuning) the isolated level's occupation is conserved and labels
    the solver's sectors along with the parity.
    """
    if basis.na != config.na or basis.nmax != config.nmax:
        raise ValueError(
            f"basis (na={basis.na}, nmax={basis.nmax}) does not match "
            f"config (na={config.na}, nmax={config.nmax})"
        )
    if rotated is None:
        couplings = {pair: config.coupling(pair) for pair in config.cfg.allowed_pairs}
        return _assemble(config, basis, config.omegas, couplings)
    params = rotated_parameters(config, rotated)
    return _assemble(
        config,
        basis,
        params.omega_ts,
        {params.coupled_pair: params.coupled_mu},
        one_body=(params.lambda_pair, params.lambda_t),
        isolated=params.isolated_level if params.lambda_t == 0.0 else None,
    )
