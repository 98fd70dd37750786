"""Level-pair rotations exp(-alpha K_jk) and their action on the generators.

K_jk = A_jk - A_kj is real antisymmetric, so the rotation is real orthogonal
and acts on the atomic factor only.  The adjoint action on every collective
operator has a closed form (a plane rotation in operator space); the matrix
exponential is kept alongside as an independent oracle.

Each configuration rotates in one oriented plane (j, k), read from the
geometry table on :class:`dicke3.operators.Configuration`.  The decoupling
angle comes from the two plane couplings alone, so no caller names the plane.

``rotate_amplitudes`` applies a configuration's rotation to state amplitudes
through the m x m atomic factor alone; ``cli populations``,
``analysis.fidelity_rotated_exact`` and ``protocol.rabi_demo`` rotate states
this way.  ``plane_rotation`` builds the dense dim x dim U.  It stays the
oracle for ``rotate-check`` and the tests, and ``protocol.store``/``retrieve``
still apply it: the benchmark's tracing self-test expects the store workload
to build the dense U.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

from .basis import BasisSet
from .operators import Configuration, OperatorMatrix, atomic_collective_matrix

if TYPE_CHECKING:
    from .model import ModelConfig


class Branch(Enum):
    """Which of the two decoupling angle choices is taken."""

    FIRST = "first"
    SECOND = "second"

    @classmethod
    def from_label(cls, label: str) -> "Branch":
        try:
            return cls(label.lower())
        except ValueError:
            raise ValueError(
                f"unknown branch {label!r}; expected 'first' or 'second'"
            ) from None


class UndefinedAngleError(ValueError):
    """Both couplings in the angle ratio vanish; the rotation is undefined."""


@dataclass(frozen=True)
class RotationSpec:
    """Rotation exp(-alpha K_jk) acting in the (j, k) level plane."""

    j: int
    k: int
    alpha: float

    def __post_init__(self):
        if self.j not in (1, 2, 3) or self.k not in (1, 2, 3):
            raise ValueError(f"levels must be in 1..3, got ({self.j}, {self.k})")
        if self.j == self.k:
            raise ValueError("rotation plane needs two distinct levels")


def rotation_pair(cfg: Configuration) -> tuple[int, int]:
    """Level pair (j, k) of the decoupling rotation for a configuration."""
    return cfg.rotation_plane


def atomic_generator_matrix(na: int, j: int, k: int) -> np.ndarray:
    """K_jk = A_jk - A_kj on the atomic factor."""
    if j == k:
        raise ValueError("generator needs two distinct levels")
    return atomic_collective_matrix(na, j, k) - atomic_collective_matrix(na, k, j)


def generator_K(basis: BasisSet, j: int, k: int) -> OperatorMatrix:
    """K_jk on the full basis; real antisymmetric, K.T = -K."""
    full = np.kron(np.eye(basis.nmax + 1), atomic_generator_matrix(basis.na, j, k))
    return OperatorMatrix(full, hermitian=False)


def atomic_rotation_matrix(spec: RotationSpec, na: int) -> np.ndarray:
    """exp(-alpha K_jk) on the atomic factor, via scaling-and-squaring."""
    gen = atomic_generator_matrix(na, spec.j, spec.k)
    return scipy.linalg.expm(-spec.alpha * gen)


def rotation_matrix(spec: RotationSpec, basis: BasisSet) -> OperatorMatrix:
    """U = exp(-alpha K_jk) on the full basis.

    U is orthogonal (U U.T = I) and commutes with the photon number, since
    the generator lives on the atomic factor.
    """
    block = atomic_rotation_matrix(spec, basis.na)
    return OperatorMatrix(np.kron(np.eye(basis.nmax + 1), block), hermitian=False)


def transform_exact(spec: RotationSpec, X: OperatorMatrix, basis: BasisSet) -> OperatorMatrix:
    """U X U.T through the matrix exponential; oracle for the closed forms."""
    if X.dim != basis.dim:
        raise ValueError(f"operator dim {X.dim} does not match basis dim {basis.dim}")
    U = rotation_matrix(spec, basis).matrix
    out = U @ X.matrix @ U.T
    if X.hermitian:
        out = (out + out.T) / 2.0
    return OperatorMatrix(out, hermitian=X.hermitian)


def transform_generator_closed_form(
    spec: RotationSpec, l: int, m: int, basis: BasisSet
) -> OperatorMatrix:
    """Adjoint action of exp(-alpha K_jk) on A_lm, in closed form.

    Generators sharing no index with the rotation plane are untouched; the
    rest mix pairwise like components of a vector under a plane rotation.
    """
    j, k = spec.j, spec.k
    c, s = np.cos(spec.alpha), np.sin(spec.alpha)

    def A(p: int, q: int) -> np.ndarray:
        return np.kron(
            np.eye(basis.nmax + 1), atomic_collective_matrix(basis.na, p, q)
        )

    if l not in (j, k) and m not in (j, k):
        out = A(l, m)
    elif (l, m) == (j, j):
        out = c * c * A(j, j) + s * s * A(k, k) + c * s * (A(j, k) + A(k, j))
    elif (l, m) == (k, k):
        out = c * c * A(k, k) + s * s * A(j, j) - c * s * (A(j, k) + A(k, j))
    elif (l, m) == (j, k):
        out = c * c * A(j, k) - s * s * A(k, j) + c * s * (A(k, k) - A(j, j))
    elif (l, m) == (k, j):
        out = c * c * A(k, j) - s * s * A(j, k) + c * s * (A(k, k) - A(j, j))
    elif l == j:
        out = c * A(j, m) + s * A(k, m)
    elif l == k:
        out = c * A(k, m) - s * A(j, m)
    elif m == j:
        out = c * A(l, j) + s * A(l, k)
    else:  # m == k
        out = c * A(l, k) - s * A(l, j)
    return OperatorMatrix(out, hermitian=(l == m))


def decoupling_angle(config: "ModelConfig", branch: Branch) -> float:
    """Angle that cancels one matter-field coupling.

    With (A, B) the plane couplings, the first branch rotates by
    arctan2(B, A) and the second by -arctan2(A, B); the principal arctan
    branch throughout, with the two choices kept explicit rather than
    inferred from coupling signs.
    """
    a, b = config.plane_couplings
    if a == 0.0 and b == 0.0:
        raise UndefinedAngleError(
            f"both couplings in the {config.cfg.value} angle ratio vanish"
        )
    if branch is Branch.FIRST:
        return float(np.arctan2(b, a))
    return float(-np.arctan2(a, b))


def plane_rotation(cfg: Configuration, alpha: float, basis: BasisSet) -> OperatorMatrix:
    """Full-basis U = exp(-alpha K_jk) in the configuration's rotation plane."""
    return rotation_matrix(RotationSpec(*rotation_pair(cfg), alpha), basis)


def rotate_amplitudes(
    cfg: Configuration, alpha: float, amplitudes: np.ndarray, basis: BasisSet
) -> np.ndarray:
    """U @ amplitudes for U = exp(-alpha K_jk) in the configuration's plane.

    U is the identity on the photon factor, so in the photon-major basis each
    photon block of m = atomic_dim amplitudes turns by the m x m atomic
    factor: the amplitudes, reshaped to (nmax + 1, m), are multiplied by its
    transpose.  Leading axes hold independent states, rotated alike.
    """
    amplitudes = np.asarray(amplitudes)
    if amplitudes.shape[-1:] != (basis.dim,):
        raise ValueError(
            f"amplitudes of shape {amplitudes.shape} do not match basis dim {basis.dim}"
        )
    block = atomic_rotation_matrix(RotationSpec(*rotation_pair(cfg), alpha), basis.na)
    blocks = amplitudes.reshape(*amplitudes.shape[:-1], basis.nmax + 1, basis.atomic_dim)
    return (blocks @ block.T).reshape(amplitudes.shape)


def decoupling_rotation(
    config: "ModelConfig", branch: Branch, basis: BasisSet
) -> OperatorMatrix:
    """Full-basis U at the decoupling angle."""
    return plane_rotation(config.cfg, decoupling_angle(config, branch), basis)
