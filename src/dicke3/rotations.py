"""Level-pair rotations exp(-alpha K_jk) and their action on the generators.

K_jk = A_jk - A_kj is real antisymmetric, so the rotation is real orthogonal
and acts on the atomic factor only.  Every rotation is a (configuration,
angle) pair: the geometry table on :class:`dicke3.operators.Configuration`
fixes the oriented plane (j, k), and the decoupling angle comes from the two
plane couplings alone, so no caller names the plane.

``atomic_rotation_matrix`` is the one place exp(-alpha K_jk) is computed,
from the cached eigendecomposition of i K_jk, whose spectrum is integer.
``rotate_amplitudes`` applies it to states, photon block by photon block,
so no full-basis rotation is ever built.  The adjoint action on every
collective operator has a closed form, a plane rotation in operator space,
built on the m x m atomic factor.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .basis import BasisSet
from .operators import Configuration, atomic_collective_matrix

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


def atomic_generator_matrix(na: int, j: int, k: int) -> np.ndarray:
    """K_jk = A_jk - A_kj on the atomic factor."""
    if j == k:
        raise ValueError("generator needs two distinct levels")
    return atomic_collective_matrix(na, j, k) - atomic_collective_matrix(na, k, j)


@functools.lru_cache(maxsize=None)
def _generator_eigensystem(cfg: Configuration, na: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the Hermitian i K_jk in cfg's plane.

    On the block with n_j + n_k = n atoms, i K_jk is twice a component of the
    Schwinger-boson spin n / 2, so its eigenvalues are the integers
    -n, -n + 2, ..., n; rounding them makes e^{i alpha lambda} exact.
    """
    lam, vecs = np.linalg.eigh(1j * atomic_generator_matrix(na, *cfg.rotation_plane))
    lam = np.rint(lam)
    lam.setflags(write=False)
    vecs.setflags(write=False)
    return lam, vecs


def atomic_rotation_matrix(cfg: Configuration, alpha: float, na: int) -> np.ndarray:
    """exp(-alpha K) = V diag(e^{i alpha lambda}) V^dagger for i K = V diag(lambda) V^dagger."""
    lam, vecs = _generator_eigensystem(cfg, na)
    return ((vecs * np.exp(1j * alpha * lam)) @ vecs.conj().T).real


def transform_generator_closed_form(
    cfg: Configuration, alpha: float, l: int, m: int, na: int
) -> np.ndarray:
    """Adjoint action of exp(-alpha K_jk) on A_lm, in closed form.

    Generators sharing no index with the rotation plane are untouched; the
    rest mix pairwise like components of a vector under a plane rotation.
    Returns the m x m atomic factor R A_lm R.T, R = ``atomic_rotation_matrix``.
    """
    j, k = cfg.rotation_plane
    c, s = np.cos(alpha), np.sin(alpha)
    A = functools.partial(atomic_collective_matrix, na)
    if l not in (j, k) and m not in (j, k):
        return A(l, m)
    elif (l, m) == (j, j):
        return c * c * A(j, j) + s * s * A(k, k) + c * s * (A(j, k) + A(k, j))
    elif (l, m) == (k, k):
        return c * c * A(k, k) + s * s * A(j, j) - c * s * (A(j, k) + A(k, j))
    elif (l, m) == (j, k):
        return c * c * A(j, k) - s * s * A(k, j) + c * s * (A(k, k) - A(j, j))
    elif (l, m) == (k, j):
        return c * c * A(k, j) - s * s * A(j, k) + c * s * (A(k, k) - A(j, j))
    elif l == j:
        return c * A(j, m) + s * A(k, m)
    elif l == k:
        return c * A(k, m) - s * A(j, m)
    elif m == j:
        return c * A(l, j) + s * A(l, k)
    else:  # m == k
        return c * A(l, k) - s * A(l, j)


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
    block = atomic_rotation_matrix(cfg, alpha, basis.na)
    blocks = amplitudes.reshape(*amplitudes.shape[:-1], basis.nmax + 1, basis.atomic_dim)
    return (blocks @ block.T).reshape(amplitudes.shape)
