"""Field operators, collective three-level operators, and symmetry operators.

All matrices are real and dense.  The Hamiltonians assembled from these are
real symmetric in the occupation basis, so complex storage is only needed for
states under time evolution.  The full-basis operators here factorize as
kron(photon, atomic) thanks to the photon-major enumeration of
:mod:`dicke3.basis`; the Hamiltonian assembly in :mod:`dicke3.model` skips
that product and uses the atomic factors as photon blocks directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import BasisSet, atomic_occupations


class Configuration(Enum):
    """Allowed-transition pattern of the three-level atom.

    Each configuration forbids exactly one dipolar transition: (1,3) for the
    ladder (Xi), (1,2) for Lambda, and (2,3) for V.
    """

    XI = "xi"
    LAMBDA = "lambda"
    V = "v"

    @classmethod
    def from_label(cls, label: str) -> "Configuration":
        try:
            return cls(label.lower())
        except ValueError:
            raise ValueError(
                f"unknown configuration {label!r}; expected one of "
                f"{[c.value for c in cls]}"
            ) from None

    @property
    def forbidden_pair(self) -> tuple[int, int]:
        """Level pair whose dipolar coupling must vanish."""
        return _FORBIDDEN[self]

    @property
    def allowed_pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two level pairs with nonzero dipolar coupling, in plane order.

        The first pair is the abscissa of coupling-plane scans, the second
        the ordinate.
        """
        return _ALLOWED[self]

    @property
    def excitation_weights(self) -> tuple[int, int, int]:
        """Weights (w1, w2, w3) so M = nu + sum_j w_j n_j counts excitations."""
        return _EXCITATION_WEIGHTS[self]


_FORBIDDEN = {
    Configuration.XI: (1, 3),
    Configuration.LAMBDA: (1, 2),
    Configuration.V: (2, 3),
}

_ALLOWED = {
    Configuration.XI: ((1, 2), (2, 3)),
    Configuration.LAMBDA: ((2, 3), (1, 3)),
    Configuration.V: ((1, 2), (1, 3)),
}

_EXCITATION_WEIGHTS = {
    Configuration.XI: (0, 1, 2),
    Configuration.V: (0, 1, 1),
    Configuration.LAMBDA: (0, 0, 1),
}


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense real operator over a basis, with an explicit hermiticity flag.

    Construction with ``hermitian=True`` demands exact (bitwise) symmetry;
    all builders in this package assemble symmetric matrices exactly, so any
    asymmetry is a bug, not roundoff.
    """

    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        if self.hermitian and not np.array_equal(m, m.T):
            raise ValueError("hermitian flag set but matrix is not symmetric")
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def atomic_collective_matrix(na: int, j: int, k: int) -> np.ndarray:
    """Collective transition operator on the atomic factor alone.

    Moves one atom from level k to level j with the two-mode boson amplitude
    sqrt((n_j + 1) n_k); the diagonal case j = k counts atoms in level j.
    """
    if j not in (1, 2, 3) or k not in (1, 2, 3):
        raise ValueError(f"level indices must be in 1..3, got ({j}, {k})")
    occs = atomic_occupations(na)
    index = {occ: i for i, occ in enumerate(occs)}
    m = len(occs)
    out = np.zeros((m, m))
    for col, occ in enumerate(occs):
        if j == k:
            out[col, col] = occ[j - 1]
            continue
        if occ[k - 1] == 0:
            continue
        target = list(occ)
        target[k - 1] -= 1
        target[j - 1] += 1
        amp = np.sqrt((occ[j - 1] + 1) * occ[k - 1])
        out[index[tuple(target)], col] = amp
    return out


def photon_ladder_matrix(nmax: int) -> np.ndarray:
    """Creation operator on the photon factor, truncated at nmax."""
    ad = np.zeros((nmax + 1, nmax + 1))
    for nu in range(nmax):
        ad[nu + 1, nu] = np.sqrt(nu + 1)
    return ad


def boson_create(basis: BasisSet) -> OperatorMatrix:
    """Photon creation operator, identity on the atoms; kills |nmax> by truncation."""
    full = np.kron(photon_ladder_matrix(basis.nmax), np.eye(basis.atomic_dim))
    return OperatorMatrix(full, hermitian=False)


def boson_annihilate(basis: BasisSet) -> OperatorMatrix:
    full = np.kron(photon_ladder_matrix(basis.nmax).T, np.eye(basis.atomic_dim))
    return OperatorMatrix(full, hermitian=False)


def collective_A(basis: BasisSet, j: int, k: int) -> OperatorMatrix:
    """Collective operator A_jk on the full basis (identity on photons)."""
    atomic = atomic_collective_matrix(basis.na, j, k)
    full = np.kron(np.eye(basis.nmax + 1), atomic)
    return OperatorMatrix(full, hermitian=(j == k))


def excitation_values(basis: BasisSet, cfg: Configuration) -> np.ndarray:
    """Excitation count M of every basis state for a configuration."""
    w = np.array(cfg.excitation_weights, dtype=np.int64)
    return basis.photon_numbers + basis.level_counts @ w


def excitation_number(basis: BasisSet, cfg: Configuration) -> OperatorMatrix:
    """Diagonal excitation-number operator M for a configuration."""
    return OperatorMatrix(
        np.diag(excitation_values(basis, cfg).astype(float)), hermitian=True
    )


def parity(basis: BasisSet, cfg: Configuration) -> OperatorMatrix:
    """Diagonal parity operator with entries (-1)**M.

    Commutes with the matching configuration Hamiltonian and splits the
    space into even and odd excitation sectors.
    """
    signs = np.where(excitation_values(basis, cfg) % 2 == 0, 1.0, -1.0)
    return OperatorMatrix(np.diag(signs), hermitian=True)
