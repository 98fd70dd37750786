"""Occupation-number basis for N three-level atoms coupled to one boson mode.

States are product states |nu; n1, n2, n3> with nu the photon number
(truncated at a cutoff) and n1 + n2 + n3 = N_a the number of atoms in each
level.  Only the permutation-symmetric atomic sector is represented, so the
atomic factor has dimension m = (N_a + 1)(N_a + 2)/2 instead of 3**N_a.

The enumeration is photon-major (nu ascending, then n1 descending, then n2
descending): state |nu; n1, n2, n3> sits at nu m + t (t + 1)/2 + n3, with
t = n2 + n3.  Photon blocks are contiguous, so the collective operators and
rotations act on the m x m atomic factor of each block, and photon-cutoff
convergence checks are block local.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_MAX_DIM = 6000
MAX_DIM_ENV_VAR = "DICKE3_MAX_DIM"


class DimensionLimitError(ValueError):
    """Requested basis would exceed the configured matrix-size guard."""


class BasisState(NamedTuple):
    """Single product state |nu; n1, n2, n3>."""

    nu: int
    n1: int
    n2: int
    n3: int


def atomic_index(n2, n3):
    """Row of (na - n2 - n3, n2, n3) in ``atomic_occupations(na)``; ints or int arrays."""
    t = n2 + n3
    return t * (t + 1) // 2 + n3


def atomic_occupations(na: int) -> np.ndarray:
    """The (m, 3) int array of all (n1, n2, n3) with n1 + n2 + n3 = na,
    n1 then n2 descending; row i sits at ``atomic_index`` i."""
    if na < 1:
        raise ValueError(f"atom count must be >= 1, got {na}")
    m = atomic_dimension(na)
    _check_dimension("atomic", m)  # every m x m atomic matrix starts here
    t = np.repeat(np.arange(na + 1), np.arange(1, na + 2))
    n3 = np.arange(m) - t * (t + 1) // 2
    return np.stack([na - t, t - n3, n3], axis=1)


def atomic_dimension(na: int) -> int:
    return (na + 1) * (na + 2) // 2


def basis_dimension(na: int, nmax: int) -> int:
    """Dimension of the truncated product space: (nmax+1)(na+1)(na+2)/2."""
    return (nmax + 1) * atomic_dimension(na)


def _check_dimension(what: str, dim: int) -> None:
    """Refuse a dense dim x dim matrix above DICKE3_MAX_DIM, else the default."""
    raw = os.environ.get(MAX_DIM_ENV_VAR, DEFAULT_MAX_DIM)
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_DIM_ENV_VAR} must be an integer, got {raw!r}") from None
    if dim > limit:
        raise DimensionLimitError(
            f"{what} dimension {dim} exceeds the guard {limit}; raise {MAX_DIM_ENV_VAR} to override"
        )


@dataclass(frozen=True)
class BasisSet:
    """The photon-major basis of ``na`` atoms and photon cutoff ``nmax``.

    The two sizes fix it: bases compare and hash by them, and construction
    checks both and the dimension guard.  The occupation arrays, read-only
    and built on first read, back the diagonal operators and populations.
    """

    na: int
    nmax: int

    def __post_init__(self):
        if self.na < 1:
            raise ValueError(f"atom count must be >= 1, got {self.na}")
        if self.nmax < 0:
            raise ValueError(f"photon cutoff must be >= 0, got {self.nmax}")
        _check_dimension("basis", self.dim)

    @functools.cached_property
    def dim(self) -> int:
        return basis_dimension(self.na, self.nmax)

    @property
    def atomic_dim(self) -> int:
        return atomic_dimension(self.na)

    @functools.cached_property
    def photon_numbers(self) -> np.ndarray:
        out = np.repeat(np.arange(self.nmax + 1), self.atomic_dim)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def level_counts(self) -> np.ndarray:
        """Shape (dim, 3): (n1, n2, n3) of every state."""
        out = np.tile(atomic_occupations(self.na), (self.nmax + 1, 1))
        out.setflags(write=False)
        return out


def enumerate_basis(na: int, nmax: int) -> BasisSet:
    """The basis of |nu; n1, n2, n3> for nu <= nmax, n1+n2+n3 = na; the guard
    refuses an oversized one, and ``DICKE3_MAX_DIM`` widens it."""
    return BasisSet(na, nmax)


def index_of(basis: BasisSet, state: BasisState) -> int:
    """Position of ``state`` in the enumeration of ``basis``."""
    nu, n1, n2, n3 = state
    if not (0 <= nu <= basis.nmax and min(n1, n2, n3) >= 0 and n1 + n2 + n3 == basis.na):
        raise ValueError(f"state {state} is not in the basis")
    return nu * basis.atomic_dim + atomic_index(n2, n3)
