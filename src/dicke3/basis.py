"""Occupation-number basis for N three-level atoms coupled to one boson mode.

States are product states |nu; n1, n2, n3> with nu the photon number
(truncated at a cutoff) and n1 + n2 + n3 = N_a the number of atoms in each
level.  Only the permutation-symmetric atomic sector is represented, so the
atomic factor has dimension (N_a + 1)(N_a + 2)/2 instead of 3**N_a.

The enumeration is photon-major (nu ascending, then n1 descending, then n2
descending), which keeps photon blocks contiguous: every operator built here
factorizes as (photon part) (x) (atomic part), and photon-cutoff convergence
checks are block local.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

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


def atomic_occupations(na: int) -> tuple[tuple[int, int, int], ...]:
    """All (n1, n2, n3) with n1 + n2 + n3 = na, n1 then n2 descending."""
    if na < 1:
        raise ValueError(f"atom count must be >= 1, got {na}")
    _check_dimension("atomic", atomic_dimension(na))  # every m x m atomic matrix starts here
    out = []
    for n1 in range(na, -1, -1):
        for n2 in range(na - n1, -1, -1):
            out.append((n1, n2, na - n1 - n2))
    return tuple(out)


def atomic_dimension(na: int) -> int:
    return (na + 1) * (na + 2) // 2


def basis_dimension(na: int, nmax: int) -> int:
    """Dimension of the truncated product space: (nmax+1)(na+1)(na+2)/2."""
    return (nmax + 1) * atomic_dimension(na)


def _check_dimension(what: str, dim: int) -> None:
    """Refuse a dense dim x dim matrix above DICKE3_MAX_DIM, else the default."""
    limit = int(os.environ.get(MAX_DIM_ENV_VAR, DEFAULT_MAX_DIM))
    if dim > limit:
        raise DimensionLimitError(
            f"{what} dimension {dim} exceeds the guard {limit}; raise {MAX_DIM_ENV_VAR} to override"
        )


@dataclass(frozen=True)
class BasisSet:
    """Full enumerated basis plus the inverse index map.

    Immutable after construction; shared read-only across threads.  The
    occupation arrays mirror ``states`` columnwise and back the diagonal
    operators and population sums.
    """

    na: int
    nmax: int
    states: tuple[BasisState, ...]
    index: Mapping[BasisState, int]
    photon_numbers: np.ndarray
    level_counts: np.ndarray  # shape (dim, 3)

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def atomic_dim(self) -> int:
        return atomic_dimension(self.na)

    def compatible_with(self, other: "BasisSet") -> bool:
        return self.na == other.na and self.nmax == other.nmax


def enumerate_basis(na: int, nmax: int) -> BasisSet:
    """Enumerate |nu; n1, n2, n3> for nu <= nmax, n1+n2+n3 = na.

    The guard rejects bases whose dense-matrix footprint would be
    unreasonable; the ``DICKE3_MAX_DIM`` environment variable widens it.
    """
    if na < 1:
        raise ValueError(f"atom count must be >= 1, got {na}")
    if nmax < 0:
        raise ValueError(f"photon cutoff must be >= 0, got {nmax}")
    _check_dimension("basis", basis_dimension(na, nmax))
    atoms = atomic_occupations(na)
    states = tuple(
        BasisState(nu, *occ) for nu in range(nmax + 1) for occ in atoms
    )
    index = MappingProxyType({s: i for i, s in enumerate(states)})
    photon_numbers = np.array([s.nu for s in states], dtype=np.int64)
    level_counts = np.array([[s.n1, s.n2, s.n3] for s in states], dtype=np.int64)
    photon_numbers.setflags(write=False)
    level_counts.setflags(write=False)
    return BasisSet(na, nmax, states, index, photon_numbers, level_counts)


def index_of(basis: BasisSet, state: BasisState) -> int:
    """Position of ``state`` in ``basis.states``; inverse of the enumeration."""
    try:
        return basis.index[state]
    except KeyError:
        raise ValueError(f"state {state} is not in the basis") from None
