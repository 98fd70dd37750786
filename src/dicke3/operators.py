"""Configurations, the operator containers, and the collective atomic operators.

All matrices are real.  Hamiltonians are real symmetric in the occupation
basis and held in photon-block form (:class:`BlockHamiltonian`), whose dense
view is built only on demand.  The one dense full-basis operator the package
builds is the rotation U of :func:`dicke3.rotations.rotation_matrix`, held
as an :class:`OperatorMatrix`.  Complex storage is only needed for states
under time evolution.  Collective operators are the identity on the photon
factor, so only their m x m atomic factors are built, each entry placed at
once by :func:`dicke3.basis.atomic_index`; :mod:`dicke3.model` places them
as photon blocks.  Diagonal operators are occupation-array vectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import BasisSet, atomic_index, atomic_occupations


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
        """Level pair whose dipolar coupling must vanish: the rotation plane, sorted."""
        return tuple(sorted(self.rotation_plane))

    @property
    def allowed_pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two level pairs with nonzero dipolar coupling, in plane order.

        The first pair is the abscissa of coupling-plane scans, the second
        the ordinate.
        """
        return _GEOMETRY[self][0]

    @property
    def rotation_plane(self) -> tuple[int, int]:
        """Oriented level pair (j, k) of the decoupling rotation exp(-alpha K_jk)."""
        return _GEOMETRY[self][1]

    @property
    def excitation_weights(self) -> tuple[int, int, int]:
        """Weights (w1, w2, w3) so M = nu + sum_j w_j n_j counts excitations."""
        return _GEOMETRY[self][2]


# configuration -> (allowed pairs in plane order, rotation plane, excitation weights)
_GEOMETRY = {
    Configuration.XI: (((1, 2), (2, 3)), (3, 1), (0, 1, 2)),
    Configuration.LAMBDA: (((2, 3), (1, 3)), (1, 2), (0, 0, 1)),
    Configuration.V: (((1, 2), (1, 3)), (3, 2), (0, 1, 1)),
}


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense real square operator over a basis, read-only."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BlockHamiltonian:
    """Real symmetric Hamiltonian in photon-block form.

    In the photon-major basis H is block tridiagonal over photon number with
    atomic (m x m) blocks.  Photon block nu holds ``diagonal`` on its
    diagonal plus the ``on_site`` block (None for none); block (nu, nu + 1)
    is ``hops[nu]`` and block (nu + 1, nu) its transpose.  The builders make
    every ``on_site`` block symmetric, so H is too and nothing checks it at
    run time.
    ``sector_labels`` holds one integer per basis state: the excitation-number
    parity (0 even, 1 odd), plus twice the isolated level's occupation in a
    frame that conserves it.  The solver solves each set of equal labels as
    one sector, in the order of the sectors' lowest basis indices, so the
    vacuum's (basis state 0) comes first and wins ties.  Construction
    refuses labels that a nonzero entry of ``on_site`` or ``hops`` crosses.
    The dense view ``matrix`` is built only when read, and kept.
    """

    diagonal: np.ndarray
    on_site: np.ndarray | None
    hops: np.ndarray
    sector_labels: np.ndarray

    def __post_init__(self):
        m = self.hops.shape[1]
        dim = (self.hops.shape[0] + 1) * m
        if self.diagonal.shape != (dim,) or self.sector_labels.shape != (dim,):
            raise ValueError(
                f"diagonal {self.diagonal.shape} and sector labels "
                f"{self.sector_labels.shape} do not match photon blocks {self.hops.shape}"
            )
        labels = self.sector_labels.reshape(-1, m)
        joined = [(self.hops, labels[:-1], labels[1:])]
        if self.on_site is not None:
            joined.append((self.on_site, labels, labels))
        for block, rows, cols in joined:
            if np.any((block != 0.0) & (rows[:, :, None] != cols[:, None, :])):
                raise ValueError("a nonzero entry joins states of different sector labels")
        for a in (self.diagonal, self.on_site, self.hops, self.sector_labels):
            if a is not None:
                a.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.diagonal.shape[0]

    @functools.cached_property
    def _diagonal_blocks(self) -> np.ndarray:
        """The (nmax + 1, m, m) photon-diagonal blocks of H."""
        m = self.hops.shape[1]
        out = np.zeros((self.dim // m, m, m))
        out.reshape(-1, m * m)[:, :: m + 1] = self.diagonal.reshape(-1, m)
        if self.on_site is not None:
            out += self.on_site
        out.setflags(write=False)
        return out

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Dense read-only view, dim x dim, scattered from the blocks.

        Nothing in the package reads it; only the tests (as an oracle) and
        the benchmark's tracer do."""
        m = self.hops.shape[1]
        nph = self.dim // m
        out = np.zeros((self.dim, self.dim))
        blocks = out.reshape(nph, m, nph, m)
        nu = np.arange(nph)
        blocks[nu, :, nu, :] = self._diagonal_blocks
        blocks[nu[:-1], :, nu[1:], :] = self.hops
        blocks[nu[1:], :, nu[:-1], :] = self.hops.transpose(0, 2, 1)
        out.setflags(write=False)
        return out

    def _entries(self, idx: np.ndarray):
        """(rows, cols, values) of H[np.ix_(idx, idx)] in local indices, for
        the diagonal blocks and for the upper hop blocks, whose mirror
        images are the lower ones."""
        local = np.full(self.dim, -1)
        local[idx] = np.arange(idx.size)
        local = local.reshape(-1, self.hops.shape[1])
        kept = local >= 0
        out = []
        for values, shift in ((self._diagonal_blocks, 0), (self.hops, 1)):
            nu, i, j = np.nonzero(kept[: len(kept) - shift, :, None] & kept[shift:, None, :])
            out.append((local[nu, i], local[nu + shift, j], values[nu, i, j]))
        return out

    def dense_block(self, idx: np.ndarray) -> np.ndarray:
        """Fresh Fortran-order copy of H[np.ix_(idx, idx)], bitwise equal."""
        (rd, cd, vd), (ru, cu, vu) = self._entries(idx)
        out = np.zeros((idx.size, idx.size), order="F")
        out[rd, cd] = vd
        out[ru, cu] = vu
        out[cu, ru] = vu
        return out

    def upper_band(self, idx: np.ndarray) -> np.ndarray:
        """H[np.ix_(idx, idx)] in LAPACK's upper band storage: a fresh
        Fortran-order (w + 1, idx.size) array whose row w - k holds the k-th
        superdiagonal, w the farthest one with a nonzero entry."""
        (rd, cd, vd), (ru, cu, vu) = self._entries(idx)
        rows, cols = np.concatenate([rd, ru]), np.concatenate([cd, cu])
        vals = np.concatenate([vd, vu])
        kept = (rows <= cols) & (vals != 0.0)
        rows, cols, vals = rows[kept], cols[kept], vals[kept]
        w = int(np.max(cols - rows, initial=0))
        out = np.zeros((w + 1, idx.size), order="F")
        out[w + rows - cols, cols] = vals
        return out

    def sparse_block(self, idx: np.ndarray):
        """H[np.ix_(idx, idx)] as canonical CSR, zeros (of either sign) dropped."""
        import scipy.sparse

        (rd, cd, vd), (ru, cu, vu) = self._entries(idx)
        rows, cols = np.concatenate([rd, ru, cu]), np.concatenate([cd, cu, ru])
        vals = np.concatenate([vd, vu, vu])
        nz = vals != 0.0
        return scipy.sparse.csr_matrix((vals[nz], (rows[nz], cols[nz])), shape=(idx.size,) * 2)


def atomic_collective_matrix(na: int, j: int, k: int) -> np.ndarray:
    """Collective transition operator on the atomic factor alone.

    Moves one atom from level k to level j with the two-mode boson amplitude
    sqrt((n_j + 1) n_k); the diagonal case j = k counts atoms in level j.
    The result is cached per (na, j, k) and read-only.
    """
    if j not in (1, 2, 3) or k not in (1, 2, 3):
        raise ValueError(f"level indices must be in 1..3, got ({j}, {k})")
    return _atomic_collective_matrix(na, j, k)


@functools.lru_cache(maxsize=None)
def _atomic_collective_matrix(na: int, j: int, k: int) -> np.ndarray:
    occs = atomic_occupations(na)
    out = np.zeros((len(occs), len(occs)))
    if j == k:
        np.fill_diagonal(out, occs[:, j - 1])
    else:
        cols = np.flatnonzero(occs[:, k - 1])
        n = occs[cols]  # each column's row holds one atom moved from level k to j
        rows = atomic_index(n[:, 1] + (j == 2) - (k == 2), n[:, 2] + (j == 3) - (k == 3))
        out[rows, cols] = np.sqrt((n[:, j - 1] + 1) * n[:, k - 1])
    out.setflags(write=False)
    return out


def excitation_values(basis: BasisSet, cfg: Configuration) -> np.ndarray:
    """Excitation count M of every basis state for a configuration."""
    w = np.array(cfg.excitation_weights, dtype=np.int64)
    return basis.photon_numbers + basis.level_counts @ w
