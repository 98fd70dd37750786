"""Configurations, the operator containers, and the collective atomic operators.

All matrices are real.  Hamiltonians are real symmetric in the occupation
basis and held in photon-block form (:class:`BlockHamiltonian`), whose dense
view is built only on demand; a :class:`SectorLayout` reads its sectors as
bands, whole or split into photon-diagonal and hop parts.  The package
builds no dense full-basis operator; :class:`OperatorMatrix` holds the dense
references of the tests.
Complex storage is only needed for states under time evolution.
Collective operators are the identity on the photon factor, so only their
m x m atomic factors are built, each entry placed at once by
:func:`dicke3.basis.atomic_index`; :mod:`dicke3.model` places them as
photon blocks.  Diagonal operators are occupation-array vectors.
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
    def _blocks(self) -> np.ndarray:
        """The (nmax + 1, m, m) photon-diagonal blocks of H and then its hop
        blocks, flattened into one read-only array: the values a
        :class:`SectorLayout` gathers."""
        m = self.hops.shape[1]
        diagonal = np.zeros((self.dim // m, m, m))
        diagonal.reshape(-1, m * m)[:, :: m + 1] = self.diagonal.reshape(-1, m)
        if self.on_site is not None:
            diagonal += self.on_site
        out = np.concatenate([diagonal.ravel(), self.hops.ravel()])
        out.setflags(write=False)
        return out

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Dense read-only view, dim x dim, scattered from the blocks.

        Nothing in the package reads it; only the tests (as an oracle) and
        the benchmark's tracer do."""
        m = self.hops.shape[1]
        nu = np.arange(self.dim // m)
        out = np.zeros((self.dim, self.dim))
        blocks = out.reshape(nu.size, m, nu.size, m)
        blocks[nu, :, nu, :] = self._blocks[: self.dim * m].reshape(-1, m, m)
        blocks[nu[:-1], :, nu[1:], :] = self.hops
        blocks[nu[1:], :, nu[:-1], :] = self.hops.transpose(0, 2, 1)
        out.setflags(write=False)
        return out


class SectorLayout:
    """Each sector of equal labels and where its entries sit in the photon
    blocks of every :class:`BlockHamiltonian` with these labels and atomic
    block size m (``fits``).  ``indices`` holds each sector's basis indices,
    the vacuum's sector first.  A read gathers one H's own entries into a
    band, which the solver writes out as a dense block where it needs one."""

    def __init__(self, labels: np.ndarray, m: int):
        self.labels, self.m, self.indices, self._entries = labels, m, (), []
        _, first = np.unique(labels, return_index=True)
        small = np.int32 if 2 * labels.size * m < 2**31 else np.intp  # halves the memory
        for i in np.sort(first):
            kept = (labels == labels[i]).reshape(-1, m)
            local = np.cumsum(kept) - 1  # every kept state's index in the sector
            found = []
            for shift in (0, 1):  # the diagonal blocks, then the upper hop blocks
                src = np.flatnonzero(kept[: len(kept) - shift, :, None] & kept[shift:, None, :])
                row = src // m  # the basis indices of the entry's row and column
                col = row - row % m + shift * m + src % m
                found.append((local[col] - local[row], local[col], src + shift * labels.size * m))
            # every upper entry's superdiagonal, local column and position in H._blocks
            d, col, src = map(np.concatenate, zip(*found))
            self._entries.append(tuple(a[d >= 0].astype(small) for a in (d, col, src)))
            self.indices += (np.flatnonzero(kept),)
            self.indices[-1].setflags(write=False)

    def fits(self, H: BlockHamiltonian) -> bool:
        """Whether H has this layout's labels and block size."""
        return H.hops.shape[1] == self.m and np.array_equal(H.sector_labels, self.labels)

    def upper_band(self, H: BlockHamiltonian, k: int, parts: bool = False):
        """Sector k of H in LAPACK's upper band storage: a fresh Fortran-order
        (w + 1, n) array whose row w - d holds the d-th superdiagonal, w the
        farthest one with a nonzero entry in this H, and zeros are +0.0.  With
        ``parts``, two such bands that add up to it: H's photon-diagonal
        blocks (diagonal and on-site) and its hop blocks."""
        d, cols, src = self._entries[k]
        vals = H._blocks[src]
        kept = vals != 0.0
        d, cols, src, vals = d[kept], cols[kept], src[kept], vals[kept]
        w = int(np.max(d, initial=0))
        # hop entries sit after the H.dim * m photon-diagonal ones in H._blocks
        layer = (src >= H.dim * self.m).astype(np.intp) if parts else 0
        out = np.zeros((w + 1, self.indices[k].size, 1 + parts), order="F")
        out[w - d, cols, layer] = vals
        return (out[..., 0], out[..., 1]) if parts else out[..., 0]


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
