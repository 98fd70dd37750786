"""Configurations, the operator containers, and the collective atomic operators.

All matrices are real.  Hamiltonians are real symmetric in the occupation
basis and held as their atomic factors in photon-block form
(:class:`BlockHamiltonian`), whose dense view is built only on demand.  An H
splits its basis into sectors once and gathers each sector's band from the
factors' nonzeros, whole or split into photon-diagonal and hop parts.  The
package builds no dense full-basis operator; :class:`OperatorMatrix` holds
the dense references of the tests.
Complex storage is only needed for states under time evolution.
Collective operators are the identity on the photon factor, so only their
m x m atomic factors are built, each entry placed at once by
:func:`dicke3.basis.atomic_index`; :mod:`dicke3.model` sums them into a
Hamiltonian's atomic coupling and on-site block.  Diagonal operators are
occupation-array vectors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import BasisSet, atomic_dimension, atomic_index, atomic_occupations


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
    """Real symmetric Hamiltonian of na atoms and a photon mode, as atomic factors.

    In the photon-major basis H is block tridiagonal over photon number with
    atomic (m x m) blocks, m = (na + 1)(na + 2) / 2.  Photon block nu holds
    ``diagonal`` on its diagonal plus the ``on_site`` block (None for none);
    block (nu, nu + 1) holds ``0.0 - (sqrt(nu + 1) * c) / sqrt(na)`` for each
    entry c of the atomic ``coupling``, and block (nu + 1, nu) its transpose.
    The builders make every ``on_site`` block symmetric, so H is too and
    nothing checks it at run time.
    ``sector_labels`` holds one integer per basis state: the excitation-number
    parity (0 even, 1 odd), plus twice the isolated level's occupation in a
    frame that conserves it.  The solver solves each set of equal labels as
    one sector (``sectors``, split once per H), in the order of the sectors'
    lowest basis indices, so the vacuum's (basis state 0) comes first and
    wins ties; ``upper_band`` gathers one as a band.  Construction
    refuses labels that a nonzero entry of ``on_site`` or ``coupling``
    crosses.  The dense view ``matrix`` is built only when read, and kept.
    """

    diagonal: np.ndarray
    on_site: np.ndarray | None
    coupling: np.ndarray
    sector_labels: np.ndarray

    def __post_init__(self):
        m, dim = self.coupling.shape[0], self.dim
        blocks = [(b, shift) for b, shift in ((self.on_site, 0), (self.coupling, 1)) if b is not None]
        if any(b.shape != (m, m) for b, _ in blocks) or self.na < 1 or atomic_dimension(self.na) != m:
            raise ValueError(f"coupling {self.coupling.shape} is not the atomic block of na >= 1 atoms")
        if not self.diagonal.shape == self.sector_labels.shape == (dim,) or dim % m or not dim:
            raise ValueError(f"diagonal {self.diagonal.shape} and sector labels "
                             f"{self.sector_labels.shape} do not fill photon blocks of {m} states")
        for block, shift in blocks:
            rows, cols, _ = self._placed(block, shift)
            if np.any(self.sector_labels[rows] != self.sector_labels[cols]):
                raise ValueError("a nonzero entry joins states of different sector labels")
        for a in (self.diagonal, self.sector_labels, *(b for b, _ in blocks)):
            a.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.diagonal.shape[0]

    @property
    def na(self) -> int:
        """The atom count whose atomic block has the coupling's size."""
        return (math.isqrt(8 * self.coupling.shape[0] + 1) - 3) // 2

    def _placed(self, block: np.ndarray, shift: int, upper: bool = False):
        """Every nonzero entry (a, b) of an atomic block, b > a only with
        ``upper``, placed at photon blocks (nu, nu + shift): its basis row,
        basis column and value, as arrays with one row per photon block nu."""
        m = block.shape[0]
        a, b = np.nonzero(np.triu(block, 1) if upper else block)
        start = m * np.arange(self.dim // m - shift)[:, None]
        return start + a, start + shift * m + b, np.broadcast_to(block[a, b], (len(start), len(a)))

    def _hops(self, nu, c) -> np.ndarray:
        """The hop entries of coupling entries c at photon blocks (nu, nu + 1)."""
        with np.errstate(over="ignore", invalid="ignore"):  # the solver refuses overflow
            return 0.0 - (np.sqrt(nu + 1.0) * c) / np.sqrt(self.na)

    @functools.cached_property
    def _split(self):
        """(:attr:`sectors`, each basis state's sector, its position there), split once per H."""
        _, first, inverse = np.unique(self.sector_labels, return_index=True, return_inverse=True)
        sector = np.argsort(np.argsort(first))[inverse.ravel()]  # sectors by first index
        order = np.argsort(sector, kind="stable")
        indices = tuple(np.split(order, np.cumsum(np.bincount(sector))[:-1]))
        local = np.empty_like(order)
        for idx in indices:
            local[idx] = np.arange(idx.size)
            idx.setflags(write=False)
        return indices, sector, local

    @property
    def sectors(self) -> tuple[np.ndarray, ...]:
        """Each sector's basis indices, read-only, in order of lowest index: the vacuum's first."""
        return self._split[0]

    def upper_band(self, k: int, parts: bool = False):
        """Sector k in LAPACK's upper band storage: a fresh Fortran-order
        (w + 1, n) array whose row w - d holds the d-th superdiagonal, w the
        farthest one with a nonzero entry, and zeros are +0.0.  With
        ``parts``, two such bands that add up to it: the photon-diagonal
        blocks (diagonal and on-site) and the hop blocks."""
        indices, sector, local = self._split
        idx = indices[k]
        on_site = 0.0 if self.on_site is None else np.diagonal(self.on_site)[idx % self.coupling.shape[0]]
        found = [(idx, idx, self.diagonal[idx] + on_site)]  # a zero of either sign is dropped
        for block, shift in ((self.on_site, 0), (self.coupling, 1)):  # the hops last
            if block is not None:
                rows, cols, c = self._placed(block, shift, upper=not shift)
                nu, j = np.nonzero(sector[rows] == k)  # the entries in sector k
                found.append((rows[nu, j], cols[nu, j], self._hops(nu, c[nu, j]) if shift else c[nu, j]))
        first_hop = sum(len(f[2]) for f in found[:-1])
        rows, cols, vals = map(np.concatenate, zip(*found))
        kept = vals != 0.0
        layer = (np.flatnonzero(kept) >= first_hop).astype(np.intp) if parts else 0
        rows, cols = local[rows[kept]], local[cols[kept]]
        w = int(np.max(cols - rows, initial=0))
        out = np.zeros((w + 1, idx.size, 1 + parts), order="F")
        out[w - cols + rows, cols, layer] = vals[kept]
        return (out[..., 0], out[..., 1]) if parts else out[..., 0]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Dense read-only view, dim x dim, scattered from the factors: only
        the tests (as an oracle) and the benchmark's tracer read it."""
        m = self.coupling.shape[0]
        nu = np.arange(self.dim // m)
        out = np.zeros((self.dim, self.dim))
        blocks = out.reshape(nu.size, m, nu.size, m)
        diagonal = np.zeros((nu.size, m, m))
        diagonal.reshape(-1, m * m)[:, :: m + 1] = self.diagonal.reshape(-1, m)
        blocks[nu, :, nu, :] = diagonal if self.on_site is None else diagonal + self.on_site
        blocks[nu[:-1], :, nu[1:], :] = hops = self._hops(nu[:-1, None, None], self.coupling)
        blocks[nu[1:], :, nu[:-1], :] = hops.transpose(0, 2, 1)
        out.setflags(write=False)
        return out


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
