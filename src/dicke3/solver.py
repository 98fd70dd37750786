"""Eigensolver, ground states, observables, cutoff convergence, evolution.

Full spectra come from dense symmetric diagonalization.  Ground states and
ground energies are solved per parity sector: every Hamiltonian built by
this package conserves the excitation-number parity and says so through its
``parity_labels``, so the two sectors are solved apart for their lowest two
eigenpairs.  Sectors up to DENSE_SECTOR_MAX states go to dense LAPACK;
larger ones to ARPACK's Lanczos solver in shift-invert mode on a sparse
copy read from the three photon block diagonals (every Hamiltonian built
here is block tridiagonal over photon number in the photon-major
ordering).  Operators without parity labels are solved dense, whole.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import BasisSet, DimensionLimitError, enumerate_basis
from .model import ModelConfig, build_frame_hamiltonian
from .operators import OperatorMatrix
from .rotations import Branch

DEGENERACY_GAP = 1e-10
# Sector size above which shift-invert Lanczos beats dense LAPACK on a
# 2-core host (crossover measured near 400 states).
DENSE_SECTOR_MAX = 400
DEFAULT_ENERGY_TOL = 1e-8
DEFAULT_TAIL_TOL = 1e-10
CUTOFF_START = 8
CUTOFF_HARD_CAP = 512


class NonConvergenceError(RuntimeError):
    """Photon-cutoff convergence failed within the hard cap."""


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition: ascending energies, orthonormal columns.

    Sign convention: the largest-magnitude component of every eigenvector is
    positive (ties broken by the lowest index).
    """

    energies: np.ndarray
    vectors: np.ndarray
    basis: BasisSet


@dataclass(frozen=True)
class QuantumState:
    """Normalized state vector over a basis.

    ``degenerate`` marks ground states extracted within DEGENERACY_GAP of the
    next level, where the returned representative is convention, not physics.
    The solver's convention: a state of pure parity, from the sector of the
    vacuum |0; na,0,0> when the two sectors' ground energies tie.
    """

    amplitudes: np.ndarray
    basis: BasisSet
    degenerate: bool = False

    def __post_init__(self):
        if self.amplitudes.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitude vector of length {self.amplitudes.shape} does not "
                f"match basis dimension {self.basis.dim}"
            )
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1):.3e}")
        self.amplitudes.setflags(write=False)


def _fix_sign(column: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(column)))
    return column if column[i] > 0 else -column


def _require_same_basis(a: BasisSet, b: BasisSet) -> None:
    if not a.compatible_with(b):
        raise ValueError(
            f"basis mismatch: (na={a.na}, nmax={a.nmax}) vs (na={b.na}, nmax={b.nmax})"
        )


def _require_solvable(H: OperatorMatrix, basis: BasisSet, caller: str) -> None:
    if not H.hermitian:
        raise ValueError(f"{caller} requires a hermitian operator")
    if H.dim != basis.dim:
        raise ValueError(f"operator dim {H.dim} does not match basis dim {basis.dim}")


def diagonalize(H: OperatorMatrix, basis: BasisSet) -> Spectrum:
    """Full spectrum of a real symmetric operator."""
    _require_solvable(H, basis, "diagonalize")
    energies, vectors = scipy.linalg.eigh(H.matrix)
    for col in range(vectors.shape[1]):
        vectors[:, col] = _fix_sign(vectors[:, col])
    energies.setflags(write=False)
    vectors.setflags(write=False)
    return Spectrum(energies, vectors, basis)


def _photon_band_csr(mat: np.ndarray, m: int):
    """CSR copy of a Hamiltonian built here, read from its photon-diagonal
    and upper photon blocks of size m; the builders write no other blocks,
    and the lower ones mirror the upper ones."""
    import scipy.sparse

    nph = mat.shape[0] // m
    blocks = mat.reshape(nph, m, nph, m)
    nu = np.arange(nph)
    diag = blocks[nu, :, nu, :]
    upper = blocks[nu[:-1], :, nu[1:], :]
    b, i, j = np.nonzero(diag)
    bu, iu, ju = np.nonzero(upper)
    rows_u, cols_u = bu * m + iu, (bu + 1) * m + ju
    vals_u = upper[bu, iu, ju]
    rows = np.concatenate([b * m + i, rows_u, cols_u])
    cols = np.concatenate([b * m + j, cols_u, rows_u])
    vals = np.concatenate([diag[b, i, j], vals_u, vals_u])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=mat.shape)


def _shift_invert_pair(A):
    """Lowest two eigenpairs of a sparse symmetric block by shift-invert
    Lanczos.

    The shift sits below the block's Gershgorin bound, so the shifted block
    is positive definite and its two largest inverse eigenvalues are the
    block's two lowest levels.
    """
    import scipy.sparse.linalg

    diag = A.diagonal()
    radius = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(diag)
    sigma = float(np.min(diag - radius)) - 1.0
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])  # deterministic start
    energies, vectors = scipy.sparse.linalg.eigsh(A, k=2, sigma=sigma, which="LM", tol=0, v0=v0)
    order = np.argsort(energies)
    return energies[order], vectors[:, order]


def _dense_pair(block: np.ndarray, scratch: bool = False):
    """Lowest two eigenpairs by LAPACK.  A ``scratch`` block is a private
    copy: its transpose, the same symmetric matrix in Fortran order, is
    handed to LAPACK to overwrite, so no second copy is made."""
    if scratch:
        block = block.T
    return scipy.linalg.eigh(
        block, subset_by_index=(0, min(1, block.shape[0] - 1)), overwrite_a=scratch
    )


def _sector_pairs(H: OperatorMatrix, basis: BasisSet):
    """(basis indices, lowest energies, eigenvectors) of every parity sector,
    the vacuum's (basis state 0) first.

    Each sector yields its lowest two eigenpairs (one for a single state):
    dense LAPACK up to DENSE_SECTOR_MAX states, shift-invert Lanczos above.
    An operator without parity labels is one sector, solved dense.
    """
    if H.parity_labels is None:
        return [(np.arange(H.dim), *_dense_pair(H.matrix))]
    in_vacuum_sector = H.parity_labels == H.parity_labels[0]
    band = None
    out = []
    for idx in (np.flatnonzero(in_vacuum_sector), np.flatnonzero(~in_vacuum_sector)):
        if idx.size == 0:
            continue
        if idx.size <= DENSE_SECTOR_MAX:
            out.append((idx, *_dense_pair(H.matrix[np.ix_(idx, idx)], scratch=True)))
            continue
        if band is None:
            band = _photon_band_csr(H.matrix, basis.atomic_dim)
        out.append((idx, *_shift_invert_pair(band[idx][:, idx])))
    return out


def ground_state(H: OperatorMatrix, basis: BasisSet) -> QuantumState:
    """Lowest eigenvector under the sign convention, of pure parity.

    The lowest level over the parity sectors wins; when the sectors' ground
    energies lie within DEGENERACY_GAP, the vacuum's sector does.
    Near-degeneracy (gap below DEGENERACY_GAP between the two lowest levels
    over both sectors) is flagged on the returned state rather than raised.
    """
    _require_solvable(H, basis, "ground_state")
    pairs = _sector_pairs(H, basis)
    lowest = min(energies[0] for _, energies, _ in pairs)
    # The vacuum's sector comes first, so it wins a tie within DEGENERACY_GAP.
    idx, _, vectors = next(p for p in pairs if p[1][0] < lowest + DEGENERACY_GAP)
    vec = np.zeros(H.dim)
    vec[idx] = vectors[:, 0]
    vec = _fix_sign(vec)
    vec = vec / np.linalg.norm(vec)
    levels = np.sort(np.concatenate([energies for _, energies, _ in pairs]))
    degenerate = bool(levels.size > 1 and levels[1] - levels[0] < DEGENERACY_GAP)
    return QuantumState(vec.astype(complex), basis, degenerate=degenerate)


def expectation(state: QuantumState, op: OperatorMatrix) -> float:
    """Real expectation value of a hermitian operator."""
    if op.dim != state.basis.dim:
        raise ValueError("operator and state dimensions differ")
    val = np.vdot(state.amplitudes, op.matrix @ state.amplitudes)
    return float(val.real)


def populations(state: QuantumState) -> tuple[float, float, float, float]:
    """Level populations and mean photon number (<A11>, <A22>, <A33>, <n>).

    All four operators are diagonal in the occupation basis, so the sums run
    straight over the probability weights; the level populations add up to
    the atom count.
    """
    prob = np.abs(state.amplitudes) ** 2
    counts = state.basis.level_counts
    return (
        float(prob @ counts[:, 0]),
        float(prob @ counts[:, 1]),
        float(prob @ counts[:, 2]),
        float(prob @ state.basis.photon_numbers),
    )


def lowest_energy(H: OperatorMatrix, basis: BasisSet) -> float:
    """Ground energy only: the lowest level over the parity sectors."""
    _require_solvable(H, basis, "lowest_energy")
    return float(min(energies[0] for _, energies, _ in _sector_pairs(H, basis)))


def converged_ground_state(
    config: ModelConfig,
    etol: float = DEFAULT_ENERGY_TOL,
    ptol: float = DEFAULT_TAIL_TOL,
    *,
    rotated: Branch | None = None,
    start: int = CUTOFF_START,
    hard_cap: int = CUTOFF_HARD_CAP,
) -> tuple[int, QuantumState]:
    """Converged photon cutoff together with the ground state at that cutoff.

    A candidate cutoff passes when doubling it moves the ground energy by
    less than ``etol`` and the ground state carries less than ``ptol``
    probability in its top two photon blocks.  Candidates double from
    ``start``; the result is monotone in the couplings, so sweeps may seed
    ``start`` from a dominated point without changing the outcome.
    """
    if etol <= 0 or ptol <= 0:
        raise ValueError("tolerances must be positive")
    energy_at: dict[int, float] = {}

    def e0(cutoff: int) -> float:
        if cutoff not in energy_at:
            b = enumerate_basis(config.na, cutoff)
            m = dataclasses.replace(config, nmax=cutoff)
            energy_at[cutoff] = lowest_energy(build_frame_hamiltonian(m, b, rotated), b)
        return energy_at[cutoff]

    cutoff = start
    try:
        while cutoff <= hard_cap:
            if abs(e0(cutoff) - e0(2 * cutoff)) < etol:
                b = enumerate_basis(config.na, cutoff)
                m = dataclasses.replace(config, nmax=cutoff)
                state = ground_state(build_frame_hamiltonian(m, b, rotated), b)
                tail = np.abs(state.amplitudes[-2 * b.atomic_dim :]) ** 2
                if tail.sum() < ptol:
                    return cutoff, state
            cutoff *= 2
    except DimensionLimitError as exc:
        raise NonConvergenceError(
            f"cutoff search hit the basis dimension guard at nmax={cutoff}"
        ) from exc
    raise NonConvergenceError(
        f"no converged cutoff at or below {hard_cap} "
        f"(etol={etol:g}, ptol={ptol:g})"
    )


def converge_cutoff(
    config: ModelConfig,
    etol: float = DEFAULT_ENERGY_TOL,
    ptol: float = DEFAULT_TAIL_TOL,
    *,
    start: int = CUTOFF_START,
    hard_cap: int = CUTOFF_HARD_CAP,
) -> int:
    """Smallest tested photon cutoff meeting the convergence criteria."""
    cutoff, _ = converged_ground_state(
        config, etol, ptol, start=start, hard_cap=hard_cap
    )
    return cutoff


def evolve(spectrum: Spectrum, state: QuantumState, t: float) -> QuantumState:
    """Unitary evolution by time t through the eigendecomposition."""
    _require_same_basis(spectrum.basis, state.basis)
    coeffs = spectrum.vectors.T @ state.amplitudes
    evolved = spectrum.vectors @ (np.exp(-1j * spectrum.energies * t) * coeffs)
    norm = np.linalg.norm(evolved)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(
            f"evolution lost unitarity: |norm - 1| = {abs(norm - 1):.3e}; "
            "the spectrum's eigenvectors are not orthonormal"
        )
    return QuantumState(evolved / norm, state.basis)
