"""The photon-major enumeration written out as a tuple of states, an index
dict and a loop over occupations: the oracles for the basis formula and the
collective atomic factors.  Dense full-basis kron(photon, atomic) operators,
the rotation U among them: the oracles for the package's m x m atomic
factors and, with the effective two-level block and coupling of the
decoupled frame, for its rotated frames.  The band read-back of a dense
block, the oracle for the solver's Lanczos sectors; whole-matrix
expectation values, eigenvectors, evolution and band labels, the oracles
for the per-sector solver; the solve of every sector, the oracle for the
solver's sector skip; a ray point's cold solve read from the dense view,
the oracle for the ray's band parts; and the fidelity susceptibility from a
full eigendecomposition, the oracle for the fidelity scans."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from dicke3.basis import BasisSet, BasisState, enumerate_basis
from dicke3.model import ModelConfig, _assemble, rotated_parameters
from dicke3.operators import (
    BlockHamiltonian,
    Configuration,
    OperatorMatrix,
    atomic_collective_matrix,
    excitation_values,
)
from dicke3.rotations import Branch, atomic_generator_matrix, atomic_rotation_matrix
from dicke3 import solver
from dicke3.solver import QuantumState, Spectrum


def enumerated_states(na: int, nmax: int) -> tuple[tuple[BasisState, ...], dict[BasisState, int]]:
    """Every |nu; n1, n2, n3> in order (nu ascending, then n1 descending,
    then n2 descending) and the state -> position dict."""
    atoms = [(n1, n2, na - n1 - n2) for n1 in range(na, -1, -1) for n2 in range(na - n1, -1, -1)]
    states = tuple(BasisState(nu, *occ) for nu in range(nmax + 1) for occ in atoms)
    return states, {s: i for i, s in enumerate(states)}


def loop_collective_matrix(na: int, j: int, k: int) -> np.ndarray:
    """A_jk on the atomic factor, one column per occupation: moves an atom
    from level k to level j with amplitude sqrt((n_j + 1) n_k)."""
    states, index = enumerated_states(na, 0)
    out = np.zeros((len(states), len(states)))
    for col, state in enumerate(states):
        occ = list(state[1:])
        if j == k:
            out[col, col] = occ[j - 1]
        elif occ[k - 1] > 0:
            amp = np.sqrt((occ[j - 1] + 1) * occ[k - 1])
            occ[k - 1] -= 1
            occ[j - 1] += 1
            out[index[BasisState(0, *occ)], col] = amp
    return out


@dataclass(frozen=True)
class KronOperator(OperatorMatrix):
    """A dense full-basis operator built here, flagged when it is exactly
    (bitwise) symmetric; the flag is checked on construction."""

    hermitian: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.hermitian and not np.array_equal(self.matrix, self.matrix.T):
            raise ValueError("hermitian flag set but matrix is not symmetric")


def lift(atomic: np.ndarray, basis: BasisSet) -> np.ndarray:
    """An atomic-factor matrix on the full basis: kron(I_photon, atomic)."""
    return np.kron(np.eye(basis.nmax + 1), atomic)


def photon_ladder_matrix(nmax: int) -> np.ndarray:
    """Creation operator on the photon factor, truncated at nmax."""
    ad = np.zeros((nmax + 1, nmax + 1))
    for nu in range(nmax):
        ad[nu + 1, nu] = np.sqrt(nu + 1)
    return ad


def boson_create(basis: BasisSet) -> KronOperator:
    """Photon creation operator, identity on the atoms; kills |nmax> by truncation."""
    full = np.kron(photon_ladder_matrix(basis.nmax), np.eye(basis.atomic_dim))
    return KronOperator(full)


def boson_annihilate(basis: BasisSet) -> KronOperator:
    full = np.kron(photon_ladder_matrix(basis.nmax).T, np.eye(basis.atomic_dim))
    return KronOperator(full)


def collective_A(basis: BasisSet, j: int, k: int) -> KronOperator:
    """Collective operator A_jk on the full basis (identity on photons)."""
    atomic = atomic_collective_matrix(basis.na, j, k)
    full = np.kron(np.eye(basis.nmax + 1), atomic)
    return KronOperator(full, hermitian=(j == k))


def generator_K(basis: BasisSet, j: int, k: int) -> KronOperator:
    """K_jk on the full basis; real antisymmetric, K.T = -K."""
    full = np.kron(np.eye(basis.nmax + 1), atomic_generator_matrix(basis.na, j, k))
    return KronOperator(full)


def rotation_matrix(cfg: Configuration, alpha: float, basis: BasisSet) -> OperatorMatrix:
    """U = exp(-alpha K_jk) on the full basis, in the configuration's plane:
    kron(I_photon, R) for the atomic factor R; the oracle for
    ``rotate_amplitudes`` and for store/retrieve.  U is orthogonal and
    commutes with the photon number."""
    return OperatorMatrix(lift(atomic_rotation_matrix(cfg, alpha, basis.na), basis))


def excitation_number(basis: BasisSet, cfg: Configuration) -> KronOperator:
    """Diagonal excitation-number operator M for a configuration."""
    return KronOperator(np.diag(excitation_values(basis, cfg).astype(float)), hermitian=True)


def parity(basis: BasisSet, cfg: Configuration) -> KronOperator:
    """Diagonal parity operator with entries (-1)**M.

    Commutes with the matching configuration Hamiltonian and splits the
    space into even and odd excitation sectors.
    """
    signs = np.where(excitation_values(basis, cfg) % 2 == 0, 1.0, -1.0)
    return KronOperator(np.diag(signs), hermitian=True)


def transform_exact(
    cfg: Configuration, alpha: float, X: OperatorMatrix, basis: BasisSet
) -> KronOperator:
    """U X U.T with the dense U; oracle for the closed forms.  A flagged
    symmetric operator comes out symmetrized."""
    if X.dim != basis.dim:
        raise ValueError(f"operator dim {X.dim} does not match basis dim {basis.dim}")
    U = rotation_matrix(cfg, alpha, basis).matrix
    out = U @ X.matrix @ U.T
    hermitian = getattr(X, "hermitian", False)
    if hermitian:
        out = (out + out.T) / 2.0
    return KronOperator(out, hermitian=hermitian)


def effective_two_level_block(config: ModelConfig, branch: Branch, n_fixed: int) -> np.ndarray:
    """A rotated frame's field, level and surviving coupling terms, with no
    one-body term, from the kron operators, restricted to the states with
    ``n_fixed`` atoms in the branch's isolated level."""
    basis = enumerate_basis(config.na, config.nmax)
    params = rotated_parameters(config, branch)
    a, ad = boson_annihilate(basis).matrix, boson_create(basis).matrix
    H = config.Omega * (ad @ a)
    for level, w in enumerate(params.omega_ts, start=1):
        H = H + w * collective_A(basis, level, level).matrix
    j, k = params.coupled_pair
    pair = collective_A(basis, j, k).matrix + collective_A(basis, k, j).matrix
    H = H - params.coupled_mu / np.sqrt(config.na) * ((a + ad) @ pair)
    keep = basis.level_counts[:, params.isolated_level - 1] == n_fixed
    return H[np.ix_(keep, keep)]


def effective_coupling(config: ModelConfig, branch: Branch, n_active: int) -> float:
    """Coupling strength of the two-level block with n_active unfrozen atoms."""
    if not 0 <= n_active <= config.na:
        raise ValueError(f"active atom count {n_active} outside [0, {config.na}]")
    params = rotated_parameters(config, branch)
    return float(np.sqrt(n_active / config.na) * params.coupled_mu)


def build_effective_two_level(config: ModelConfig, branch: Branch, n_fixed: int) -> np.ndarray:
    """Two-level block Hamiltonian with ``n_fixed`` atoms in the isolated level,
    assembled in photon-block form by the package's own routine.

    The surviving coupled pair forms a reduced collective model whose
    coupling carries the sqrt(n_active / N_a) dilution; the frozen level
    contributes only the constant shift omega_t * n_fixed.  The residual
    one-body term is deliberately absent: this is the decoupled block, exact
    when the one-body coupling vanishes.  Rows and columns follow the basis
    enumeration: both parities with that occupation, read as one sector.
    """
    if not 0 <= n_fixed <= config.na:
        raise ValueError(f"fixed occupation {n_fixed} outside [0, {config.na}]")
    params = rotated_parameters(config, branch)
    basis = enumerate_basis(config.na, config.nmax)
    H = _assemble(config, basis, params.omega_ts, {params.coupled_pair: params.coupled_mu})
    keep = np.flatnonzero(basis.level_counts[:, params.isolated_level - 1] == n_fixed)
    return H.matrix[np.ix_(keep, keep)]


def upper_band(block: np.ndarray) -> np.ndarray:
    """A symmetric block in LAPACK's upper band storage, as Fortran-order
    (w + 1, n): row w - d holds the d-th superdiagonal, w the farthest one
    with a nonzero entry, zeros of either sign stored as +0.0."""
    n = block.shape[0]
    w = max((d for d in range(n) if np.diagonal(block, d).any()), default=0)
    out = np.zeros((w + 1, n), order="F")
    for d in range(w + 1):
        out[w - d, d:] = np.diagonal(block, d) + 0.0  # -0.0 + 0.0 is +0.0
    return out


def expectation(state: QuantumState, op) -> float:
    """Real expectation value of a hermitian operator, through its dense view."""
    if op.dim != state.basis.dim:
        raise ValueError("operator and state dimensions differ")
    val = np.vdot(state.amplitudes, op.matrix @ state.amplitudes)
    return float(val.real)


def full_vectors(spectrum: Spectrum) -> np.ndarray:
    """The sector eigenvectors as dim x dim columns, in the order of
    ``spectrum.energies``."""
    lifted = []
    for idx, _, vectors in spectrum.sectors:
        full = np.zeros((spectrum.basis.dim, vectors.shape[1]))
        full[idx] = vectors
        lifted.append(full.T)
    return spectrum.merged(lifted).T


def eigh_evolve(H, state: QuantumState, t: float) -> np.ndarray:
    """exp(-iHt) applied to a state through one dense eigh of the whole H."""
    energies, vectors = scipy.linalg.eigh(H.matrix)
    return vectors @ (np.exp(-1j * energies * t) * (vectors.T @ state.amplitudes))


def rint_band_labels(spectrum: Spectrum, level: int) -> np.ndarray:
    """Every eigenvector's occupation of ``level``, rounded to an integer, in
    the order of ``spectrum.energies``."""
    counts = spectrum.basis.level_counts[:, level - 1]
    labels = [np.rint((v**2).T @ counts[idx]) for idx, _, v in spectrum.sectors]
    return spectrum.merged(labels).astype(int)


def all_sector_pairs(H, basis) -> tuple:
    """Basis indices, lowest two levels (1, K, 2) and lowest eigenvectors
    (one row each) of every sector in sector order, as ``solver._pairs_of``
    gives them but none skipped, each read from the dense view: scipy's
    ``eigh`` on a Fortran-order copy up to the solver's DENSE_SECTOR_MAX
    states, its band Lanczos on the :func:`upper_band` read-back above.  The
    sectors come from ``np.unique`` of the labels."""
    labels = H.sector_labels
    _, first = np.unique(labels, return_index=True)
    indices = [np.flatnonzero(labels == labels[i]) for i in np.sort(first)]
    levels, vectors = np.full((1, len(indices), 2), np.inf), []
    for k, idx in enumerate(indices):
        if idx.size <= solver.DENSE_SECTOR_MAX:
            block = np.asfortranarray(H.matrix[np.ix_(idx, idx)])
            energies, v = scipy.linalg.eigh(block, subset_by_index=(0, min(1, idx.size - 1)), overwrite_a=True)
        else:
            energies, v = solver._shift_invert_pair(upper_band(H.matrix[np.ix_(idx, idx)]))
        levels[0, k, : energies.size] = energies
        vectors.append(np.ascontiguousarray(v[:, 0])[None])
    return indices, levels, vectors


def affine_ray_ground_state(H1: BlockHamiltonian, basis: BasisSet, s: float) -> QuantumState:
    """The cold-solved ground state at radius s of the coupling ray whose
    point at unit radius is H1: H1's photon-diagonal blocks and s times its
    hop blocks, each sector's band the :func:`upper_band` read-back of the
    dense view scaled off the photon diagonal."""
    photons = basis.photon_numbers
    dense = np.where(photons[:, None] == photons, H1.matrix, s * H1.matrix)
    labels = H1.sector_labels
    _, first = np.unique(labels, return_index=True)
    indices = [np.flatnonzero(labels == labels[i]) for i in np.sort(first)]
    pairs = solver._sector_pairs(indices, lambda k: upper_band(dense[np.ix_(indices[k], indices[k])]).T[None])
    states, _, degenerate = solver._grounds(indices, *pairs, basis.dim)
    return QuantumState(states[0].astype(complex), basis, degenerate=bool(degenerate[0]))


def fidelity_susceptibility(H: np.ndarray, dH: np.ndarray) -> tuple[float, float]:
    """chi_F = sum_{n>0} |<n|dH|0>|^2 / (E_n - E_0)^2 over one dense eigh of
    H, with the gap E_1 - E_0; dH is H's derivative along the path."""
    energies, vectors = np.linalg.eigh(H)
    amps = vectors[:, 1:].T @ (dH @ vectors[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):  # a degenerate ground level
        chi = np.sum(amps**2 / (energies[1:] - energies[0]) ** 2)
    return float(chi), float(energies[1] - energies[0])
