"""Eigensolver, ground states, observables, cutoff convergence, evolution.

Every eigenproblem is solved per sector of a :class:`BlockHamiltonian`'s
``sector_labels`` (the excitation-number parity, and the isolated level's
occupation in a frame without a one-body term), each gathered as a band
from H's factors by a :class:`SectorLayout`; no dim x dim array is built.
Sectors come in the order of their lowest basis indices, the vacuum's
first; a tie goes to the earlier one.  Full spectra solve each sector dense.
Ground states need each sector's lowest two eigenpairs: by LAPACK's dsyevr
on a dense block written from the band up to DENSE_SECTOR_MAX states, by
shift-invert Lanczos on the band's Cholesky factor above.  A neighbouring
point's sector is solved first, by inverse iteration from its state where
Cholesky factorisations prove the level found the lowest and single; a
sector that one proves (Sylvester's law of inertia) more than
2 DEGENERACY_GAP above a solved level is skipped, as it could neither win a
tie nor flag a degeneracy.  Along a coupling ray H is affine in the radius,
and :func:`ray_ground_states` gathers each sector's two band parts once.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import BasisSet, DimensionLimitError, enumerate_basis
from .model import ModelConfig, build_hamiltonian
from .operators import BlockHamiltonian, SectorLayout

DEGENERACY_GAP = 1e-10
# Larger sectors go to band Lanczos, faster from 200-250 states (na 2-8, one
# BLAS thread); a lower cap would move degenerate rows of populations output.
DENSE_SECTOR_MAX = 400
CONTINUE_STEPS = 40  # shift trials, then inverse iterations, before the cold solve
DEFAULT_ENERGY_TOL = 1e-8
DEFAULT_TAIL_TOL = 1e-10
CUTOFF_START = 8
CUTOFF_HARD_CAP = 512


class NonConvergenceError(RuntimeError):
    """Photon-cutoff convergence failed within the hard cap."""


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition, one entry of ``sectors`` per sector of the
    Hamiltonian's labels.

    Each entry is (basis indices, ascending energies, orthonormal eigenvector
    columns over those indices), in the solver's sector order, the vacuum's
    first; every eigenvector is zero outside its sector.  Sign convention:
    the largest-magnitude component of every eigenvector is positive (ties
    broken by the lowest index).
    """

    sectors: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    basis: BasisSet

    def merged(self, per_sector) -> np.ndarray:
        """One array per sector, in its eigenvector order, as one array in
        the order of ``energies``."""
        order = np.argsort(np.concatenate([e for _, e, _ in self.sectors]), kind="stable")
        return np.concatenate(per_sector)[order]

    @property
    def energies(self) -> np.ndarray:
        """Every level in ascending order; tied levels keep the sector order,
        the vacuum's first."""
        return self.merged([e for _, e, _ in self.sectors])


@dataclass(frozen=True)
class QuantumState:
    """Normalized state vector over a basis.

    ``degenerate`` marks ground states extracted within DEGENERACY_GAP of the
    next level, where the returned representative is convention, not physics.
    The solver's convention: a state of one sector, the earliest in sector
    order (lowest first basis index; the vacuum |0; na,0,0>'s sector before
    all) among those whose ground energies tie.
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
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1):.3e}")
        self.amplitudes.setflags(write=False)


def _fix_sign(columns: np.ndarray) -> None:
    """Flip every column in place so that its largest-magnitude component is
    positive (ties broken by the lowest index)."""
    peak = np.argmax(np.abs(columns), axis=0)
    columns *= np.sign(np.take_along_axis(columns, peak[None], axis=0))


def _layout(H: BlockHamiltonian, basis: BasisSet, layout: SectorLayout | None = None):
    """``layout`` if it fits H, else one for H's labels; H must match the basis."""
    if H.dim != basis.dim:
        raise ValueError(f"operator dim {H.dim} does not match basis dim {basis.dim}")
    return layout if layout and layout.fits(H) else SectorLayout(H.sector_labels, basis.atomic_dim)


def diagonalize(H: BlockHamiltonian, basis: BasisSet) -> Spectrum:
    """Full spectrum, every sector solved dense by LAPACK."""
    layout = _layout(H, basis)
    sectors = []
    for k, idx in enumerate(layout.indices):
        energies, vectors = scipy.linalg.eigh(_dense(layout.upper_band(H, k)), overwrite_a=True)
        _fix_sign(vectors)
        for a in (energies, vectors):
            a.setflags(write=False)
        sectors.append((idx, energies, vectors))
    return Spectrum(tuple(sectors), basis)


def _dense(band: np.ndarray) -> np.ndarray:
    """A sector in upper band storage as a fresh Fortran-order symmetric block."""
    w, n = band.shape[0] - 1, band.shape[1]
    out = np.zeros((n, n), order="F")
    flat = out.reshape(-1, order="F")  # a view: entry (i, j) at j n + i
    for d in range(w + 1):  # entries (i + d, i) and (i, i + d) from row w - d
        flat[d :: n + 1][: n - d] = flat[d * n :: n + 1][: n - d] = band[w - d, d:]
    return out


# dsyevr's workspace query, (work, iwork, info) at each order
_dsyevr_work = functools.lru_cache(maxsize=None)(scipy.linalg.lapack.dsyevr_lwork)


def _lowest_two(block: np.ndarray):
    """Lowest two eigenpairs (one for a single state) of a Fortran-order block,
    overwritten, by the dsyevr call of ``eigh(subset_by_index=...)``: bitwise its result."""
    if not np.isfinite(block).all():
        raise ValueError("array must not contain infs or NaNs")
    n = block.shape[0]
    work, iwork, _ = _dsyevr_work(n, lower=1)  # a failed query fails the solve
    w, v, found, _, info = scipy.linalg.lapack.dsyevr(
        block, range="I", lower=1, il=1, iu=min(2, n), lwork=int(work), liwork=iwork, overwrite_a=1
    )
    if info != 0:
        raise scipy.linalg.LinAlgError(f"dsyevr failed: info = {info}")
    return w[:found], v[:, :found]


def _factor(band: np.ndarray, shift: float):
    """Band Cholesky factor of a sector (upper band storage, overwritten) minus
    ``shift``, or None; a factor proves every level above the shift (Sylvester)."""
    band[-1] -= shift
    factor, info = scipy.linalg.lapack.dpbtrf(band, overwrite_ab=1)
    return factor if info == 0 else None


def _shift_invert_pair(band: np.ndarray):
    """Lowest two eigenpairs of a sector, given in upper band storage (which
    this overwrites), by Lanczos on the band Cholesky factor of the sector
    shifted below its Gershgorin bound, and so positive definite."""
    import scipy.sparse.linalg

    w, n = band.shape[0] - 1, band.shape[1]
    radius, mag = np.zeros(n), np.abs(band)  # each row's off-diagonal absolute sum
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(1, w + 1):  # row w - d holds A[i, i + d] at column i + d
            radius[:-d] += mag[w - d, d:]
            radius[d:] += mag[w - d, d:]
        sigma = float(np.min(band[w] - radius)) - 1.0
    if not np.isfinite(sigma):  # a NaN or inf entry, or an overflowing row
        raise ValueError("array must not contain infs or NaNs")
    factor = _factor(band, sigma)
    if factor is None:
        raise scipy.linalg.LinAlgError("dpbtrf failed below the Gershgorin bound")
    solve = functools.partial(scipy.linalg.lapack.dpbtrs, factor)  # (x, info)
    inverse = scipy.sparse.linalg.LinearOperator((n, n), lambda x: solve(x)[0], dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)  # deterministic start
    # in shift-invert mode eigsh reads only the shape and dtype of its matrix
    energies, vectors = scipy.sparse.linalg.eigsh(inverse, 2, sigma=sigma, tol=0, v0=v0, OPinv=inverse)
    order = np.argsort(energies)
    return energies[order], vectors[:, order]


def _lies_above(band: np.ndarray, lowest: float) -> bool:
    """Whether every level of a sector, in upper band storage (overwritten),
    provably lies more than 2 DEGENERACY_GAP above ``lowest``: the block
    minus sigma has a band Cholesky factor.  Sigma's roundoff allowance is
    twice the factor's backward error at half-bandwidth w, (2w + 1)(w + 1)
    eps times the largest shifted diagonal entry, which ``scale`` bounds;
    the other half covers the eigensolvers' own error."""
    w = band.shape[0] - 1
    # each band diagonal's largest entry, counted on both sides of the main one
    peaks = np.abs(band).max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite scale fails below
        scale = 2.0 * peaks[:-1].sum() + peaks[-1] + abs(lowest)
    margin = 2.0 * DEGENERACY_GAP + 4.0 * (w + 1) ** 2 * np.finfo(float).eps * scale
    band[w] -= lowest  # then the margin apart: lowest + margin may round back to lowest
    return _factor(band, margin) is not None and bool(np.isfinite(scale))


def _below(band: np.ndarray, shifts):
    """The first of ``shifts`` the band factors below, with the factor, else (nan, None)."""
    found = ((t, _factor(band.copy(order="F"), t)) for t in shifts)
    return next((p for p in found if p[1] is not None), (np.nan, None))


def _continued(band: np.ndarray, x: np.ndarray):
    """Lowest eigenpair of a sector, in upper band storage, by inverse
    iteration from a neighbour's unit vector x, or None.  The shift steps
    down from x's Rayleigh quotient until the band factors below it.  Once x
    stops moving, its residual r against its Rayleigh quotient mu must be at
    roundoff, and the band plus a large entry at x's peak must lie above
    mu + r and mu + (mu - shift): by rank-one interlacing so does the second
    level, so mu is the lowest level and single, and x lies within its last
    move of the eigenvector (a solve leaves x's error times the first level's
    distance from the shift over the gap).  Where only that second bound
    fails, the iteration goes on under a shift within 2 DEGENERACY_GAP of mu."""
    w = band.shape[0] - 1
    big, steps = np.abs(band).max(), 4.0 ** np.arange(CONTINUE_STEPS)
    ax = scipy.linalg.blas.dsbmv(w, 1.0, band, x)
    rho = x @ ax
    step = np.linalg.norm(ax - rho * x) / 64.0 + DEGENERACY_GAP  # 1/64 of x's residual first
    shift, factor = _below(band, rho - step * steps)
    for _ in range(CONTINUE_STEPS):
        if factor is None:
            return None
        y = scipy.linalg.lapack.dpbtrs(factor, x)[0]
        y /= np.sqrt(y @ y)  # x . y > 0: the shifted inverse is positive definite
        x, moved = y, y - x
        if moved @ moved >= 1e-28:  # moved by 1e-14 or more
            continue
        ax = scipy.linalg.blas.dsbmv(w, 1.0, band, x)
        mu = x @ ax
        r = np.linalg.norm(ax - mu * x)
        tol = (w + 1) ** 2 * np.finfo(float).eps * ((2 * w + 1) * big + abs(mu))
        if not r <= 16.0 * tol:
            return None
        bound = mu + r + max(mu - shift - 2.0 * DEGENERACY_GAP, 0.0)
        spiked = band.copy(order="F")
        spiked[w, np.argmax(np.abs(x))] += 4.0 * (w + 1) * big
        if _lies_above(spiked, bound):
            return np.array([mu, bound + 2.0 * DEGENERACY_GAP]), x[:, None]
        if mu - shift <= 2.0 * DEGENERACY_GAP:
            return None
        close = (r + tol) * steps  # r plus the factor's backward error, stepped up
        shift, factor = _below(band, mu - close[close <= 2.0 * DEGENERACY_GAP])
    return None


def _sector_pairs(indices, band_of, near=None):
    """(basis indices, lowest energies, eigenvectors) of every sector in
    ``indices``, in sector order, but those :func:`_lies_above` a level
    solved before them; ``band_of(k)`` gives sector k's band, a fresh array.

    The sector holding most of the state ``near`` comes first and is
    :func:`_continued` from it, so its level bounds every skip proof; as a
    skipped sector is proven above a solved level, no result depends on the
    visiting order.  Sectors with non-finite levels (overflow) are refused.
    """
    x = [None if near is None else near.amplitudes.real[idx] for idx in indices]
    warm = next((k for k, v in enumerate(x) if v is not None and v @ v > 0.5), None)
    out = {}
    for k in sorted(range(len(indices)), key=lambda k: k != warm):
        idx, band = indices[k], band_of(k)
        if out and _lies_above(band.copy(order="F"), min(e[0] for _, e, _ in out.values())):
            continue
        pair = _continued(band, x[k] / np.linalg.norm(x[k])) if k == warm else None
        if pair is None:
            pair = _shift_invert_pair(band) if idx.size > DENSE_SECTOR_MAX else _lowest_two(_dense(band))
        if not np.isfinite(pair[0]).all():
            raise ValueError(f"sector {k} has non-finite levels: its entries overflow")
        out[k] = (idx, *pair)
    return [out[k] for k in sorted(out)]


def _pairs_of(H: BlockHamiltonian, basis: BasisSet, layout: SectorLayout | None = None, near=None):
    """:func:`_sector_pairs` of H, read through ``layout`` if it fits H."""
    layout = _layout(H, basis, layout)
    return _sector_pairs(layout.indices, functools.partial(layout.upper_band, H), near)


def _ground(pairs, basis: BasisSet) -> QuantumState:
    """The ground state of a Hamiltonian's sector pairs (see :func:`ground_state`)."""
    lowest = min(energies[0] for _, energies, _ in pairs)
    # Sector order decides a tie within DEGENERACY_GAP; a difference, as
    # lowest + DEGENERACY_GAP rounds back to lowest once |lowest| >= 2**20.
    idx, _, vectors = next(p for p in pairs if p[1][0] - lowest < DEGENERACY_GAP)
    vec = np.zeros(basis.dim)
    vec[idx] = vectors[:, 0]
    _fix_sign(vec)
    vec = vec / np.linalg.norm(vec)
    levels = np.sort(np.concatenate([energies for _, energies, _ in pairs]))
    degenerate = bool(levels.size > 1 and levels[1] - levels[0] < DEGENERACY_GAP)
    return QuantumState(vec.astype(complex), basis, degenerate=degenerate)


def ground_state(H: BlockHamiltonian, basis: BasisSet, layout: SectorLayout | None = None, *, near=None):
    """Lowest eigenvector under the sign convention, from one sector.

    The lowest level over the sectors wins; when several sectors' ground
    energies lie within DEGENERACY_GAP of it, the earliest in sector order
    does, the vacuum's before all.  Near-degeneracy (gap below
    DEGENERACY_GAP between the two lowest levels over all sectors) is
    flagged on the returned state rather than raised.  Many H of one
    labelling may share a ``layout``; one that does not fit H is not used.
    A neighbouring point's state as ``near`` is continued where that is
    proven, which agrees with the cold solve to roundoff, not bitwise.
    """
    return _ground(_pairs_of(H, basis, layout, near), basis)


def ray_ground_states(H: BlockHamiltonian, basis: BasisSet, radii):
    """Ground states of H's photon-diagonal blocks plus s times its hop
    blocks for each s in ``radii``, yielded in turn: a coupling ray with H
    at unit radius.  Each sector's two band parts are gathered once, and
    each state is continued from the one before, as by :func:`ground_state`
    with ``near``."""
    layout = _layout(H, basis)
    parts = [layout.upper_band(H, k, parts=True) for k in range(len(layout.indices))]
    state = None
    for s in radii:
        state = _ground(_sector_pairs(layout.indices, lambda k: s * parts[k][1] + parts[k][0], state), basis)
        yield state


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


def lowest_energy(H: BlockHamiltonian, basis: BasisSet) -> float:
    """Ground energy only: the lowest level over the sectors."""
    return float(min(energies[0] for _, energies, _ in _pairs_of(H, basis)))


def converged_ground_state(
    config: ModelConfig,
    etol: float = DEFAULT_ENERGY_TOL,
    ptol: float = DEFAULT_TAIL_TOL,
    *,
    start: int = CUTOFF_START,
    hard_cap: int = CUTOFF_HARD_CAP,
) -> tuple[int, QuantumState]:
    """Converged photon cutoff together with the unrotated ground state there.

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
            energy_at[cutoff] = lowest_energy(build_hamiltonian(m, b), b)
        return energy_at[cutoff]

    cutoff = start
    try:
        while cutoff <= hard_cap:
            if abs(e0(cutoff) - e0(2 * cutoff)) < etol:
                b = enumerate_basis(config.na, cutoff)
                m = dataclasses.replace(config, nmax=cutoff)
                state = ground_state(build_hamiltonian(m, b), b)
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


def converge_cutoff(config: ModelConfig) -> int:
    """``converged_ground_state(config)[0]``; ``perfbench/make_references.py`` calls it."""
    return converged_ground_state(config)[0]


def evolve(spectrum: Spectrum, state: QuantumState, times) -> list[QuantumState]:
    """Unitary evolution through the eigendecomposition, one state per time.

    The state is projected once on each sector it touches; every time then
    costs one phase and one sum over the eigenvectors.
    """
    a, b = spectrum.basis, state.basis
    if a != b:
        raise ValueError(
            f"basis mismatch: (na={a.na}, nmax={a.nmax}) vs (na={b.na}, nmax={b.nmax})"
        )
    times = np.asarray(times, dtype=float)
    # real and imaginary parts apart: no complex copy of the vectors
    parts = np.zeros((times.size, b.dim, 2))
    for idx, energies, vectors in spectrum.sectors:
        amps = state.amplitudes[idx]
        if amps.any():
            coeffs = vectors.T @ amps.real + 1j * (vectors.T @ amps.imag)
            # an overflowing E t leaves a NaN norm, which the check below reports
            with np.errstate(over="ignore", invalid="ignore"):
                phased = np.outer(times, -1j * energies)
                np.exp(phased, out=phased)
                phased *= coeffs
            parts[:, idx, 0] = phased.real @ vectors.T
            parts[:, idx, 1] = phased.imag @ vectors.T
    evolved = parts.view(complex)[..., 0]
    norms = np.linalg.norm(evolved, axis=1)
    worst = np.max(np.abs(norms - 1.0), initial=0.0)
    if not worst <= 1e-10:
        cause = (
            "the spectrum's eigenvectors are not orthonormal"
            if np.isfinite(worst)
            else "the norm is not finite: a phase E t overflowed"
        )
        raise ValueError(f"evolution lost unitarity: |norm - 1| = {worst:.3e}; {cause}")
    evolved /= norms[:, None]
    return [QuantumState(psi, b) for psi in evolved]
