"""Eigensolver, ground states, observables, cutoff convergence, evolution.

Every eigenproblem is solved per sector of a :class:`BlockHamiltonian`'s
``sector_labels`` (the excitation-number parity, and the isolated level's
occupation in a frame without a one-body term), which H splits once, each
gathered as a band from H's factors; no dim x dim array is built.
Sectors come in the order of their lowest basis indices, the vacuum's
first; a tie goes to the earlier one.  Full spectra solve each sector dense.
Ground states need each sector's lowest two eigenpairs: by scipy's eigh
on a dense block written from the band up to DENSE_SECTOR_MAX states, by
shift-invert Lanczos on the band's Cholesky factor above.  A sector that
a band Cholesky factorisation proves (Sylvester's law of inertia) more than
2 DEGENERACY_GAP above a solved level is skipped, as it could neither win a
tie nor flag a degeneracy.  Along a coupling ray H is affine in the radius:
:func:`pencil_ground_states` gathers each sector's two band parts once per
ray and solves a point's sector first by inverse iteration from the ray's
states before, where factorisations prove the level found the lowest and
single.  Rays of one band shape walk in lockstep, their bands stacked
(rays, n, w + 1) so that one LAPACK call serves all of them: rows of a
stack are C-ordered, and every reduction runs along them, so a ray's
result does not depend on its neighbours, bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import BasisSet, DimensionLimitError, enumerate_basis
from .model import ModelConfig, build_hamiltonian
from .operators import BlockHamiltonian

DEGENERACY_GAP = 1e-10
# Larger sectors go to band Lanczos, faster from 200-250 states (na 2-8, one
# BLAS thread); a lower cap would move degenerate rows of populations output.
DENSE_SECTOR_MAX = 400
CONTINUE_STEPS = 40  # shift trials, then inverse iterations, before the cold solve
PENCIL_ENTRIES = 2**14  # band entries a part of rays walked in lockstep may hold
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


def _sectors(H: BlockHamiltonian, basis: BasisSet):
    """H's sectors; H must match the basis."""
    if H.dim != basis.dim:
        raise ValueError(f"operator dim {H.dim} does not match basis dim {basis.dim}")
    return H.sectors


def diagonalize(H: BlockHamiltonian, basis: BasisSet) -> Spectrum:
    """Full spectrum, every sector solved dense by LAPACK."""
    sectors = []
    for k, idx in enumerate(_sectors(H, basis)):
        energies, vectors = scipy.linalg.eigh(_dense(H.upper_band(k)), overwrite_a=True)
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


def _lowest_two(block: np.ndarray):
    """Lowest two eigenpairs (one for a single state) of a Fortran-order block,
    overwritten, by scipy's eigh (LAPACK's dsyevr), which refuses non-finite entries."""
    return scipy.linalg.eigh(block, subset_by_index=[0, min(1, block.shape[0] - 1)], overwrite_a=True)


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


def _lies_above(stack: np.ndarray, lowest: np.ndarray) -> np.ndarray:
    """Whether every level of each band of a stack (rays, n, w + 1;
    overwritten) provably lies more than 2 DEGENERACY_GAP above its entry of
    ``lowest``: the band minus sigma has a band Cholesky factor.  Sigma's
    roundoff allowance is twice the factor's backward error at half-bandwidth
    w, (2w + 1)(w + 1) eps times the largest shifted diagonal entry, which
    ``scale`` bounds; the other half covers the eigensolvers' own error."""
    w = stack.shape[2] - 1
    # each band diagonal's largest entry, counted on both sides of the main one
    peaks = np.abs(stack).max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite scale fails below
        scale = 2.0 * peaks[:, :-1].sum(axis=1) + peaks[:, -1] + np.abs(lowest)
        margin = 2.0 * DEGENERACY_GAP + 4.0 * (w + 1) ** 2 * np.finfo(float).eps * scale
        stack[:, :, w] -= lowest[:, None]  # then the margin apart: lowest + margin may round back to lowest
        factored = [_factor(band.T, t) is not None for band, t in zip(stack, margin)]
    return np.array(factored, dtype=bool) & np.isfinite(scale)


def _below(band: np.ndarray, shifts):
    """The first of ``shifts`` the band factors below, with the factor, else (nan, None)."""
    found = ((t, _factor(band.copy(order="F"), t)) for t in shifts)
    return next((p for p in found if p[1] is not None), (np.nan, None))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's dot product, summed along the rows of a fresh C-order
    product: a row's sum has the same bits whatever rows lie beside it."""
    return (a * b).sum(axis=1)


def _rayleigh(band: np.ndarray, x: np.ndarray):
    """The Rayleigh quotient of each unit row of x against its block of a
    block-diagonal band, and the norm of the row's residual."""
    ax = scipy.linalg.blas.dsbmv(band.shape[0] - 1, 1.0, band, x.reshape(-1)).reshape(x.shape)
    mu = _rowdot(x, ax)
    res = ax - mu[:, None] * x
    return mu, np.sqrt(_rowdot(res, res))


def _continued(stack: np.ndarray, x: np.ndarray, active: np.ndarray):
    """Lowest levels (+inf where none is proven) and vectors of the
    ``active`` bands of a stack (rays, n, w + 1), by inverse iteration from
    the unit rows of x.  The shift steps down from x's Rayleigh quotient
    until the band factors below it.  Once x stops moving, its residual r
    against its Rayleigh quotient mu must be at roundoff, and the band plus
    a large entry at x's peak must lie above mu + r and mu + (mu - shift):
    by rank-one interlacing so does the second level, so mu is the lowest
    and single, and x lies within its last move of the eigenvector (a solve
    leaves x's error times the first level's distance from the shift over
    the gap).  Where only the second bound fails, the iteration goes on
    under a shift within 2 DEGENERACY_GAP of mu, up to CONTINUE_STEPS solves
    in all.  Each step is one dpbtrs over the stack's block-diagonal factor
    (an identity for idle bands); a band not iterating keeps its row of x."""
    n, w = stack.shape[1], stack.shape[2] - 1
    big, steps = np.abs(stack).reshape(len(stack), -1).max(axis=1), 4.0 ** np.arange(CONTINUE_STEPS)
    band, factors = stack.reshape(-1, w + 1).T, np.zeros_like(stack)  # the blocks as one band
    factors[:, :, w] = 1.0
    x = np.where(active[:, None], x, 1.0)  # an idle row: any vector but zero
    rho, res = _rayleigh(band, x)  # the shift steps down from 1/64 of x's residual below rho
    trials = {i: rho[i] - (res[i] / 64.0 + DEGENERACY_GAP) * steps for i in np.flatnonzero(active)}
    levels, shift = np.full((len(stack), 2), np.inf), np.full(len(stack), np.nan)
    solves = np.zeros(len(stack), dtype=int)
    moving, waiting = np.zeros(len(stack), dtype=bool), np.zeros(len(stack), dtype=bool)
    while True:
        for i, shifts in trials.items():
            shift[i], factor = _below(stack[i].T, shifts)
            if factor is not None:
                factors[i], moving[i] = factor.T, True
        trials = {}
        if moving.any():
            y = scipy.linalg.lapack.dpbtrs(factors.reshape(-1, w + 1).T, x.reshape(-1))[0].reshape(-1, n)
            y /= np.sqrt(_rowdot(y, y))[:, None]  # x . y > 0: the shifted inverse is positive definite
            moved = y - x
            np.copyto(x, y, where=moving[:, None])
            solves += moving
            settled = moving & (_rowdot(moved, moved) < 1e-28)  # moved by less than 1e-14
            waiting |= settled  # until no band moves
            moving &= ~settled & (solves < CONTINUE_STEPS)
            continue
        if not waiting.any():
            return levels, x
        settled, waiting[:] = np.flatnonzero(waiting), False
        mu, r = _rayleigh(band, x)
        tol = (w + 1) ** 2 * np.finfo(float).eps * ((2 * w + 1) * big + np.abs(mu))
        rows = settled[r[settled] <= 16.0 * tol[settled]]  # the rest have a residual above roundoff
        if not rows.size:
            continue
        bound = mu + r + np.maximum(mu - shift - 2.0 * DEGENERACY_GAP, 0.0)
        spiked = stack[rows]
        spiked[np.arange(rows.size), np.argmax(np.abs(x[rows]), axis=1), w] += 4.0 * (w + 1) * big[rows]
        proven = rows[_lies_above(spiked, bound[rows])]
        levels[proven, 0], levels[proven, 1] = mu[proven], bound[proven] + 2.0 * DEGENERACY_GAP
        rows = rows[(levels[rows, 0] == np.inf) & (mu[rows] - shift[rows] > 2.0 * DEGENERACY_GAP)]
        for i in rows[solves[rows] < CONTINUE_STEPS]:
            close = (r[i] + tol[i]) * steps  # r plus the factor's backward error, stepped up
            trials[i] = mu[i] - close[close <= 2.0 * DEGENERACY_GAP]


def _visits(warm: np.ndarray, count: int) -> np.ndarray:
    """Each ray's sectors in the order it visits them: its warm one (-1 for
    none) first, then the rest in sector order."""
    return np.argsort(np.arange(count) != warm[:, None], axis=1, kind="stable")


def _sector_pairs(indices, stack_of, warm=None, near=None):
    """Lowest levels (R, K, 2) and vectors of R rays' K sectors, ``indices``
    their basis indices and ``stack_of(k)`` the stack (R, n, w + 1) of
    sector k's bands, a fresh array: ``levels[r, k]`` the lowest two of ray
    r's sector k (+inf where it has one state, or was skipped), and
    ``vectors[k][r]`` the lowest eigenvector.  A ray visits its sectors in
    sector order, but ``warm[r]`` (-1 for none) first, :func:`_continued`
    there from twice its last state less the one before, ``near[0][k][r]``
    and ``near[1][k][r]`` (or the last state alone, where that keeps half
    its weight or less), so its level bounds every skip proof: a sector
    that :func:`_lies_above` a level solved before it is skipped, and no
    result depends on the visiting order.  Non-finite levels are refused.
    """
    warm = np.full(1, -1) if warm is None else warm
    levels = np.full((warm.size, len(indices), 2), np.inf)
    vectors = [np.zeros((warm.size, idx.size)) for idx in indices]
    for column in _visits(warm, len(indices)).T:
        for k in dict.fromkeys(column.tolist()):
            stack, visit = stack_of(k), column == k
            lowest = levels[:, :, 0].min(axis=1)
            known = np.flatnonzero(visit & (lowest < np.inf))
            if known.size:
                visit[known[_lies_above(stack[known], lowest[known])]] = False
            hot = visit & (warm == k)
            if hot.any():
                last, x = near[0][k], 2.0 * near[0][k] - near[1][k]
                weight = _rowdot(x, x)[:, None]
                with np.errstate(invalid="ignore", divide="ignore"):  # a row not in sector k is zero
                    found, x = _continued(stack, np.where(weight > 0.5, x / np.sqrt(weight), last), hot)
                ok = found[:, 0] < np.inf
                levels[ok, k], vectors[k][ok] = found[ok], x[ok]
                visit &= ~ok
            for r in np.flatnonzero(visit):  # no view outlives the visit: it would keep the stack
                large = indices[k].size > DENSE_SECTOR_MAX
                energies, v = _shift_invert_pair(stack[r].T) if large else _lowest_two(_dense(stack[r].T))
                if not np.isfinite(energies).all():
                    raise ValueError(f"sector {k} has non-finite levels: its entries overflow")
                levels[r, k, : energies.size], vectors[k][r] = energies, v[:, 0]
    return levels, vectors


def _grounds(indices, levels: np.ndarray, vectors, dim: int):
    """Ground states (R, dim) of :func:`_sector_pairs`' levels and vectors,
    the sector each lies in and their degeneracy flags, by the rules of
    :func:`ground_state`, row by row; ``vectors`` become the states' parts."""
    lowest = levels[:, :, 0].min(axis=1)
    # Sector order decides a tie within DEGENERACY_GAP; a difference, as
    # lowest + DEGENERACY_GAP rounds back to lowest once |lowest| >= 2**20.
    sector = np.argmax(levels[:, :, 0] - lowest[:, None] < DEGENERACY_GAP, axis=1)
    ordered = np.sort(levels.reshape(len(levels), -1), axis=1)
    degenerate = ordered[:, 1] - ordered[:, 0] < DEGENERACY_GAP
    states = np.empty((len(levels), dim))
    for k, idx in enumerate(indices):
        vectors[k][sector != k] = 0.0
        states[:, idx] = vectors[k]
    _fix_sign(states.T)
    states /= np.sqrt([row.dot(row) for row in states])[:, None]  # each norm as np.linalg.norm takes it
    vectors[:] = [states.take(idx, axis=1) for idx in indices]  # C-order rows
    worst = np.max(np.abs(np.sqrt(_rowdot(states, states)) - 1.0))
    if not worst <= 1e-12:  # NaN fails too
        raise ValueError(f"state is not normalized: |norm - 1| = {worst:.3e}")
    return states, sector, degenerate


def _pairs_of(H: BlockHamiltonian, basis: BasisSet):
    """H's sector indices and :func:`_sector_pairs`."""
    indices = _sectors(H, basis)
    return indices, *_sector_pairs(indices, lambda k: H.upper_band(k).T[None])


def ground_state(H: BlockHamiltonian, basis: BasisSet) -> QuantumState:
    """Lowest eigenvector under the sign convention, from one sector.

    The lowest level over the sectors wins; when several sectors' ground
    energies lie within DEGENERACY_GAP of it, the earliest in sector order
    does, the vacuum's before all.  Near-degeneracy (gap below
    DEGENERACY_GAP between the two lowest levels over all sectors) is
    flagged on the returned state rather than raised.
    """
    states, _, degenerate = _grounds(*_pairs_of(H, basis), basis.dim)
    return QuantumState(states[0].astype(complex), basis, degenerate=bool(degenerate[0]))


def _walk(indices, parts, radii, dim: int):
    """The ground states (R, dim) of R rays and their degeneracy flags at each
    radius s in turn, sector k's bands the stack ``parts[k][0]`` plus s
    times ``parts[k][1]``, each continued in the sector of its last one."""
    warm = np.full(len(parts[0][0]), -1)
    near = [[np.zeros((warm.size, idx.size)) for idx in indices]] * 2
    for s in radii:
        stacks = [s * hop + diagonal for diagonal, hop in parts]
        levels, vectors = _sector_pairs(indices, stacks.__getitem__, warm, near)
        states, warm, degenerate = _grounds(indices, levels, vectors, dim)
        near = [vectors, near[0]]
        yield states, degenerate


def _pencil(indices, members, radii, dim: int):
    """(rays, walk) of gathered rays ``members``, (ray, sector parts) pairs of
    one band shape, their parts stacked (rays, n, w + 1) per sector."""
    rays, parts = zip(*members)
    return list(rays), _walk(indices, [tuple(map(np.stack, zip(*sector))) for sector in zip(*parts)], radii, dim)


def pencil_ground_states(Hs, basis: BasisSet, radii):
    """Ground states along coupling rays, one per H in ``Hs`` (on ``basis``):
    at radius s, H's photon-diagonal blocks plus s times its hop blocks.
    Yields (rays, walk) pairs, ``rays`` indices into Hs and ``walk`` yielding
    their ground states (len(rays), dim), real rows under the conventions of
    :func:`ground_state`, and degeneracy flags at each radius in turn.  Each
    state is continued from the ray's states before where proven, which
    agrees with the cold solve to roundoff.  Rays of equal sector labels and
    band shapes walk in lockstep, each sector's two band parts gathered
    once, in pencils of up to PENCIL_ENTRIES band entries a part, each
    walked once full: a ray above that walks alone.  A ray's states do not
    depend on the rays beside it, bit for bit."""
    groups = {}
    for r, H in enumerate(Hs):
        parts = [(p.T, q.T) for p, q in (H.upper_band(k, parts=True) for k in range(len(_sectors(H, basis))))]
        key = (H.sector_labels.tobytes(), tuple(p.shape for p, _ in parts))
        groups.setdefault(key, (H.sectors, []))[1].append((r, parts))
        if (len(groups[key][1]) + 1) * sum(p.size for p, _ in parts) > PENCIL_ENTRIES:
            yield _pencil(*groups.pop(key), radii, basis.dim)
    for key in list(groups):  # popped, so that a walk holds only its stacks
        yield _pencil(*groups.pop(key), radii, basis.dim)


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
    levels = _pairs_of(H, basis)[1][0, :, 0]
    return float(levels[np.argmin(levels)])  # the first of equal levels, -0.0 or 0.0


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
