import contextlib
import dataclasses
import io
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke3 import cli, solver
from dicke3.basis import BasisState, enumerate_basis, index_of
from dicke3.model import (
    ModelConfig,
    build_hamiltonian,
    rotated_parameters,
    with_couplings,
)
from dicke3.operators import BlockHamiltonian, Configuration, excitation_values
from dicke3.rotations import Branch
from dicke3.solver import (
    NonConvergenceError,
    QuantumState,
    converge_cutoff,
    converged_ground_state,
    diagonalize,
    evolve,
    ground_state,
    lowest_energy,
    populations,
)

from conftest import _coupling, _frequency, _hypothesis, framed_models, random_model
from oracles import (
    all_sector_pairs,
    eigh_evolve,
    expectation,
    full_vectors,
    parity,
    rint_band_labels,
    upper_band,
)


def lam(na=1, nmax=8, mu13=0.6, mu23=0.8):
    return ModelConfig(
        Configuration.LAMBDA, 0.0, 0.0, 1.0, mu12=0.0, mu13=mu13, mu23=mu23, na=na, nmax=nmax
    )


class TestDiagonalize:
    def test_decoupled_spectrum(self):
        b = enumerate_basis(1, 0)
        m = ModelConfig(Configuration.XI, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, na=1, nmax=0)
        spec = diagonalize(build_hamiltonian(m, b), b)
        assert np.allclose(spec.energies, [0.0, 1.0, 2.0], atol=1e-14)

    def test_two_by_two_closed_form(self):
        # Two photon blocks of one atom, joined by one hop -g between atomic
        # state 0 of each; the other four states lie far above in their own
        # sector.
        g = 0.37
        coupling = np.zeros((3, 3))
        coupling[0, 0] = g
        diagonal = np.array([0.0, 5.0, 5.0, 1.0, 5.0, 5.0])
        H = BlockHamiltonian(diagonal, None, coupling, np.array([0, 1, 1, 0, 1, 1]))
        b = enumerate_basis(1, 1)
        spec = diagonalize(H, b)
        lo = (1 - np.sqrt(1 + 4 * g * g)) / 2
        hi = (1 + np.sqrt(1 + 4 * g * g)) / 2
        assert spec.energies[0] == pytest.approx(lo, abs=1e-14)
        assert spec.energies[1] == pytest.approx(hi, abs=1e-14)

    def test_residual_invariant(self):
        rng = np.random.default_rng(31)
        m = random_model(rng, Configuration.V, na=2, nmax=10)
        b = enumerate_basis(2, 10)
        H = build_hamiltonian(m, b)
        spec = diagonalize(H, b)
        scale = np.max(np.abs(H.matrix))
        vectors = full_vectors(spec)
        for k in range(b.dim):
            r = H.matrix @ vectors[:, k] - spec.energies[k] * vectors[:, k]
            assert np.linalg.norm(r) < 1e-9 * scale
        # orthonormal columns
        overlap = vectors.T @ vectors
        assert np.max(np.abs(overlap - np.eye(b.dim))) < 1e-12

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, Configuration.XI, na=1, nmax=6)
        b = enumerate_basis(1, 6)
        vectors = full_vectors(diagonalize(build_hamiltonian(m, b), b))
        for k in range(b.dim):
            v = vectors[:, k]
            assert v[np.argmax(np.abs(v))] > 0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, Configuration.LAMBDA, na=2, nmax=10)
        b = enumerate_basis(2, 10)
        e0 = diagonalize(build_hamiltonian(m, b), b).energies
        e1 = diagonalize(build_hamiltonian(m, b, Branch.FIRST), b).energies
        assert np.max(np.abs(e0 - e1)) < 1e-9

    def test_rejects_basis_mismatch(self):
        m = lam(na=1, nmax=4)
        H = build_hamiltonian(m, enumerate_basis(1, 4))
        for solve in (diagonalize, ground_state, lowest_energy):
            with pytest.raises(ValueError, match="does not match basis dim"):
                solve(H, enumerate_basis(1, 5))


class TestGroundState:
    def test_zero_coupling_ground(self):
        m = ModelConfig(Configuration.XI, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, na=2, nmax=4)
        b = enumerate_basis(2, 4)
        g = ground_state(build_hamiltonian(m, b), b)
        assert abs(g.amplitudes[index_of(b, BasisState(0, 2, 0, 0))]) == pytest.approx(1.0)
        assert not g.degenerate

    def test_collective_region_has_photons(self):
        m = ModelConfig(Configuration.XI, 0.0, 1.0, 2.0, 2.0, 0.0, 0.0, na=1, nmax=40)
        b = enumerate_basis(1, 40)
        g = ground_state(build_hamiltonian(m, b), b)
        assert populations(g)[3] > 0.5

    def test_degeneracy_flag(self):
        # two degenerate lowest levels at zero coupling
        m = ModelConfig(Configuration.LAMBDA, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, na=1, nmax=2)
        b = enumerate_basis(1, 2)
        g = ground_state(build_hamiltonian(m, b), b)
        assert g.degenerate

    def test_dominant_amplitude_positive(self):
        rng = np.random.default_rng(9)
        m = random_model(rng, Configuration.V, na=1, nmax=10)
        b = enumerate_basis(1, 10)
        g = ground_state(build_hamiltonian(m, b), b)
        i = np.argmax(np.abs(g.amplitudes))
        assert g.amplitudes[i].real > 0


class TestPopulations:
    def test_basis_state_populations(self):
        b = enumerate_basis(3, 2)
        amps = np.zeros(b.dim, dtype=complex)
        amps[index_of(b, BasisState(2, 1, 0, 2))] = 1.0
        p = populations(QuantumState(amps, b))
        assert p == (1.0, 0.0, 2.0, 2.0)

    def test_sum_rule(self):
        rng = np.random.default_rng(13)
        for cfg in Configuration:
            m = random_model(rng, cfg, na=3, nmax=10)
            b = enumerate_basis(3, 10)
            g = ground_state(build_hamiltonian(m, b), b)
            p = populations(g)
            assert abs(p[0] + p[1] + p[2] - 3.0) < 1e-10

    def test_isolated_level_empty_in_rotated_ground(self):
        m = lam(na=2, nmax=24)
        b = enumerate_basis(2, 24)
        g = ground_state(build_hamiltonian(m, b, Branch.FIRST), b)
        assert populations(g)[0] == 0.0


class TestParityPurity:
    def test_nondegenerate_eigenstates_have_pure_parity(self):
        rng = np.random.default_rng(41)
        for cfg in Configuration:
            m = random_model(rng, cfg, na=2, nmax=12)
            b = enumerate_basis(2, 12)
            spec = diagonalize(build_hamiltonian(m, b), b)
            vectors = full_vectors(spec)
            P = parity(b, cfg)
            gaps = np.diff(spec.energies)
            for k in range(b.dim):
                gap = min(
                    gaps[k - 1] if k > 0 else np.inf,
                    gaps[k] if k < b.dim - 1 else np.inf,
                )
                if gap < 1e-8:
                    continue
                state = QuantumState(vectors[:, k].astype(complex), b)
                assert abs(expectation(state, P)) > 1 - 1e-10


class TestConvergeCutoff:
    def test_zero_coupling_converges_immediately(self):
        m = ModelConfig(Configuration.XI, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, na=1, nmax=4)
        assert converged_ground_state(m)[0] == 8

    def test_monotone_along_coupling_line(self):
        m = lam(na=2)
        cuts = [converged_ground_state(with_couplings(m, 0.3 * s, 0.4 * s))[0] for s in (1, 3, 6)]
        assert cuts == sorted(cuts)
        assert cuts[-1] > cuts[0]

    def test_growth_with_coupling(self):
        m = lam(na=1)
        weak = converged_ground_state(with_couplings(m, 0.1, 0.1))[0]
        strong = converged_ground_state(with_couplings(m, 1.8, 1.8))[0]
        assert strong > weak

    def test_nonconvergence_error(self):
        m = lam(na=1)
        with pytest.raises(NonConvergenceError):
            converged_ground_state(with_couplings(m, 1.5, 1.5), etol=1e-18, hard_cap=32)[0]

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            converged_ground_state(lam(), etol=-1.0)[0]

    def test_converged_state_matches_cutoff(self):
        m = lam(na=1, mu13=0.9, mu23=0.9)
        nmax, state = converged_ground_state(m)
        assert state.basis.nmax == nmax
        # the cutoff-only name perfbench/make_references.py calls
        assert converge_cutoff(m) == nmax


def _framed_hamiltonian(model_frame):
    m, frame = model_frame
    b = enumerate_basis(m.na, m.nmax)
    return m, b, build_hamiltonian(m, b, frame)


def _expected_labels(m, frame, b):
    """Parity, plus twice the isolated level's occupation in a rotated frame
    without a one-body term."""
    labels = excitation_values(b, m.cfg) % 2
    params = None if frame is None else rotated_parameters(m, frame)
    if params is not None and params.lambda_t == 0.0:
        labels += 2 * b.level_counts[:, params.isolated_level - 1]
    return labels


def _parity_value(state, m):
    return expectation(state, parity(state.basis, m.cfg))


class TestParitySectors:
    @_hypothesis
    @given(framed_models())
    def test_no_entry_joins_sectors(self, model_frame):
        m, b, H = _framed_hamiltonian(model_frame)
        assert np.array_equal(H.sector_labels, _expected_labels(m, model_frame[1], b))
        assert not H.matrix[H.sector_labels[:, None] != H.sector_labels].any()

    # The small crossover sends every sector above 8 states to shift-invert
    # Lanczos, so both solver paths meet the same random models.
    @pytest.mark.parametrize("crossover", [solver.DENSE_SECTOR_MAX, 8])
    @_hypothesis
    @given(model_frame=framed_models())
    def test_energies_match_dense(self, crossover, model_frame):
        m, b, H = _framed_hamiltonian(model_frame)
        exact = np.linalg.eigvalsh(H.matrix)[0]
        with mock.patch.object(solver, "DENSE_SECTOR_MAX", crossover):
            e0 = lowest_energy(H, b)
            g = ground_state(H, b)
        assert e0 == pytest.approx(exact, abs=1e-11)
        assert expectation(g, H) == pytest.approx(exact, abs=1e-11)
        assert abs(_parity_value(g, m)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("cfg, omegas", [
        (Configuration.V, (0.0, 1.0, 1.0)),
        (Configuration.LAMBDA, (0.0, 0.0, 1.0)),
        (Configuration.XI, (0.0, 1.0, 2.0)),
    ])
    @pytest.mark.parametrize("couplings", [(0.0, 0.0), (0.0, 1.2), (0.3, 0.0)])
    def test_isolated_vacuum_in_lanczos_sectors(self, cfg, omegas, couplings):
        # Zero and single-axis couplings leave the vacuum an isolated
        # eigenstate; at na=4, nmax=64 both sectors exceed the crossover.
        m = with_couplings(ModelConfig(cfg, *omegas, 0.0, 0.0, 0.0, na=4, nmax=64), *couplings)
        b = enumerate_basis(4, 64)
        H = build_hamiltonian(m, b)
        assert min(np.bincount(H.sector_labels)) > solver.DENSE_SECTOR_MAX
        exact = np.linalg.eigvalsh(H.matrix)[0]
        assert lowest_energy(H, b) == pytest.approx(exact, abs=1e-11)
        assert expectation(ground_state(H, b), H) == pytest.approx(exact, abs=1e-11)

    @pytest.mark.parametrize("cfg, omegas, na, nmax, couplings", [
        (Configuration.V, (0.0, 1.0, 1.0), 3, 40, (1.5, 2.0)),
        (Configuration.XI, (0.0, 1.0, 2.0), 2, 40, (1.5, 2.0)),
        (Configuration.V, (0.0, 1.0, 1.0), 4, 64, (1.2, 1.2)),
    ])
    def test_degenerate_doublet_returns_vacuum_parity(self, cfg, omegas, na, nmax, couplings):
        # Deep in the collective phase the two parity sectors' ground levels
        # agree to below DEGENERACY_GAP; the vacuum's (even) sector wins.
        m = with_couplings(ModelConfig(cfg, *omegas, 0.0, 0.0, 0.0, na=na, nmax=nmax), *couplings)
        b = enumerate_basis(na, nmax)
        g = ground_state(build_hamiltonian(m, b), b)
        assert g.degenerate
        assert _parity_value(g, m) == pytest.approx(1.0, abs=1e-10)

    @_hypothesis
    @given(framed_models())
    def test_full_spectrum_matches_dense(self, model_frame):
        m, b, H = _framed_hamiltonian(model_frame)
        spec = diagonalize(H, b)
        exact = np.linalg.eigvalsh(H.matrix)
        assert np.max(np.abs(spec.energies - exact)) < 1e-11 * max(1.0, np.max(np.abs(exact)))
        assert np.all(np.diff(spec.energies) >= 0)
        # a stable merge: within a tie the vacuum's sector (number 0) comes first
        sector_of = spec.merged([np.full(len(e), k) for k, (_, e, _) in enumerate(spec.sectors)])
        ties = np.diff(spec.energies) == 0
        assert np.all(np.diff(sector_of)[ties] >= 0)
        assert sorted(np.concatenate([idx for idx, _, _ in spec.sectors])) == list(range(b.dim))
        scale = max(1.0, np.max(np.abs(H.matrix)))
        for idx, energies, vectors in spec.sectors:
            assert np.array_equal(H.sector_labels[idx], np.full(idx.size, H.sector_labels[idx[0]]))
            assert np.max(np.abs(vectors.T @ vectors - np.eye(idx.size))) < 1e-12
            residual = H.matrix[:, idx] @ vectors
            residual[idx] -= vectors * energies
            assert np.max(np.abs(residual)) < 1e-11 * scale
            peak = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(idx.size)]
            assert np.all(peak > 0)


@st.composite
def equal_detuning_frames(draw):
    """Lambda or V at equal detuning in either decoupled frame; one coupling
    may vanish, never both."""
    cfg = draw(st.sampled_from([Configuration.LAMBDA, Configuration.V]))
    low, high = sorted(draw(st.lists(_frequency, min_size=2, max_size=2)))
    omegas = (low, low, high) if cfg is Configuration.LAMBDA else (low, high, high)
    mu_a = draw(_coupling)
    mu_b = draw(st.floats(0.05, 2.0) if mu_a == 0.0 else _coupling)
    m = ModelConfig(cfg, *omegas, 0.0, 0.0, 0.0, na=draw(st.integers(1, 3)), nmax=draw(st.integers(0, 16)))
    return with_couplings(m, mu_a, mu_b), draw(st.sampled_from(list(Branch)))


def _band_label_rows(m, branch):
    """Data rows of ``spectrum --band-labels`` for the model, read from the CLI."""
    argv = ["spectrum", "--configuration", m.cfg.value, "--rotated", branch.value, "--band-labels"]
    for name in ("omega1", "omega2", "omega3", "mu12", "mu13", "mu23", "Omega", "na", "nmax"):
        argv += ["--" + name, repr(getattr(m, name))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return [line.split(",") for line in out.getvalue().splitlines()[1:] if not line.startswith("#")]


class TestIsolatedLevelSectors:
    @_hypothesis
    @given(equal_detuning_frames())
    def test_labels_energies_and_band_labels(self, model_frame):
        m, b, H = _framed_hamiltonian(model_frame)
        level = rotated_parameters(m, model_frame[1]).isolated_level
        parity_of = excitation_values(b, m.cfg) % 2
        assert np.array_equal(H.sector_labels, parity_of + 2 * b.level_counts[:, level - 1])
        spec = diagonalize(H, b)
        exact = np.linalg.eigvalsh(H.matrix)
        assert np.max(np.abs(spec.energies - exact)) < 1e-11 * max(1.0, np.max(np.abs(exact)))
        rows = _band_label_rows(m, model_frame[1])
        assert [r[1] for r in rows] == [f"{e:.12g}" for e in spec.energies]
        labels = np.array([int(r[2]) for r in rows])
        # The rounded isolated-level occupation of each eigenvector, from
        # the parity sectors alone: in a tie its eigenvectors may mix the
        # isolated-level sectors, so only separated levels are compared.
        by_parity = diagonalize(dataclasses.replace(H, sector_labels=parity_of), b)
        separated = np.diff(by_parity.energies, prepend=-np.inf, append=np.inf) > 1e-8
        separated = separated[:-1] & separated[1:]
        assert np.array_equal(labels[separated], rint_band_labels(by_parity, level)[separated])


@st.composite
def block_models(draw):
    """Random model and frame on a coupling ray: the theta = 0 and pi/2 rays
    (one coupling exactly zero) and the origin (lab frame only) included,
    and detuned frequencies, which leave a one-body term in the rotated
    frames."""
    cfg = draw(st.sampled_from(list(Configuration)))
    omegas = sorted(draw(st.lists(_frequency, min_size=3, max_size=3)))
    frame = draw(st.sampled_from([Branch.FIRST, Branch.SECOND, None]))
    ray = draw(st.sampled_from(["inside", "theta=0", "theta=pi/2", "origin"]))
    r = 0.0 if ray == "origin" and frame is None else draw(st.floats(0.05, 2.0))
    if ray in ("theta=0", "theta=pi/2"):
        mu_a, mu_b = (r, 0.0) if ray == "theta=0" else (0.0, r)
    else:
        theta = draw(st.floats(0.05, np.pi / 2 - 0.05))
        mu_a, mu_b = r * np.cos(theta), r * np.sin(theta)
    m = ModelConfig(
        cfg, *omegas, 0.0, 0.0, 0.0,
        na=draw(st.integers(1, 4)), nmax=draw(st.integers(0, 40)),
        Omega=draw(st.sampled_from([1.0, 0.7])),
    )
    return with_couplings(m, mu_a, mu_b), frame


class TestSectorBuilders:
    """The band read of every sector whatever its size, whole and in its two
    parts, and the solver's dense block written from it, against the dense
    view: bitwise, zeros stored as +0.0."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(block_models())
    def test_bitwise_equal_to_dense_read_back(self, model_frame):
        m, b, H = _framed_hamiltonian(model_frame)
        labels = H.sector_labels
        _, first = np.unique(labels, return_index=True)
        want = [np.flatnonzero(labels == labels[i]) for i in np.sort(first)]
        assert [idx.tolist() for idx in H.sectors] == [idx.tolist() for idx in want]
        assert not any(idx.flags.writeable for idx in H.sectors)
        for k, idx in enumerate(want):
            block = H.matrix[np.ix_(idx, idx)]
            upper = H.upper_band(k)
            w = upper.shape[0] - 1
            assert upper.flags.f_contiguous
            dense = solver._dense(upper)
            assert dense.flags.f_contiguous
            assert dense.tobytes() == block.tobytes()
            assert w == 0 or upper[0].any()
            assert upper.tobytes() == upper_band(block).tobytes()
            base, hop = H.upper_band(k, parts=True)
            assert base.shape == hop.shape == upper.shape
            assert base.flags.f_contiguous and hop.flags.f_contiguous
            assert (base + hop).tobytes() == upper.tobytes()
            # the parts are the photon-diagonal blocks and the hop blocks
            photons = b.photon_numbers[idx]
            on_site = np.where(photons[:, None] == photons, block, 0.0)
            assert solver._dense(base).tobytes() == on_site.tobytes()
            assert not (base.astype(bool) & hop.astype(bool)).any()

    @pytest.mark.parametrize("solve", [
        lambda H, b: ground_state(H, b),
        lambda H, b: diagonalize(H, b),
        lambda H, b: [list(walk) for _, walk in solver.pencil_ground_states([H], b, [0.5, 1.0])],
    ], ids=["ground_state", "diagonalize", "pencil_ground_states"])
    def test_split_once_per_hamiltonian(self, solve):
        # At equal detuning the rotated V frame labels parity and n_iso in
        # 0..8: 18 sectors, all from one split of H's labels, however often
        # H is solved.
        m = with_couplings(ModelConfig(Configuration.V, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, na=8, nmax=64), 0.6, 0.8)
        b = enumerate_basis(8, 64)
        H = build_hamiltonian(m, b, Branch.FIRST)
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            solve(H, b)
            solve(H, b)
        assert [c.args[0] is H.sector_labels for c in unique.call_args_list] == [True]
        assert len(H.sectors) == 18
        assert [idx[0] for idx in H.sectors] == sorted(idx[0] for idx in H.sectors)
        with pytest.raises(ValueError, match="read-only"):
            H.sectors[0][0] = 1


def _scaled(m, factor):
    """The model with every energy multiplied by ``factor``."""
    names = ("omega1", "omega2", "omega3", "mu12", "mu13", "mu23", "Omega")
    return dataclasses.replace(m, **{n: factor * getattr(m, n) for n in names})


def _lies_above(band, lowest):
    """solver._lies_above on one band, as a stack of one."""
    return bool(solver._lies_above(band.T[None], np.array([lowest]))[0])


def _solve_count(fn):
    """fn's result and the number of sector eigensolves it made."""
    dense = mock.patch.object(solver, "_lowest_two", wraps=solver._lowest_two)
    lanczos = mock.patch.object(solver, "_shift_invert_pair", wraps=solver._shift_invert_pair)
    with dense as d, lanczos as s:
        result = fn()
    return result, d.call_count + s.call_count


class TestSectorSkip:
    """Sectors proven above the lowest level solved so far are not solved;
    no result may change for it."""

    @pytest.mark.parametrize("crossover", [solver.DENSE_SECTOR_MAX, 8])
    @_hypothesis
    @given(model_frame=framed_models(), factor=st.sampled_from([1.0, 0.3, 1e3, 1e7]))
    def test_bitwise_equal_to_solving_every_sector(self, crossover, model_frame, factor):
        m, frame = model_frame
        m, b, H = _framed_hamiltonian((_scaled(m, factor), frame))
        with mock.patch.object(solver, "DENSE_SECTOR_MAX", crossover):
            got = ground_state(H, b), lowest_energy(H, b)
            with mock.patch.object(solver, "_pairs_of", all_sector_pairs):
                want = ground_state(H, b), lowest_energy(H, b)
        assert got[0].amplitudes.tobytes() == want[0].amplitudes.tobytes()
        assert got[0].degenerate == want[0].degenerate
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()

    @pytest.mark.parametrize("m", [
        lam(na=2, nmax=12),
        lam(na=1, nmax=0),  # a one-state sector
        lam(na=2, nmax=6, mu13=0.0, mu23=0.0),  # no off-diagonal entries
        _scaled(lam(na=2, nmax=6), 1e7),
    ])
    def test_inertia_against_eigvalsh(self, m):
        b = enumerate_basis(m.na, m.nmax)
        H = build_hamiltonian(m, b)
        for k, idx in enumerate(H.sectors):
            exact = np.linalg.eigvalsh(H.matrix[np.ix_(idx, idx)])[0]
            room = 1e-6 * max(1.0, abs(exact))
            assert _lies_above(H.upper_band(k), exact - room)
            for lowest in (exact - solver.DEGENERACY_GAP, exact, exact + room):
                assert not _lies_above(H.upper_band(k), lowest)

    def test_one_solve_in_the_normal_phase(self):
        m = ModelConfig(Configuration.XI, 0.0, 1.0, 2.0, mu12=0.3, mu13=0.0, mu23=0.2, na=2, nmax=32)
        b = enumerate_basis(2, 32)
        H = build_hamiltonian(m, b)
        assert len(H.sectors) == 2
        (g, e0), solves = _solve_count(lambda: (ground_state(H, b), lowest_energy(H, b)))
        assert solves == 2  # one per call
        assert not g.degenerate
        assert e0 == pytest.approx(np.linalg.eigvalsh(H.matrix)[0], abs=1e-11)

    @pytest.mark.parametrize("cfg, omegas, na, nmax, couplings", [
        (Configuration.V, (0.0, 1.0, 1.0), 3, 40, (1.5, 2.0)),
        (Configuration.XI, (0.0, 1.0, 2.0), 2, 40, (1.5, 2.0)),
        (Configuration.V, (0.0, 1.0, 1.0), 4, 64, (1.2, 1.2)),
    ])
    def test_both_solves_for_a_doublet(self, cfg, omegas, na, nmax, couplings):
        m = with_couplings(ModelConfig(cfg, *omegas, 0.0, 0.0, 0.0, na=na, nmax=nmax), *couplings)
        b = enumerate_basis(na, nmax)
        g, solves = _solve_count(lambda: ground_state(build_hamiltonian(m, b), b))
        assert g.degenerate and solves == 2

    @pytest.mark.parametrize("factor", [2.0**20, 1e7])
    def test_tie_rule_at_large_energy_scale(self, factor):
        # lowest + DEGENERACY_GAP rounds back to lowest here; the tie is
        # decided by differences, so the lowest sector still wins.
        m = _scaled(lam(na=2, nmax=6, mu13=0.3, mu23=0.4), factor)
        b = enumerate_basis(2, 6)
        H = build_hamiltonian(m, b)
        g = ground_state(H, b)
        exact = np.linalg.eigvalsh(H.matrix)[0]
        assert expectation(g, H) == pytest.approx(exact, rel=1e-12)
        assert lowest_energy(H, b) == pytest.approx(exact, rel=1e-12)


def _continuations(fn):
    """fn's result and what every continuation it tried returned, per band
    continued: its two levels and vector column, or None."""
    results = []
    real = solver._continued

    def continued(stack, x, active):
        levels, vectors = real(stack, x, active)
        results.extend((levels[r], vectors[r][:, None]) if levels[r, 0] < np.inf else None
                       for r in np.flatnonzero(active))
        return levels, vectors

    with mock.patch.object(solver, "_continued", continued):
        return fn(), results


def _continue_one(band, x):
    """solver._continued on one band from x normalized: (levels, vector
    column), or None."""
    levels, vectors = solver._continued(band.T[None].copy(), (x / np.linalg.norm(x))[None], np.ones(1, bool))
    return (levels[0], vectors[0][:, None]) if levels[0, 0] < np.inf else None


def _near(H, b, near):
    """ground_state(H, b) continued from the state ``near``, as a
    ray's walk continues from its last state: in the sector holding more
    than half of near's weight, from near's part there, normalized."""
    x = [near.amplitudes.real[idx][None] for idx in H.sectors]
    warm = next(k for k, v in enumerate(x) if (v * v).sum() > 0.5)
    before = [np.zeros_like(v) for v in x]  # twice x less zero: x, normalized
    pairs = solver._sector_pairs(H.sectors, lambda k: H.upper_band(k).T[None], np.array([warm]), [x, before])
    states, _, degenerate = solver._grounds(H.sectors, *pairs, b.dim)
    return QuantumState(states[0].astype(complex), b, degenerate=bool(degenerate[0]))


def _embedded(b, idx, column):
    """A sector's eigenvector column as a state over the whole basis."""
    amps = np.zeros(b.dim, dtype=complex)
    amps[idx] = column
    return QuantumState(amps, b)


class TestContinuation:
    """A neighbour's state continued to this point's ground state agrees
    with the cold solve to roundoff; whatever the proofs cannot certify
    falls back to the cold solve, bit for bit."""

    @pytest.mark.parametrize("crossover", [solver.DENSE_SECTOR_MAX, 8])
    @_hypothesis
    @given(model_frame=framed_models(), step=st.sampled_from([0.0, 0.01, 0.05]))
    def test_agrees_with_cold_solve(self, crossover, model_frame, step):
        frame = model_frame[1]
        m, b, H = _framed_hamiltonian(model_frame)
        neighbour = with_couplings(m, *((1.0 - step) * c for c in m.plane_couplings))
        with mock.patch.object(solver, "DENSE_SECTOR_MAX", crossover):
            near = ground_state(build_hamiltonian(neighbour, b, frame), b)
            cold = ground_state(H, b)
            warm, tried = _continuations(lambda: _near(H, b, near))
        sector = H.sector_labels[np.argmax(np.abs(cold.amplitudes))]
        assert H.sector_labels[np.argmax(np.abs(warm.amplitudes))] == sector
        assert warm.degenerate == cold.degenerate
        assert abs(np.vdot(warm.amplitudes, cold.amplitudes)) ** 2 >= 1.0 - 1e-12
        if not any(r is not None for r in tried):
            assert warm.amplitudes.tobytes() == cold.amplitudes.tobytes()

    def test_normal_phase_point_needs_no_eigensolve(self):
        # The vacuum's sector is continued, the other one proven above it.
        m = ModelConfig(Configuration.XI, 0.0, 1.0, 2.0, mu12=0.3, mu13=0.0, mu23=0.2, na=2, nmax=32)
        b = enumerate_basis(2, 32)
        H = build_hamiltonian(m, b)
        near = ground_state(build_hamiltonian(with_couplings(m, 0.29, 0.19), b), b)
        (warm, tried), solves = _solve_count(lambda: _continuations(lambda: _near(H, b, near)))
        assert solves == 0 and len(tried) == 1 and tried[0] is not None
        energies, _ = tried[0]
        exact = np.linalg.eigvalsh(H.matrix)[:2]
        assert energies[0] == pytest.approx(exact[0], abs=1e-12)
        assert exact[0] + 2 * solver.DEGENERACY_GAP < energies[1] < exact[1]
        assert abs(np.vdot(warm.amplitudes, ground_state(H, b).amplitudes)) ** 2 >= 1.0 - 1e-14

    def test_second_eigenvector_falls_back(self):
        m = ModelConfig(Configuration.XI, 0.0, 1.0, 2.0, mu12=0.3, mu13=0.0, mu23=0.2, na=2, nmax=12)
        b = enumerate_basis(2, 12)
        H = build_hamiltonian(m, b)
        idx, _, vectors = diagonalize(H, b).sectors[0]
        cold = ground_state(H, b)
        warm, tried = _continuations(lambda: _near(H, b, _embedded(b, idx, vectors[:, 1])))
        assert tried == [None]
        assert warm.amplitudes.tobytes() == cold.amplitudes.tobytes()
        assert not warm.degenerate and not cold.degenerate

    def test_doublet_tie_goes_to_the_earlier_sector(self):
        # A parity doublet continued from the odd sector's state: that sector
        # is visited first, but the tie rule reads the sectors in sector
        # order, so the vacuum's wins as in the cold solve.
        m = ModelConfig(Configuration.V, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, na=3, nmax=40)
        b = enumerate_basis(3, 40)
        H = build_hamiltonian(with_couplings(m, 1.5, 2.0), b)
        cold = ground_state(H, b)
        idx, _, vectors = diagonalize(H, b).sectors[1]
        warm, tried = _continuations(lambda: _near(H, b, _embedded(b, idx, vectors[:, 0])))
        assert len(tried) == 1 and tried[0] is not None
        assert warm.amplitudes.tobytes() == cold.amplitudes.tobytes()
        assert warm.degenerate and cold.degenerate

    def test_settled_vector_above_roundoff_falls_back(self):
        # Levels 0, 1e-4 and 1.  The neighbour's large weight on the top level
        # puts the shift about 0.65 below the lowest, where the 1e-4 level's
        # component shrinks by only 1.5e-4 a step.  The vector stops moving by
        # 1e-14 after 35 solves with that component still 2e-11 and the top
        # level's 6e-15, a residual above roundoff, so no proof is tried.
        band = np.array([[0.0, 1e-4, 1.0]], order="F")
        x = np.array([1.0, 2e-11, 2.25])
        inverse = mock.patch("scipy.linalg.lapack.dpbtrs", wraps=scipy.linalg.lapack.dpbtrs)
        with inverse as solves, mock.patch.object(solver, "_lies_above") as proof:
            assert _continue_one(band, x) is None
        assert solves.call_count < solver.CONTINUE_STEPS  # it stopped early
        proof.assert_not_called()

    def test_settled_far_below_a_close_second_level(self):
        # As above, with 2.5 in place of 2.25: the shift lands about 0.52
        # below the lowest level, and the vector stops moving with its 1e-4
        # component still 2e-11 and a residual of 3.4e-15, at roundoff.  Only
        # under a shift close below the settled level does a solve move the
        # vector by its error.
        band = np.array([[0.0, 1e-4, 1.0]], order="F")
        x = np.array([1.0, 2e-11, 2.5])
        pair = _continue_one(band, x)
        assert pair is not None
        energies, vectors = pair
        assert np.abs(vectors[:, 0] - [1.0, 0.0, 0.0]).max() <= 1e-13
        assert abs(energies[0]) <= 1e-15 and energies[1] < 1e-4

    @pytest.mark.parametrize("na", [1, 2])
    def test_degenerate_sector_falls_back(self, na):
        # Lambda at omega1 = omega2 without couplings: the lowest level of the
        # vacuum's sector is na + 1 times degenerate.
        m = ModelConfig(Configuration.LAMBDA, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, na=na, nmax=6)
        b = enumerate_basis(na, 6)
        H = build_hamiltonian(m, b)
        cold = ground_state(H, b)
        idx, _, vectors = diagonalize(H, b).sectors[0]
        for near in (cold, _embedded(b, idx, vectors[:, 0])):
            warm, tried = _continuations(lambda: _near(H, b, near))
            assert tried == [None]
            assert warm.amplitudes.tobytes() == cold.amplitudes.tobytes()
            assert warm.degenerate and cold.degenerate


def _in_sector_order(warm, count):
    return np.tile(np.arange(count), (warm.size, 1))


def _ray_states(H, b, radii):
    """(state, degenerate) at each point of the ray of H, a pencil of one."""
    ((_, walk),) = solver.pencil_ground_states([H], b, radii)
    return [(states[0], degenerate[0]) for states, degenerate in walk]


@pytest.mark.parametrize("frame", [Branch.FIRST, Branch.SECOND])
@pytest.mark.parametrize("cfg, omegas", [
    (Configuration.V, (0.0, 1.0, 1.0)),
    (Configuration.LAMBDA, (0.0, 0.0, 1.0)),
])
def test_warm_sector_first_on_a_ray(cfg, omegas, frame):
    # At equal detuning the rotated frame has 2 (na + 1) sectors, the
    # vacuum's first.  In Lambda's first branch the ground state leaves the
    # vacuum's sector (n_iso = na) for n_iso = 0 along the ray: visited in
    # sector order, every sector before it is solved cold at every point.
    m = ModelConfig(cfg, *omegas, 0.0, 0.0, 0.0, na=4, nmax=32)
    b = enumerate_basis(4, 32)
    H = build_hamiltonian(with_couplings(m, np.cos(np.pi / 4), np.sin(np.pi / 4)), b, frame)
    radii = 0.02 * np.arange(1, 76)
    runs = []
    for order in (mock.patch.object(solver, "_visits", _in_sector_order), contextlib.nullcontext()):
        with order, mock.patch.object(solver, "_lowest_two", wraps=solver._lowest_two) as cold:
            runs.append((_ray_states(H, b, radii), cold.call_count))
    (in_order, in_order_solves), (warm_first, warm_first_solves) = runs
    for got, want in zip(warm_first, in_order):
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]
    assert warm_first_solves <= 10
    if cfg is Configuration.LAMBDA and frame is Branch.FIRST:
        assert in_order_solves > 3 * radii.size


class TestMemory:
    """numpy reports its buffers to tracemalloc, so the traced peak bounds
    every array a call makes."""

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ground_state_path_builds_no_dense_matrix(self):
        # dim 5805: the dense view alone would take 270 MB.
        m = lam(na=8, nmax=128)
        b = enumerate_basis(8, 128)

        def solve():
            H = build_hamiltonian(m, b)
            return H, lowest_energy(H, b), ground_state(H, b)

        (H, _, _), peak = self._peak(solve)
        assert peak < 32 * 2**20
        assert "matrix" not in vars(H)

    def test_factors_and_bands_stay_small(self):
        # dim 5805: nmax = 128 dense hop blocks alone would take 2 MB, a
        # table of every block entry's position many more; H's factors, its
        # sector split and the two sectors' bands (1.3 MB together) need less.
        m = lam(na=8, nmax=128)
        b = enumerate_basis(8, 128)

        def gather():
            H = build_hamiltonian(m, b)
            return H, [H.upper_band(k) for k in range(len(H.sectors))]

        (H, bands), peak = self._peak(gather)
        assert len(bands) == 2
        assert peak < 4 * 2**20
        assert "matrix" not in vars(H)

    def test_spectrum_and_evolution_build_no_dense_matrix(self):
        # dim 2925: the dense view alone would take 68 MB; each parity
        # sector's eigenvectors take 17 MB.
        m = lam(na=8, nmax=64)
        b = enumerate_basis(8, 64)
        amps = np.zeros(b.dim, dtype=complex)
        odd = np.flatnonzero(excitation_values(b, m.cfg) % 2)[0]
        amps[[0, odd]] = np.sqrt(0.5)  # the vacuum and a state of the other parity

        def solve():
            H = build_hamiltonian(m, b)
            spec = diagonalize(H, b)
            return H, spec, evolve(spec, QuantumState(amps, b), [1.0])

        (H, _, _), peak = self._peak(solve)
        assert "matrix" not in vars(H)
        assert peak < 8 * b.dim**2

    def test_cutoff_search_builds_no_dense_matrix(self):
        built = []
        real = solver.build_hamiltonian

        def record(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        with mock.patch.object(solver, "build_hamiltonian", record):
            converged_ground_state(lam(na=4, mu13=0.9, mu23=0.9))
        assert built and not any("matrix" in vars(H) for H in built)


class TestEvolve:
    def _setup(self, na=1, nmax=12):
        m = lam(na=na, nmax=nmax)
        b = enumerate_basis(na, nmax)
        H = build_hamiltonian(m, b)
        return m, b, diagonalize(H, b)

    def test_time_zero_is_identity(self):
        _, b, spec = self._setup()
        g = QuantumState(full_vectors(spec)[:, 3].astype(complex), b)
        (out,) = evolve(spec, g, [0.0])
        assert np.max(np.abs(out.amplitudes - g.amplitudes)) < 1e-12

    def test_eigenstate_is_stationary(self):
        _, b, spec = self._setup()
        g = QuantumState(full_vectors(spec)[:, 0].astype(complex), b)
        for out in evolve(spec, g, (0.7, 5.0, 21.3)):
            assert np.allclose(populations(out), populations(g), atol=1e-10)

    def test_unitarity_of_overlaps(self):
        rng = np.random.default_rng(77)
        _, b, spec = self._setup()
        v1 = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        v2 = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        s1 = QuantumState(v1 / np.linalg.norm(v1), b)
        s2 = QuantumState(v2 / np.linalg.norm(v2), b)
        ref = abs(np.vdot(s1.amplitudes, s2.amplitudes))
        times = (0.5, 3.0, 17.0)
        for out1, out2 in zip(evolve(spec, s1, times), evolve(spec, s2, times)):
            o = abs(np.vdot(out1.amplitudes, out2.amplitudes))
            assert o == pytest.approx(ref, abs=1e-10)

    def test_frozen_level_stays_empty(self):
        m = lam(na=1, nmax=16)
        b = enumerate_basis(1, 16)
        spec = diagonalize(build_hamiltonian(m, b, Branch.FIRST), b)
        amps = np.zeros(b.dim, dtype=complex)
        amps[index_of(b, BasisState(2, 0, 0, 1))] = 1.0
        s0 = QuantumState(amps, b)
        for out in evolve(spec, s0, np.linspace(0, 20, 9)):
            assert populations(out)[0] == 0.0

    @_hypothesis
    @given(framed_models(), st.sampled_from(["basis state", "both parities"]),
           st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 30.0), min_size=1, max_size=4))
    def test_matches_dense_eigh(self, model_frame, start, seed, times):
        m, b, H = _framed_hamiltonian(model_frame)
        rng = np.random.default_rng(seed)
        amps = np.zeros(b.dim, dtype=complex)
        if start == "basis state":
            amps[rng.integers(b.dim)] = 1.0
        else:
            amps = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        s0 = QuantumState(amps / np.linalg.norm(amps), b)
        outs = evolve(diagonalize(H, b), s0, times)
        assert len(outs) == len(times)
        for out, t in zip(outs, times):
            assert np.max(np.abs(out.amplitudes - eigh_evolve(H, s0, t))) < 1e-9

    def test_basis_mismatch(self):
        _, b, spec = self._setup(nmax=12)
        other = enumerate_basis(1, 13)
        amps = np.zeros(other.dim, dtype=complex)
        amps[0] = 1.0
        with pytest.raises(ValueError):
            evolve(spec, QuantumState(amps, other), [1.0])

    def test_empty_time_grid(self):
        _, b, spec = self._setup()
        assert evolve(spec, QuantumState(full_vectors(spec)[:, 0].astype(complex), b), []) == []

    def test_nan_state_is_refused(self):
        b = enumerate_basis(1, 2)
        with pytest.raises(ValueError, match="not normalized"):
            QuantumState(np.full(b.dim, np.nan, dtype=complex), b)

    def test_overflowing_phase_is_refused(self):
        # E t overflows for the sector's upper energies, so the phases and
        # the norm are NaN: no state may come out.
        _, b, spec = self._setup(nmax=4)
        s0 = QuantumState(full_vectors(spec)[:, 0].astype(complex), b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="norm is not finite"):
                evolve(spec, s0, [1e308])
