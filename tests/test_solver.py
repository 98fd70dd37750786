from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke3 import solver
from dicke3.basis import BasisState, enumerate_basis
from dicke3.model import (
    ModelConfig,
    build_frame_hamiltonian,
    build_hamiltonian,
    build_rotated_hamiltonian,
    with_couplings,
)
from dicke3.operators import Configuration, OperatorMatrix, excitation_values, parity
from dicke3.rotations import Branch, RotationSpec, transform_exact
from dicke3.solver import (
    NonConvergenceError,
    QuantumState,
    converge_cutoff,
    converged_ground_state,
    diagonalize,
    evolve,
    expectation,
    ground_state,
    lowest_energy,
    populations,
)

from conftest import random_model


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
        g = 0.37
        H = OperatorMatrix(np.array([[0.0, -g], [-g, 1.0]]), hermitian=True)
        b = _FakeBasis(2)
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
        for k in range(b.dim):
            r = H.matrix @ spec.vectors[:, k] - spec.energies[k] * spec.vectors[:, k]
            assert np.linalg.norm(r) < 1e-9 * scale
        # orthonormal columns
        overlap = spec.vectors.T @ spec.vectors
        assert np.max(np.abs(overlap - np.eye(b.dim))) < 1e-12

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, Configuration.XI, na=1, nmax=6)
        b = enumerate_basis(1, 6)
        spec = diagonalize(build_hamiltonian(m, b), b)
        for k in range(b.dim):
            v = spec.vectors[:, k]
            assert v[np.argmax(np.abs(v))] > 0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, Configuration.LAMBDA, na=2, nmax=10)
        b = enumerate_basis(2, 10)
        e0 = diagonalize(build_hamiltonian(m, b), b).energies
        e1 = diagonalize(build_rotated_hamiltonian(m, b, Branch.FIRST), b).energies
        assert np.max(np.abs(e0 - e1)) < 1e-9

    def test_rejects_non_hermitian(self):
        b = _FakeBasis(2)
        with pytest.raises(ValueError):
            diagonalize(OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])), b)


class _FakeBasis:
    """Minimal stand-in for tiny hand-built matrices."""

    def __init__(self, dim):
        self._dim = dim
        self.na = 1
        self.nmax = dim - 1
        self.atomic_dim = 1
        self.photon_numbers = np.arange(dim)
        self.level_counts = np.zeros((dim, 3), dtype=int)

    @property
    def dim(self):
        return self._dim

    def compatible_with(self, other):
        return getattr(other, "dim", None) == self._dim


class TestGroundState:
    def test_zero_coupling_ground(self):
        m = ModelConfig(Configuration.XI, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, na=2, nmax=4)
        b = enumerate_basis(2, 4)
        g = ground_state(build_hamiltonian(m, b), b)
        assert abs(g.amplitudes[b.index[BasisState(0, 2, 0, 0)]]) == pytest.approx(1.0)
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
        amps[b.index[BasisState(2, 1, 0, 2)]] = 1.0
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
        g = ground_state(build_rotated_hamiltonian(m, b, Branch.FIRST), b)
        assert populations(g)[0] < 1e-10


class TestParityPurity:
    def test_nondegenerate_eigenstates_have_pure_parity(self):
        rng = np.random.default_rng(41)
        for cfg in Configuration:
            m = random_model(rng, cfg, na=2, nmax=12)
            b = enumerate_basis(2, 12)
            spec = diagonalize(build_hamiltonian(m, b), b)
            P = parity(b, cfg)
            gaps = np.diff(spec.energies)
            for k in range(b.dim):
                gap = min(
                    gaps[k - 1] if k > 0 else np.inf,
                    gaps[k] if k < b.dim - 1 else np.inf,
                )
                if gap < 1e-8:
                    continue
                state = QuantumState(spec.vectors[:, k].astype(complex), b)
                assert abs(expectation(state, P)) > 1 - 1e-10


class TestConvergeCutoff:
    def test_zero_coupling_converges_immediately(self):
        m = ModelConfig(Configuration.XI, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, na=1, nmax=4)
        assert converge_cutoff(m) == 8

    def test_monotone_along_coupling_line(self):
        m = lam(na=2)
        cuts = [converge_cutoff(with_couplings(m, 0.3 * s, 0.4 * s)) for s in (1, 3, 6)]
        assert cuts == sorted(cuts)
        assert cuts[-1] > cuts[0]

    def test_growth_with_coupling(self):
        m = lam(na=1)
        weak = converge_cutoff(with_couplings(m, 0.1, 0.1))
        strong = converge_cutoff(with_couplings(m, 1.8, 1.8))
        assert strong > weak

    def test_nonconvergence_error(self):
        m = lam(na=1)
        with pytest.raises(NonConvergenceError):
            converge_cutoff(with_couplings(m, 1.5, 1.5), etol=1e-18, hard_cap=32)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            converge_cutoff(lam(), etol=-1.0)

    def test_converged_state_matches_cutoff(self):
        m = lam(na=1, mu13=0.9, mu23=0.9)
        nmax, state = converged_ground_state(m)
        assert state.basis.nmax == nmax
        assert converge_cutoff(m) == nmax


_coupling = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
_frequency = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0))
_hypothesis = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
)


@st.composite
def framed_models(draw):
    """Random model and frame; zero and single-axis couplings included."""
    cfg = draw(st.sampled_from(list(Configuration)))
    omegas = sorted(draw(st.lists(_frequency, min_size=3, max_size=3)))
    na = draw(st.integers(1, 3))
    nmax = draw(st.integers(0, 24))
    mu_a, mu_b = draw(_coupling), draw(_coupling)
    frames = [None] if mu_a == mu_b == 0.0 else [None, Branch.FIRST, Branch.SECOND]
    frame = draw(st.sampled_from(frames))
    m = ModelConfig(cfg, *omegas, 0.0, 0.0, 0.0, na=na, nmax=nmax)
    return with_couplings(m, mu_a, mu_b), frame


def _framed_hamiltonian(model_frame):
    m, frame = model_frame
    b = enumerate_basis(m.na, m.nmax)
    return m, b, build_frame_hamiltonian(m, b, frame)


def _parity_value(state, m):
    return expectation(state, parity(state.basis, m.cfg))


class TestParitySectors:
    @_hypothesis
    @given(framed_models())
    def test_no_entry_joins_parity_sectors(self, model_frame):
        m, b, H = _framed_hamiltonian(model_frame)
        labels = excitation_values(b, m.cfg) % 2
        assert np.array_equal(H.parity_labels, labels)
        assert not H.matrix[np.ix_(labels == 0, labels == 1)].any()

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
        assert min(np.bincount(H.parity_labels)) > solver.DENSE_SECTOR_MAX
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

    def test_unlabelled_operator_is_one_sector(self):
        rng = np.random.default_rng(61)
        m = random_model(rng, Configuration.LAMBDA, na=2, nmax=12)
        b = enumerate_basis(2, 12)
        H = build_hamiltonian(m, b)
        rotated = transform_exact(RotationSpec(1, 2, 0.4), H, b)
        assert rotated.parity_labels is None
        g = ground_state(rotated, b)
        assert expectation(g, rotated) == pytest.approx(lowest_energy(H, b), abs=1e-10)

    def test_unlabelled_operator_above_crossover_solved_dense(self):
        rng = np.random.default_rng(62)
        dim = solver.DENSE_SECTOR_MAX + 10
        a = rng.standard_normal((dim, dim))
        H = OperatorMatrix(a + a.T, hermitian=True)
        b = _FakeBasis(dim)
        assert lowest_energy(H, b) == pytest.approx(np.linalg.eigvalsh(H.matrix)[0], abs=1e-10)
        g = ground_state(H, b)
        assert expectation(g, H) == pytest.approx(lowest_energy(H, b), abs=1e-10)


class TestEvolve:
    def _setup(self, na=1, nmax=12):
        m = lam(na=na, nmax=nmax)
        b = enumerate_basis(na, nmax)
        H = build_hamiltonian(m, b)
        return m, b, diagonalize(H, b)

    def test_time_zero_is_identity(self):
        _, b, spec = self._setup()
        g = QuantumState(spec.vectors[:, 3].astype(complex), b)
        out = evolve(spec, g, 0.0)
        assert np.max(np.abs(out.amplitudes - g.amplitudes)) < 1e-12

    def test_eigenstate_is_stationary(self):
        _, b, spec = self._setup()
        g = QuantumState(spec.vectors[:, 0].astype(complex), b)
        for t in (0.7, 5.0, 21.3):
            out = evolve(spec, g, t)
            assert np.allclose(populations(out), populations(g), atol=1e-10)

    def test_unitarity_of_overlaps(self):
        rng = np.random.default_rng(77)
        _, b, spec = self._setup()
        v1 = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        v2 = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        s1 = QuantumState(v1 / np.linalg.norm(v1), b)
        s2 = QuantumState(v2 / np.linalg.norm(v2), b)
        ref = abs(np.vdot(s1.amplitudes, s2.amplitudes))
        for t in (0.5, 3.0, 17.0):
            o = abs(
                np.vdot(evolve(spec, s1, t).amplitudes, evolve(spec, s2, t).amplitudes)
            )
            assert o == pytest.approx(ref, abs=1e-10)

    def test_frozen_level_stays_empty(self):
        m = lam(na=1, nmax=16)
        b = enumerate_basis(1, 16)
        spec = diagonalize(build_rotated_hamiltonian(m, b, Branch.FIRST), b)
        amps = np.zeros(b.dim, dtype=complex)
        amps[b.index[BasisState(2, 0, 0, 1)]] = 1.0
        s0 = QuantumState(amps, b)
        for t in np.linspace(0, 20, 9):
            assert populations(evolve(spec, s0, t))[0] < 1e-10

    def test_basis_mismatch(self):
        _, b, spec = self._setup(nmax=12)
        other = enumerate_basis(1, 13)
        amps = np.zeros(other.dim, dtype=complex)
        amps[0] = 1.0
        with pytest.raises(ValueError):
            evolve(spec, QuantumState(amps, other), 1.0)
