import dataclasses
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicke3 as d3
from dicke3.basis import BasisState, enumerate_basis, index_of
from dicke3.model import (
    ModelConfig,
    build_hamiltonian,
    detuning,
    rotated_parameters,
    with_couplings,
)
from dicke3.operators import Configuration, atomic_collective_matrix
from dicke3.rotations import Branch, UndefinedAngleError, decoupling_angle

from conftest import random_model
from oracles import (
    boson_annihilate,
    boson_create,
    build_effective_two_level,
    collective_A,
    effective_coupling,
    effective_two_level_block,
    photon_ladder_matrix,
    rotation_matrix,
)


def xi(na=1, nmax=4, **kw):
    base = dict(omega1=0.0, omega2=1.0, omega3=2.0, mu12=1.0, mu13=0.0, mu23=1.0)
    base.update(kw)
    return ModelConfig(Configuration.XI, na=na, nmax=nmax, **base)


def lam(na=1, nmax=4, **kw):
    base = dict(omega1=0.0, omega2=0.0, omega3=1.0, mu12=0.0, mu13=0.6, mu23=0.8)
    base.update(kw)
    return ModelConfig(Configuration.LAMBDA, na=na, nmax=nmax, **base)


def vee(na=1, nmax=4, **kw):
    base = dict(omega1=0.0, omega2=0.8, omega3=1.0, mu12=0.3, mu13=0.2, mu23=0.0)
    base.update(kw)
    return ModelConfig(Configuration.V, na=na, nmax=nmax, **base)


class TestModelConfig:
    def test_rejects_forbidden_coupling(self):
        with pytest.raises(ValueError):
            xi(mu13=0.1)
        with pytest.raises(ValueError):
            lam(mu12=0.1)
        with pytest.raises(ValueError):
            vee(mu23=0.1)

    def test_rejects_unsorted_frequencies(self):
        with pytest.raises(ValueError):
            xi(omega2=3.0)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            xi(mu12=-0.5)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            xi(na=0)
        with pytest.raises(ValueError):
            ModelConfig(
                Configuration.XI, 0, 1, 2, 1.0, 0.0, 1.0, na=1, nmax=4, Omega=0.0
            )


    @pytest.mark.parametrize("field", ["na", "nmax"])
    @pytest.mark.parametrize("value", ["4", 4.0, True, None])
    def test_rejects_non_integer_sizes(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            xi(**{field: value})

    @pytest.mark.parametrize(
        "field", ["omega1", "omega2", "omega3", "mu12", "mu23", "Omega"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "1", True, None])
    def test_rejects_non_finite_or_non_real_parameters(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite real number"):
            xi(**{field: value})

    def test_accepts_numpy_scalars(self):
        m = xi(na=np.int64(2), nmax=np.int64(3), mu12=np.float64(0.5))
        assert m.na == 2 and m.mu12 == 0.5


class TestDetuning:
    def test_resonance(self):
        assert detuning(lam(omega3=1.0), 1, 3) == pytest.approx(0.0, abs=1e-15)

    def test_fig_parameters(self):
        assert detuning(vee(), 1, 2) == pytest.approx(0.2, abs=1e-15)

    def test_equal_detuning_lambda(self):
        m = lam()
        assert detuning(m, 1, 3) == pytest.approx(detuning(m, 2, 3), abs=1e-15)
        assert m.equal_detuning()

    def test_requires_ordered_pair(self):
        with pytest.raises(ValueError):
            detuning(lam(), 3, 1)


class TestHamiltonian:
    def test_decoupled_limit_is_diagonal(self):
        m = xi(mu12=0.0, mu23=0.0, nmax=0)
        b = enumerate_basis(1, 0)
        H = build_hamiltonian(m, b).matrix
        assert np.allclose(H, np.diag([0.0, 1.0, 2.0]), atol=0)

    def test_hand_expanded_element(self):
        m = vee(nmax=1)
        b = enumerate_basis(1, 1)
        H = build_hamiltonian(m, b).matrix
        i = index_of(b, BasisState(1, 1, 0, 0))
        j = index_of(b, BasisState(0, 0, 1, 0))
        assert H[i, j] == pytest.approx(-0.3, abs=1e-15)

    def test_basis_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_hamiltonian(xi(nmax=4), enumerate_basis(1, 5))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, Configuration.LAMBDA, na=3, nmax=6)
        H = build_hamiltonian(m, enumerate_basis(3, 6))
        assert np.array_equal(H.matrix, H.matrix.T)


def _frame_terms(m, branch):
    """(level terms, couplings by pair, one-body value, one-body pair) of a frame."""
    if branch is None:
        return m.omegas, {p: m.coupling(p) for p in ((1, 2), (1, 3), (2, 3))}, 0.0, (1, 2)
    rp = rotated_parameters(m, branch)
    return rp.omega_ts, rp.mu_ts, rp.lambda_t, rp.lambda_pair


def _oracle_hamiltonian(m, b, branch):
    """Omega a+a + sum_l w_l A_ll - (a + a+) sum mu_jk (A_jk + A_kj) / sqrt(N)
    + lambda (A_jk + A_kj), from the full-basis operators."""
    omegas, mus, lam, lam_pair = _frame_terms(m, branch)
    ad = boson_create(b).matrix
    a = boson_annihilate(b).matrix

    def pair(j, k):
        return collective_A(b, j, k).matrix + collective_A(b, k, j).matrix

    H = m.Omega * ad @ a
    for lvl, w in enumerate(omegas, start=1):
        H += w * collective_A(b, lvl, lvl).matrix
    coupling = sum(mu * pair(j, k) for (j, k), mu in mus.items())
    H -= (a + ad) @ coupling / np.sqrt(m.na)
    return H + lam * pair(*lam_pair)


def _kron_hamiltonian(m, b, branch):
    """The same sum as dense photon (x) atomic kron products, term by term in
    assembly order, skipping zero weights."""
    omegas, mus, lam, lam_pair = _frame_terms(m, branch)
    eye_ph, eye_at = np.eye(b.nmax + 1), np.eye(b.atomic_dim)
    ladder = photon_ladder_matrix(b.nmax)

    def pair(j, k):
        return atomic_collective_matrix(b.na, j, k) + atomic_collective_matrix(b.na, k, j)

    H = m.Omega * np.kron(np.diag(np.arange(b.nmax + 1.0)), eye_at)
    for lvl, w in enumerate(omegas, start=1):
        if w != 0.0:
            H += w * np.kron(eye_ph, atomic_collective_matrix(b.na, lvl, lvl))
    coupling = np.zeros((b.atomic_dim, b.atomic_dim))
    for (j, k), mu in mus.items():
        if mu != 0.0:
            coupling += mu * pair(j, k)
    if coupling.any():
        H -= np.kron(ladder + ladder.T, coupling) / np.sqrt(b.na)
    if lam != 0.0:
        H += lam * np.kron(eye_ph, pair(*lam_pair))
    return H


class TestAssemblyOracle:
    @pytest.mark.parametrize("cfg", list(Configuration))
    @pytest.mark.parametrize("branch", [None, *Branch])
    def test_matches_operator_sum(self, cfg, branch):
        rng = np.random.default_rng(23)
        for na, nmax in ((1, 0), (1, 5), (2, 7), (3, 4), (4, 3)):
            m = random_model(rng, cfg, na=na, nmax=nmax, Omega=rng.uniform(0.5, 2.0))
            b = enumerate_basis(na, nmax)
            H = d3.build_hamiltonian(m, b, branch).matrix
            assert np.max(np.abs(H - _oracle_hamiltonian(m, b, branch))) < 1e-12

    @pytest.mark.parametrize("cfg", list(Configuration))
    def test_bitwise_equal_to_kron_form(self, cfg):
        # Equal detuning (exact zero one-body term, levels lo+1..hi lowered
        # to omega_lo) and negative level frequencies included; signed zeros
        # must match too.
        rng = np.random.default_rng(29)
        lo, hi = cfg.forbidden_pair
        for trial in range(30):
            m = random_model(rng, cfg, na=1 + trial % 4, nmax=trial % 7, omega_span=(-1.0, 2.0))
            if trial % 3 == 0:
                om = list(m.omegas)
                om[lo:hi] = [om[lo - 1]] * (hi - lo)
                m = dataclasses.replace(m, omega1=om[0], omega2=om[1], omega3=om[2])
                assert m.equal_detuning()
            b = enumerate_basis(m.na, m.nmax)
            for branch in (None, *Branch):
                H = d3.build_hamiltonian(m, b, branch).matrix
                assert H.tobytes() == _kron_hamiltonian(m, b, branch).tobytes()


class TestRotatedParameters:
    def test_three_four_five(self):
        m = xi(mu12=3.0, mu23=4.0)
        rp = rotated_parameters(m, Branch.FIRST)
        assert rp.mu_ts[(1, 2)] == pytest.approx(5.0, abs=1e-12)
        assert rp.mu_ts[(1, 3)] == rp.mu_ts[(2, 3)] == 0.0
        rp2 = rotated_parameters(m, Branch.SECOND)
        assert rp2.mu_ts[(2, 3)] == pytest.approx(5.0, abs=1e-12)
        assert rp2.mu_ts[(1, 2)] == rp2.mu_ts[(1, 3)] == 0.0

    def test_lambda_equal_detuning_kills_one_body(self):
        # exactly zero, for Lambda and V at equal detuning and Xi at omega1 = omega3
        for m in (lam(), vee(omega2=1.0), xi(omega1=1.0, omega2=1.0, omega3=1.0)):
            for br in Branch:
                assert rotated_parameters(m, br).lambda_t == 0.0

    def test_v_one_body_value(self):
        m = vee(mu12=1.0, mu13=1.0)
        rp = rotated_parameters(m, Branch.FIRST)
        assert rp.lambda_t == pytest.approx(0.1, abs=1e-12)
        assert rp.lambda_pair == (2, 3)

    def test_single_nonzero_rotated_coupling(self):
        rng = np.random.default_rng(5)
        for cfg in Configuration:
            for br in Branch:
                m = random_model(rng, cfg, na=1, nmax=2)
                rp = rotated_parameters(m, br)
                nonzero = [v for v in rp.mu_ts.values() if v != 0.0]
                assert len(nonzero) == 1
                assert nonzero[0] == pytest.approx(
                    np.hypot(*m.plane_couplings), rel=1e-14
                )

    def test_undefined_at_origin(self):
        with pytest.raises(UndefinedAngleError):
            rotated_parameters(xi(mu12=0.0, mu23=0.0), Branch.FIRST)


class TestRotatedHamiltonian:
    @pytest.mark.parametrize("cfg", list(Configuration))
    @pytest.mark.parametrize("branch", list(Branch))
    def test_matches_similarity_transform(self, cfg, branch):
        rng = np.random.default_rng(zlib.crc32(f"{cfg.value}/{branch.value}".encode()))
        models = [random_model(rng, cfg, na=2, nmax=10) for _ in range(5)]
        # edge cases random_model never draws: equal frequencies on the
        # forbidden pair (levels lo+1..hi lowered to omega_lo), all levels
        # degenerate, and one plane coupling zero
        m, (lo, hi) = models[0], cfg.forbidden_pair
        om = list(m.omegas)
        om[lo:hi] = [om[lo - 1]] * (hi - lo)
        mu_a, mu_b = m.plane_couplings
        models += [
            dataclasses.replace(m, omega1=om[0], omega2=om[1], omega3=om[2]),
            dataclasses.replace(m, omega1=m.omega2, omega3=m.omega2),
            with_couplings(m, mu_a, 0.0),
            with_couplings(m, 0.0, mu_b),
        ]
        assert models[5].equal_detuning()
        for m in models:
            b = enumerate_basis(m.na, m.nmax)
            H = build_hamiltonian(m, b).matrix
            Hp = build_hamiltonian(m, b, branch).matrix
            U = rotation_matrix(m.cfg, decoupling_angle(m, branch), b).matrix
            assert np.max(np.abs(Hp - U @ H @ U.T)) < 1e-10

    def test_eliminated_coupling_is_zero(self):
        # the rotated frame carries no coupling on the cancelled pair
        m = xi(mu12=0.7, mu23=1.3, nmax=6)
        b = enumerate_basis(1, 6)
        Hp = build_hamiltonian(m, b, Branch.FIRST).matrix
        # <1;0,0,1|H'|0;0,1,0>: photon +1 with a 2->3 transition
        i = index_of(b, BasisState(1, 0, 0, 1))
        j = index_of(b, BasisState(0, 0, 1, 0))
        assert Hp[i, j] == 0.0

    def test_lambda_equal_detuning_has_no_one_body_element(self):
        m = lam(nmax=3)
        b = enumerate_basis(1, 3)
        Hp = build_hamiltonian(m, b, Branch.FIRST).matrix
        i = index_of(b, BasisState(0, 1, 0, 0))
        j = index_of(b, BasisState(0, 0, 1, 0))
        assert Hp[i, j] == 0.0

    def test_isospectral_both_branches(self):
        rng = np.random.default_rng(17)
        for cfg in Configuration:
            m = random_model(rng, cfg, na=2, nmax=12)
            b = enumerate_basis(m.na, m.nmax)
            e0 = np.linalg.eigvalsh(build_hamiltonian(m, b).matrix)
            for br in Branch:
                e1 = np.linalg.eigvalsh(build_hamiltonian(m, b, br).matrix)
                assert np.max(np.abs(e0 - e1)) < 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(list(Configuration)),
        st.sampled_from(list(Branch)),
        st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0)), min_size=3, max_size=3),
        st.integers(1, 3),
        st.integers(0, 12),
        st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
        st.floats(0.05, 2.0),
        st.booleans(),
    )
    def test_rotation_keeps_spectrum(self, cfg, branch, omegas, na, nmax, mu, mu_other, swap):
        # one plane coupling may vanish, never both: the angle needs one
        couplings = (mu_other, mu) if swap else (mu, mu_other)
        m = with_couplings(ModelConfig(cfg, *sorted(omegas), 0.0, 0.0, 0.0, na=na, nmax=nmax), *couplings)
        b = enumerate_basis(na, nmax)
        e0 = np.linalg.eigvalsh(build_hamiltonian(m, b).matrix)
        e1 = np.linalg.eigvalsh(build_hamiltonian(m, b, branch).matrix)
        assert np.max(np.abs(e0 - e1)) < 1e-12 * max(1.0, np.max(np.abs(e0)))

    def test_commutes_with_isolated_population_at_equal_detuning(self):
        m = lam(na=2, nmax=8)
        b = enumerate_basis(2, 8)
        Hp = build_hamiltonian(m, b, Branch.FIRST).matrix
        rp = rotated_parameters(m, Branch.FIRST)
        A_iso = collective_A(b, rp.isolated_level, rp.isolated_level).matrix
        assert np.max(np.abs(Hp @ A_iso - A_iso @ Hp)) < 1e-12


class TestEffectiveTwoLevel:
    def test_all_frozen_is_pure_field(self):
        m = lam(na=2, nmax=5)
        h = build_effective_two_level(m, Branch.FIRST, 2)  # branch FIRST isolates level 1
        rp = rotated_parameters(m, Branch.FIRST)
        expected = np.diag(np.arange(6) * m.Omega + rp.omega_ts[0] * 2)
        assert np.allclose(h, expected, atol=1e-12)

    @pytest.mark.parametrize("model", [
        lam(na=2, nmax=5), lam(na=3, nmax=4, omega2=0.4), vee(na=2, nmax=5),
        vee(na=3, nmax=4, omega2=1.0), xi(na=2, nmax=5),
    ])
    @pytest.mark.parametrize("branch", list(Branch))
    def test_matches_restricted_dense_oracle(self, model, branch):
        # equal and unequal detuning: the block never holds the one-body term
        for n_fixed in range(model.na + 1):
            h = build_effective_two_level(model, branch, n_fixed)
            expected = effective_two_level_block(model, branch, n_fixed)
            assert h.shape == ((model.nmax + 1) * (model.na - n_fixed + 1),) * 2
            assert np.max(np.abs(h - expected)) < 1e-12

    def test_effective_coupling_dilution(self):
        m = lam(na=4, nmax=5)
        rho = np.hypot(0.6, 0.8)
        assert effective_coupling(m, Branch.FIRST, 0) == 0.0
        assert effective_coupling(m, Branch.FIRST, 4) == pytest.approx(rho, rel=1e-14)
        assert effective_coupling(m, Branch.FIRST, 1) == pytest.approx(
            rho / 2.0, rel=1e-14
        )

    def test_ground_energy_matches_full_rotated_at_zero_one_body(self):
        m = lam(na=2, nmax=16)
        b = enumerate_basis(2, 16)
        full = np.linalg.eigvalsh(
            build_hamiltonian(m, b, Branch.FIRST).matrix
        )[0]
        block = np.linalg.eigvalsh(build_effective_two_level(m, Branch.FIRST, 0))[0]
        assert full == pytest.approx(block, abs=1e-10)

    def test_rejects_fixed_occupation_out_of_range(self):
        m = lam(na=2, nmax=4)
        for n_fixed in (-1, 3):
            with pytest.raises(ValueError, match="fixed occupation"):
                build_effective_two_level(m, Branch.FIRST, n_fixed)


def test_with_couplings_maps_plane_order():
    m = with_couplings(lam(), 0.25, 0.5)
    # lambda plane order is (mu23, mu13)
    assert m.mu23 == 0.25 and m.mu13 == 0.5
    m2 = with_couplings(xi(), 0.25, 0.5)
    assert m2.mu12 == 0.25 and m2.mu23 == 0.5
