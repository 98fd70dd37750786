import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicke3 as d3
from dicke3.basis import enumerate_basis
from dicke3.model import ModelConfig
from dicke3.operators import Configuration, boson_create, collective_A
from dicke3.rotations import (
    Branch,
    RotationSpec,
    UndefinedAngleError,
    decoupling_angle,
    generator_K,
    plane_rotation,
    rotate_amplitudes,
    rotation_matrix,
    rotation_pair,
    transform_exact,
    transform_generator_closed_form,
)

PAIRS = ((3, 1), (1, 2), (3, 2))


def test_defining_representation():
    b = enumerate_basis(1, 0)
    K12 = generator_K(b, 1, 2).matrix
    assert np.array_equal(K12, np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]]))


def test_antisymmetry_exact():
    b = enumerate_basis(2, 2)
    for j, k in PAIRS:
        K = generator_K(b, j, k).matrix
        assert np.array_equal(K.T, -K)
        assert np.array_equal(generator_K(b, k, j).matrix, -K)
    with pytest.raises(ValueError):
        generator_K(b, 2, 2)


def test_rotation_identity_and_inverse():
    b = enumerate_basis(2, 3)
    assert np.allclose(rotation_matrix(RotationSpec(1, 2, 0.0), b).matrix, np.eye(b.dim), atol=1e-15)
    U = rotation_matrix(RotationSpec(3, 1, 0.37), b).matrix
    V = rotation_matrix(RotationSpec(3, 1, -0.37), b).matrix
    assert np.max(np.abs(U @ V - np.eye(b.dim))) < 1e-12


def test_orthogonality():
    rng = np.random.default_rng(2)
    b = enumerate_basis(3, 4)
    for j, k in PAIRS:
        for alpha in rng.uniform(-np.pi, np.pi, 4):
            U = rotation_matrix(RotationSpec(j, k, float(alpha)), b).matrix
            assert np.max(np.abs(U @ U.T - np.eye(b.dim))) < 1e-12


def test_half_turn_flips_the_plane():
    b = enumerate_basis(1, 0)
    U = rotation_matrix(RotationSpec(1, 2, np.pi), b).matrix
    assert np.allclose(U[:2, :2], -np.eye(2), atol=1e-12)
    assert U[2, 2] == pytest.approx(1.0, abs=1e-12)


def test_commutes_with_photon_number():
    b = enumerate_basis(2, 3)
    n_op = boson_create(b).matrix @ boson_create(b).matrix.T
    U = rotation_matrix(RotationSpec(1, 2, 0.81), b).matrix
    assert np.max(np.abs(U @ n_op - n_op @ U)) == 0.0


def test_preserves_total_atom_number():
    b = enumerate_basis(2, 2)
    total = sum(collective_A(b, j, j).matrix for j in (1, 2, 3))
    U = rotation_matrix(RotationSpec(3, 2, -1.1), b).matrix
    assert np.max(np.abs(U @ total @ U.T - total)) < 1e-12


class TestClosedForms:
    @pytest.mark.parametrize("pair", PAIRS)
    def test_matches_exponential_oracle(self, pair):
        rng = np.random.default_rng(sum(pair))
        b = enumerate_basis(2, 2)
        for alpha in rng.uniform(-np.pi, np.pi, 6):
            spec = RotationSpec(*pair, float(alpha))
            for l in (1, 2, 3):
                for m in (1, 2, 3):
                    closed = transform_generator_closed_form(spec, l, m, b).matrix
                    exact = transform_exact(spec, collective_A(b, l, m), b).matrix
                    assert np.max(np.abs(closed - exact)) < 1e-12

    def test_identity_rotation_is_transparent(self):
        b = enumerate_basis(1, 1)
        spec = RotationSpec(1, 2, 0.0)
        for l in (1, 2, 3):
            for m in (1, 2, 3):
                out = transform_generator_closed_form(spec, l, m, b).matrix
                assert np.array_equal(out, collective_A(b, l, m).matrix)

    def test_quarter_turn_swaps_populations(self):
        b = enumerate_basis(1, 0)
        spec = RotationSpec(1, 2, np.pi / 2)
        out = transform_generator_closed_form(spec, 1, 1, b).matrix
        assert np.allclose(out, collective_A(b, 2, 2).matrix, atol=1e-12)

    def test_preserves_total_population(self):
        b = enumerate_basis(2, 1)
        spec = RotationSpec(3, 1, 0.93)
        total = sum(
            transform_generator_closed_form(spec, j, j, b).matrix for j in (1, 2, 3)
        )
        assert np.max(np.abs(total - b.na * np.eye(b.dim))) < 1e-12

    def test_composition(self):
        b = enumerate_basis(1, 1)
        a1, a2 = 0.31, -0.77
        for l in (1, 2, 3):
            for m in (1, 2, 3):
                once = transform_generator_closed_form(
                    RotationSpec(1, 2, a1 + a2), l, m, b
                ).matrix
                inner = transform_generator_closed_form(RotationSpec(1, 2, a2), l, m, b)
                # rotate the rotated operator again by a1
                U1 = rotation_matrix(RotationSpec(1, 2, a1), b).matrix
                twice = U1 @ inner.matrix @ U1.T
                assert np.max(np.abs(once - twice)) < 1e-11


def test_transform_exact_basics():
    b = enumerate_basis(1, 1)
    spec = RotationSpec(1, 2, 0.4)
    eye = d3.OperatorMatrix(np.eye(b.dim), hermitian=True)
    assert np.max(np.abs(transform_exact(spec, eye, b).matrix - np.eye(b.dim))) < 1e-14
    K = generator_K(b, 1, 2)
    assert np.max(np.abs(transform_exact(spec, K, b).matrix - K.matrix)) < 1e-13


class TestDecouplingAngle:
    def test_xi_first_diagonal(self):
        m = ModelConfig(Configuration.XI, 0, 1, 2, mu12=1.0, mu13=0.0, mu23=1.0, na=1, nmax=2)
        assert decoupling_angle(m, Branch.FIRST) == pytest.approx(np.pi / 4)

    def test_lambda_second_zero(self):
        m = ModelConfig(
            Configuration.LAMBDA, 0, 0, 1, mu12=0.0, mu13=1.0, mu23=0.0, na=1, nmax=2
        )
        assert decoupling_angle(m, Branch.SECOND) == pytest.approx(0.0, abs=1e-15)

    def test_v_second_minus_pi_over_six(self):
        m = ModelConfig(
            Configuration.V, 0, 0, 1, mu12=1.0, mu13=np.sqrt(3), mu23=0.0, na=1, nmax=2
        )
        assert decoupling_angle(m, Branch.SECOND) == pytest.approx(-np.pi / 6)

    def test_undefined_angle(self):
        m = ModelConfig(Configuration.XI, 0, 1, 2, mu12=0.0, mu13=0.0, mu23=0.0, na=1, nmax=2)
        with pytest.raises(UndefinedAngleError):
            decoupling_angle(m, Branch.FIRST)

    def test_cancels_the_right_coupling(self):
        # with the decoupling angle, the rotated frame coefficient on the
        # cancelled pair of U H U^T vanishes
        rng = np.random.default_rng(23)
        from conftest import random_model

        for cfg in Configuration:
            m = random_model(rng, cfg, na=1, nmax=6)
            b = enumerate_basis(1, 6)
            H = d3.build_hamiltonian(m, b).matrix
            for br in Branch:
                U = d3.decoupling_rotation(m, br, b).matrix
                Hrot = U @ H @ U.T
                rp = d3.rotated_parameters(m, br)
                dead_pairs = [p for p, v in rp.mu_ts.items() if v == 0.0]
                x = boson_create(b).matrix + boson_create(b).matrix.T
                for p in dead_pairs:
                    pair_op = collective_A(b, *p).matrix + collective_A(b, p[1], p[0]).matrix
                    # project the coupling coefficient: tr(Hrot (x pair_op)) over norm
                    probe = x @ pair_op
                    coeff = np.sum(Hrot * probe) / np.sum(probe * probe)
                    assert abs(coeff) < 1e-12


def test_rotation_pair_table():
    assert rotation_pair(Configuration.XI) == (3, 1)
    assert rotation_pair(Configuration.LAMBDA) == (1, 2)
    assert rotation_pair(Configuration.V) == (3, 2)
    for cfg in Configuration:
        assert cfg.forbidden_pair == tuple(sorted(rotation_pair(cfg)))


@st.composite
def rotated_states(draw):
    """Configuration, angle, basis and normalized complex amplitudes."""
    cfg = draw(st.sampled_from(list(Configuration)))
    alpha = draw(st.floats(-2 * np.pi, 2 * np.pi))
    b = enumerate_basis(draw(st.integers(1, 3)), draw(st.integers(0, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
    return cfg, alpha, b, amps / np.linalg.norm(amps)


class TestRotateAmplitudes:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rotated_states())
    def test_matches_dense_rotation(self, case):
        cfg, alpha, b, amps = case
        out = rotate_amplitudes(cfg, alpha, amps, b)
        dense = plane_rotation(cfg, alpha, b).matrix @ amps
        assert np.max(np.abs(out - dense)) < 1e-13
        # scipy's expm factor is orthogonal only to about 1e-14 |alpha| ||K||:
        # up to 2.2e-13 in 3000 draws with |alpha| <= 2 pi and na <= 3
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        back = rotate_amplitudes(cfg, -alpha, out, b)
        assert np.max(np.abs(back - amps)) < 1e-12
        # leading axes are independent states
        stacked = rotate_amplitudes(cfg, alpha, np.stack([amps, amps.conj()]), b)
        assert np.max(np.abs(stacked - np.stack([out, out.conj()]))) < 1e-15

    def test_rejects_wrong_length(self):
        b = enumerate_basis(2, 3)
        with pytest.raises(ValueError):
            rotate_amplitudes(Configuration.XI, 0.3, np.ones(b.dim + 1), b)
