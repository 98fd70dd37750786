import numpy as np
import pytest

import dicke3 as d3
from dicke3.basis import BasisState, enumerate_basis
from dicke3.operators import (
    Configuration,
    OperatorMatrix,
    boson_annihilate,
    atomic_collective_matrix,
    boson_create,
    collective_A,
    excitation_number,
    parity,
)

from conftest import random_model


def test_operator_matrix_contract():
    mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = OperatorMatrix(mat, hermitian=True)
    assert op.dim == 2
    with pytest.raises(ValueError):
        OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((2, 3)))


@pytest.mark.parametrize("dim", [3, 256, 257, 600])
def test_symmetry_check_matches_full_comparison(dim):
    # The check runs tile by tile; an asymmetric entry anywhere, in a
    # diagonal or an off-diagonal tile, must still be caught.
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim))
    sym = a + a.T
    assert OperatorMatrix(sym.copy(), hermitian=True).dim == dim
    for i, j in [(0, dim - 1), (dim - 1, dim // 2), (dim // 2, dim // 2 + 1)]:
        bad = sym.copy()
        bad[i, j] += 1e-300 if bad[i, j] == 0 else bad[i, j] * 1e-15
        assert not np.array_equal(bad, bad.T)
        with pytest.raises(ValueError, match="not symmetric"):
            OperatorMatrix(bad, hermitian=True)
    nan = sym.copy()
    nan[1, 1] = np.nan
    with pytest.raises(ValueError, match="not symmetric"):
        OperatorMatrix(nan, hermitian=True)
    signed = np.zeros((dim, dim))
    signed[0, dim - 1], signed[dim - 1, 0] = 0.0, -0.0
    OperatorMatrix(signed, hermitian=True)  # -0.0 == 0.0, as in array_equal


def test_parity_labels_contract():
    labels = np.array([0, 1])
    op = OperatorMatrix(np.eye(2), hermitian=True, parity_labels=labels)
    assert not op.parity_labels.flags.writeable
    with pytest.raises(ValueError, match="parity labels"):
        OperatorMatrix(np.eye(3), hermitian=True, parity_labels=labels)


def test_atomic_matrices_cached_read_only():
    first = atomic_collective_matrix(3, 1, 2)
    assert atomic_collective_matrix(3, 1, 2) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    with pytest.raises(ValueError, match="level indices"):
        atomic_collective_matrix(3, 0, 2)


def test_boson_create_elements():
    b = enumerate_basis(1, 1)
    ad = boson_create(b).matrix
    src = b.index[BasisState(0, 1, 0, 0)]
    dst = b.index[BasisState(1, 1, 0, 0)]
    assert ad[dst, src] == 1.0
    assert ad[:, b.index[BasisState(1, 0, 1, 0)]].sum() == 0.0  # truncated top


def test_vacuum_annihilation():
    b = enumerate_basis(2, 3)
    a = boson_annihilate(b).matrix
    for s in b.states:
        if s.nu == 0:
            assert not a[:, b.index[s]].any()


def test_sqrt_two_matrix_element():
    b = enumerate_basis(1, 3)
    ad = boson_create(b).matrix
    src = b.index[BasisState(1, 1, 0, 0)]
    dst = b.index[BasisState(2, 1, 0, 0)]
    assert ad[dst, src] == pytest.approx(np.sqrt(2), abs=1e-12)


def test_create_annihilate_transpose():
    b = enumerate_basis(2, 4)
    assert np.array_equal(boson_create(b).matrix.T, boson_annihilate(b).matrix)


def test_collective_number_and_transition():
    b = enumerate_basis(1, 0)
    a11 = collective_A(b, 1, 1).matrix
    s = b.index[BasisState(0, 1, 0, 0)]
    assert a11[s, s] == 1.0
    a12 = collective_A(b, 1, 2).matrix
    assert a12[s, b.index[BasisState(0, 0, 1, 0)]] == 1.0


def test_collective_two_atom_amplitude():
    # sqrt((n3+1) n1) = sqrt(2) when moving one of two atoms from level 1 to 3
    b = enumerate_basis(2, 0)
    a31 = collective_A(b, 3, 1).matrix
    src = b.index[BasisState(0, 2, 0, 0)]
    dst = b.index[BasisState(0, 1, 0, 1)]
    assert a31[dst, src] == pytest.approx(np.sqrt(2), abs=1e-15)


def test_su3_commutators():
    b = enumerate_basis(2, 2)
    ops = {(j, k): collective_A(b, j, k).matrix for j in (1, 2, 3) for k in (1, 2, 3)}
    eye = np.eye(b.dim)
    for (j, k), Ajk in ops.items():
        for (l, m), Alm in ops.items():
            comm = Ajk @ Alm - Alm @ Ajk
            expected = (l == k) * ops[(j, m)] - (j == m) * ops[(l, k)]
            assert np.max(np.abs(comm - expected)) < 1e-12
    total = ops[(1, 1)] + ops[(2, 2)] + ops[(3, 3)]
    assert np.max(np.abs(total - b.na * eye)) == 0.0


def test_excitation_number_examples():
    b = enumerate_basis(1, 2)
    m_xi = excitation_number(b, Configuration.XI).matrix
    assert m_xi[b.index[BasisState(1, 0, 0, 1)], b.index[BasisState(1, 0, 0, 1)]] == 3.0
    m_v = excitation_number(b, Configuration.V).matrix
    assert m_v[b.index[BasisState(0, 1, 0, 0)], b.index[BasisState(0, 1, 0, 0)]] == 0.0
    m_l = excitation_number(b, Configuration.LAMBDA).matrix
    assert m_l[b.index[BasisState(2, 0, 1, 0)], b.index[BasisState(2, 0, 1, 0)]] == 2.0


def test_parity_examples():
    b = enumerate_basis(1, 2)
    p_xi = parity(b, Configuration.XI).matrix
    assert p_xi[b.index[BasisState(1, 0, 0, 1)], b.index[BasisState(1, 0, 0, 1)]] == -1.0
    for cfg in Configuration:
        p = parity(b, cfg).matrix
        i = b.index[BasisState(0, 1, 0, 0)]
        assert p[i, i] == 1.0
    p_v = parity(b, Configuration.V).matrix
    i = b.index[BasisState(1, 0, 1, 0)]
    assert p_v[i, i] == 1.0


@pytest.mark.parametrize("cfg", list(Configuration))
def test_parity_commutes_with_hamiltonian(cfg):
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = random_model(rng, cfg, na=2, nmax=8)
        b = enumerate_basis(m.na, m.nmax)
        H = d3.build_hamiltonian(m, b).matrix
        P = parity(b, cfg).matrix
        assert np.max(np.abs(H @ P - P @ H)) < 1e-12


def test_configuration_labels():
    assert Configuration.from_label("LAMBDA") is Configuration.LAMBDA
    with pytest.raises(ValueError):
        Configuration.from_label("delta")
    assert Configuration.XI.forbidden_pair == (1, 3)
    assert Configuration.V.forbidden_pair == (2, 3)
    assert Configuration.LAMBDA.forbidden_pair == (1, 2)
