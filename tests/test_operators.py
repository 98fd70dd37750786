import ast
from pathlib import Path

import numpy as np
import pytest

import dicke3 as d3
from dicke3 import solver
from dicke3.basis import BasisState, enumerate_basis, index_of
from dicke3.operators import (
    BlockHamiltonian,
    Configuration,
    OperatorMatrix,
    atomic_collective_matrix,
)

from conftest import random_model
from oracles import boson_annihilate, boson_create, collective_A, excitation_number, loop_collective_matrix, parity


def test_operator_matrix_contract():
    op = OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert op.dim == 2
    assert not op.matrix.flags.writeable
    with pytest.raises(ValueError, match="must be square"):
        OperatorMatrix(np.zeros((2, 3)))


def test_package_calls_no_kron():
    # Collective operators and rotations act on the atomic factor only; a
    # kron(photon, atomic) product would build a dim x dim array.
    calls = []
    for path in sorted(Path(d3.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "attr", getattr(func, "id", None)) == "kron":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def _coupling(entries) -> np.ndarray:
    """The 3 x 3 atomic coupling of one atom with the given {(a, b): c} entries."""
    out = np.zeros((3, 3))
    for (a, b), c in entries.items():
        out[a, b] = c
    return out


def test_sector_labels_contract():
    # Two photon blocks of one atom (three atomic states each); the coupling
    # joins atomic state 0 of block 0 to that of block 1, hop
    # 0.0 - (sqrt(1) * 0.5) / sqrt(1) = -0.5.  Equal labels: one sector.
    diagonal = np.array([0.0, 2.0, 2.0, 1.0, 2.0, 2.0])
    op = BlockHamiltonian(diagonal, None, _coupling({(0, 0): 0.5}), np.full(6, 2))
    assert op.dim == 6 and op.na == 1
    assert not op.sector_labels.flags.writeable and not op.coupling.flags.writeable
    want = np.diag(diagonal)
    want[0, 3] = want[3, 0] = -0.5
    assert np.array_equal(op.matrix, want)
    with pytest.raises(ValueError, match="sector labels"):
        BlockHamiltonian(np.zeros(6), None, _coupling({}), np.zeros(5, dtype=int))
    with pytest.raises(ValueError, match="sector labels"):  # not whole photon blocks
        BlockHamiltonian(np.zeros(4), None, _coupling({}), np.zeros(4, dtype=int))
    # An atomic block is (na + 1)(na + 2) / 2 square, na >= 1.
    for size in (1, 2, 4):
        with pytest.raises(ValueError, match="atomic block"):
            BlockHamiltonian(np.zeros(size), None, np.zeros((size, size)), np.zeros(size, dtype=int))
    # Different labels joined by the hop: its eigenvalues are -0.207 and
    # 1.207, not the diagonal's 0 and 1, so the labels are refused.
    split = np.array([0, 0, 0, 1, 0, 0])
    with pytest.raises(ValueError, match="joins states of different sector labels"):
        BlockHamiltonian(diagonal, None, _coupling({(0, 0): 0.5}), split)
    # A zero coupling entry (of either sign) joins nothing.
    BlockHamiltonian(diagonal, None, _coupling({(0, 0): -0.0}), split)
    # Within one photon block, the on-site term is checked the same way.
    on_site = _coupling({(0, 1): 0.3, (1, 0): 0.3})
    with pytest.raises(ValueError, match="joins states of different sector labels"):
        BlockHamiltonian(np.zeros(3), on_site, _coupling({}), np.array([0, 1, 1]))
    BlockHamiltonian(np.zeros(3), on_site, _coupling({}), np.array([1, 1, 0]))


def test_dense_view_places_transposed_hops_below_the_diagonal():
    # Two photon blocks of three atomic states, joined by an asymmetric
    # coupling: block (0, 1) is the hop and block (1, 0) its transpose, as
    # in the blocks the solver diagonalizes.
    op = BlockHamiltonian(np.arange(6.0), None, _coupling({(0, 1): -0.7}), np.zeros(6, dtype=int))
    assert np.array_equal(op.matrix, op.matrix.T)
    assert np.array_equal(op.matrix, solver._dense(op.upper_band(0)))
    assert op.matrix[0, 4] == op.matrix[4, 0] == 0.7


def test_atomic_matrices_cached_read_only():
    first = atomic_collective_matrix(3, 1, 2)
    assert atomic_collective_matrix(3, 1, 2) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    with pytest.raises(ValueError, match="level indices"):
        atomic_collective_matrix(3, 0, 2)


@pytest.mark.parametrize("na", range(1, 13))
def test_atomic_matrices_match_the_occupation_loop(na):
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            bits = atomic_collective_matrix(na, j, k).view(np.uint64)
            assert np.array_equal(bits, loop_collective_matrix(na, j, k).view(np.uint64))


def test_boson_create_elements():
    b = enumerate_basis(1, 1)
    ad = boson_create(b).matrix
    src = index_of(b, BasisState(0, 1, 0, 0))
    dst = index_of(b, BasisState(1, 1, 0, 0))
    assert ad[dst, src] == 1.0
    assert ad[:, index_of(b, BasisState(1, 0, 1, 0))].sum() == 0.0  # truncated top


def test_vacuum_annihilation():
    b = enumerate_basis(2, 3)
    a = boson_annihilate(b).matrix
    vacuum = b.photon_numbers == 0
    assert vacuum.sum() == b.atomic_dim
    assert not a[:, vacuum].any()


def test_sqrt_two_matrix_element():
    b = enumerate_basis(1, 3)
    ad = boson_create(b).matrix
    src = index_of(b, BasisState(1, 1, 0, 0))
    dst = index_of(b, BasisState(2, 1, 0, 0))
    assert ad[dst, src] == pytest.approx(np.sqrt(2), abs=1e-12)


def test_create_annihilate_transpose():
    b = enumerate_basis(2, 4)
    assert np.array_equal(boson_create(b).matrix.T, boson_annihilate(b).matrix)


def test_collective_number_and_transition():
    b = enumerate_basis(1, 0)
    a11 = collective_A(b, 1, 1).matrix
    s = index_of(b, BasisState(0, 1, 0, 0))
    assert a11[s, s] == 1.0
    a12 = collective_A(b, 1, 2).matrix
    assert a12[s, index_of(b, BasisState(0, 0, 1, 0))] == 1.0


def test_collective_two_atom_amplitude():
    # sqrt((n3+1) n1) = sqrt(2) when moving one of two atoms from level 1 to 3
    b = enumerate_basis(2, 0)
    a31 = collective_A(b, 3, 1).matrix
    src = index_of(b, BasisState(0, 2, 0, 0))
    dst = index_of(b, BasisState(0, 1, 0, 1))
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
    assert m_xi[index_of(b, BasisState(1, 0, 0, 1)), index_of(b, BasisState(1, 0, 0, 1))] == 3.0
    m_v = excitation_number(b, Configuration.V).matrix
    assert m_v[index_of(b, BasisState(0, 1, 0, 0)), index_of(b, BasisState(0, 1, 0, 0))] == 0.0
    m_l = excitation_number(b, Configuration.LAMBDA).matrix
    assert m_l[index_of(b, BasisState(2, 0, 1, 0)), index_of(b, BasisState(2, 0, 1, 0))] == 2.0


def test_parity_examples():
    b = enumerate_basis(1, 2)
    p_xi = parity(b, Configuration.XI).matrix
    assert p_xi[index_of(b, BasisState(1, 0, 0, 1)), index_of(b, BasisState(1, 0, 0, 1))] == -1.0
    for cfg in Configuration:
        p = parity(b, cfg).matrix
        i = index_of(b, BasisState(0, 1, 0, 0))
        assert p[i, i] == 1.0
    p_v = parity(b, Configuration.V).matrix
    i = index_of(b, BasisState(1, 0, 1, 0))
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
