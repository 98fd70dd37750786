import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke3.basis import (
    BasisState,
    DimensionLimitError,
    atomic_occupations,
    basis_dimension,
    enumerate_basis,
    index_of,
)

from oracles import enumerated_states


def states_of(b):
    """The basis as a tuple of states, read from its occupation arrays."""
    return tuple(BasisState(nu, *occ) for nu, occ in zip(b.photon_numbers.tolist(), b.level_counts.tolist()))


def test_single_atom_no_photons():
    b = enumerate_basis(1, 0)
    assert states_of(b) == (
        BasisState(0, 1, 0, 0),
        BasisState(0, 0, 1, 0),
        BasisState(0, 0, 0, 1),
    )


def test_dimension_examples():
    assert enumerate_basis(4, 60).dim == 61 * 15 == 915
    b = enumerate_basis(2, 1)
    assert b.dim == 12
    assert states_of(b)[0] == BasisState(0, 2, 0, 0)
    assert states_of(b)[-1] == BasisState(1, 0, 0, 2)


@pytest.mark.parametrize("na", range(1, 7))
def test_dimension_formula(na):
    for nmax in range(0, 101, 7):
        assert basis_dimension(na, nmax) == (nmax + 1) * (na + 1) * (na + 2) // 2
    # spot-build a few and compare against the formula
    for nmax in (0, 3, 17):
        assert enumerate_basis(na, nmax).dim == basis_dimension(na, nmax)


def test_index_examples():
    assert index_of(enumerate_basis(1, 0), BasisState(0, 1, 0, 0)) == 0
    assert index_of(enumerate_basis(1, 1), BasisState(1, 1, 0, 0)) == 3
    assert index_of(enumerate_basis(2, 0), BasisState(0, 0, 0, 2)) == 5


def test_index_round_trip():
    b = enumerate_basis(3, 5)
    for i, s in enumerate(states_of(b)):
        assert index_of(b, s) == i


@settings(max_examples=60, deadline=None)
@given(na=st.integers(1, 12), nmax=st.integers(0, 20), data=st.data())
def test_index_formula_matches_enumeration(na, nmax, data):
    states, index = enumerated_states(na, nmax)
    b = enumerate_basis(na, nmax)
    assert states_of(b) == states
    assert [index_of(b, s) for s in states] == list(range(b.dim))
    nu, n1, n2, n3 = data.draw(st.sampled_from(states))
    foreign = data.draw(st.sampled_from([
        BasisState(-1 - nu, n1, n2, n3),
        BasisState(nmax + 1 + nu, n1, n2, n3),
        BasisState(nu, -1, n2, n3 + n1 + 1),  # right total, one count negative
        BasisState(nu, n1 + n2 + 1, -1, n3),
        BasisState(nu, n1 + n3 + 1, n2, -1),
        BasisState(nu, n1 + 1, n2, n3),  # one atom too many
        BasisState(nu, n1, n2, n3 - 1 - na),
    ]))
    assert foreign not in index
    with pytest.raises(ValueError, match="is not in the basis"):
        index_of(b, foreign)


def test_index_rejects_foreign_state():
    b = enumerate_basis(2, 3)
    with pytest.raises(ValueError):
        index_of(b, BasisState(0, 1, 0, 0))  # wrong atom count
    with pytest.raises(ValueError):
        index_of(b, BasisState(4, 2, 0, 0))  # photon beyond cutoff


def test_enumeration_is_stable():
    a = enumerate_basis(3, 9)
    b = enumerate_basis(3, 9)
    assert np.array_equal(a.photon_numbers, b.photon_numbers)
    assert np.array_equal(a.level_counts, b.level_counts)


def test_bases_compare_by_their_sizes():
    assert enumerate_basis(2, 3) == enumerate_basis(2, 3) != enumerate_basis(2, 4)
    assert enumerate_basis(2, 3) != enumerate_basis(3, 3)
    assert hash(enumerate_basis(2, 3)) == hash(enumerate_basis(2, 3))
    assert len({enumerate_basis(2, 3), enumerate_basis(2, 3), enumerate_basis(1, 3)}) == 2


def test_occupation_arrays_match_states():
    b = enumerate_basis(2, 4)
    states, _ = enumerated_states(2, 4)
    for i, s in enumerate(states):
        assert b.photon_numbers[i] == s.nu
        assert tuple(b.level_counts[i]) == (s.n1, s.n2, s.n3)
    assert b.photon_numbers.dtype == b.level_counts.dtype == np.int64
    assert not b.photon_numbers.flags.writeable and not b.level_counts.flags.writeable


def test_rejects_invalid_sizes():
    with pytest.raises(ValueError):
        enumerate_basis(0, 4)
    with pytest.raises(ValueError):
        enumerate_basis(2, -1)


def test_dimension_guard(monkeypatch):
    monkeypatch.setenv("DICKE3_MAX_DIM", "50")
    with pytest.raises(DimensionLimitError):
        enumerate_basis(2, 20)
    monkeypatch.setenv("DICKE3_MAX_DIM", "200")
    assert enumerate_basis(2, 20).dim == 126


def test_dimension_guard_names_a_bad_variable(monkeypatch):
    monkeypatch.setenv("DICKE3_MAX_DIM", "abc")
    with pytest.raises(ValueError, match="DICKE3_MAX_DIM must be an integer, got 'abc'"):
        enumerate_basis(1, 0)


def test_atomic_occupations_order():
    occs = atomic_occupations(2)
    assert occs.tolist() == [[2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]]
