import numpy as np
import pytest

from dicke3.basis import (
    BasisState,
    DimensionLimitError,
    atomic_occupations,
    basis_dimension,
    enumerate_basis,
    index_of,
)


def test_single_atom_no_photons():
    b = enumerate_basis(1, 0)
    assert b.states == (
        BasisState(0, 1, 0, 0),
        BasisState(0, 0, 1, 0),
        BasisState(0, 0, 0, 1),
    )


def test_dimension_examples():
    assert enumerate_basis(4, 60).dim == 61 * 15 == 915
    b = enumerate_basis(2, 1)
    assert b.dim == 12
    assert b.states[0] == BasisState(0, 2, 0, 0)
    assert b.states[-1] == BasisState(1, 0, 0, 2)


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
    for i, s in enumerate(b.states):
        assert index_of(b, s) == i


def test_index_rejects_foreign_state():
    b = enumerate_basis(2, 3)
    with pytest.raises(ValueError):
        index_of(b, BasisState(0, 1, 0, 0))  # wrong atom count
    with pytest.raises(ValueError):
        index_of(b, BasisState(4, 2, 0, 0))  # photon beyond cutoff


def test_enumeration_is_stable():
    a = enumerate_basis(3, 9)
    b = enumerate_basis(3, 9)
    assert a.states == b.states
    assert np.array_equal(a.photon_numbers, b.photon_numbers)
    assert np.array_equal(a.level_counts, b.level_counts)


def test_occupation_arrays_match_states():
    b = enumerate_basis(2, 4)
    for i, s in enumerate(b.states):
        assert b.photon_numbers[i] == s.nu
        assert tuple(b.level_counts[i]) == (s.n1, s.n2, s.n3)


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


def test_atomic_occupations_order():
    occs = atomic_occupations(2)
    assert occs == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
