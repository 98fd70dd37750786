import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicke3 as d3
from dicke3.basis import BasisState, enumerate_basis, index_of
from dicke3.model import ModelConfig, build_hamiltonian, with_couplings
from dicke3.operators import Configuration
from dicke3.protocol import (
    DetuningWarning,
    classical_bit,
    content_overlap,
    rabi_demo,
    retrieve,
    store,
)
from dicke3.rotations import Branch
from dicke3.solver import QuantumState, ground_state, populations

from oracles import rotation_matrix


def lam(na=2, nmax=24, mu13=0.6, mu23=0.8, omega2=0.0):
    return ModelConfig(
        Configuration.LAMBDA, 0.0, omega2, 1.0, mu12=0.0, mu13=mu13, mu23=mu23, na=na, nmax=nmax
    )


def vee(na=2, nmax=24, mu12=0.5, mu13=0.7, omega2=1.0):
    return ModelConfig(
        Configuration.V, 0.0, omega2, 1.0, mu12=mu12, mu13=mu13, mu23=0.0, na=na, nmax=nmax
    )


def _ground(m):
    b = enumerate_basis(m.na, m.nmax)
    return ground_state(build_hamiltonian(m, b), b)


class TestStore:
    @pytest.mark.parametrize("switch", ["store", "retrieve"])
    def test_peak_memory_is_a_few_state_vectors(self, switch):
        # The rotation acts on the atomic factor only, so no dim x dim array
        # is built; numpy reports its buffers to tracemalloc.
        m = lam(na=8, nmax=64)
        psi = _ground(m)
        if switch == "retrieve":
            psi, _ = store(m, psi)
        tracemalloc.start()
        try:
            _, content = (store if switch == "store" else retrieve)(m, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * psi.basis.dim * 16
        assert content.sector_weight == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m, detuned", [
        (lam(na=4, nmax=16), False),
        (lam(na=4, nmax=16, omega2=0.3), True),
        (vee(na=4, nmax=16), False),
        (vee(na=4, nmax=16, omega2=0.7), True),
    ], ids=["lambda-equal", "lambda-detuned", "v-equal", "v-detuned"])
    def test_matches_dense_rotation(self, m, detuned):
        psi = _ground(m)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stored, _ = store(m, psi)
            retrieved, _ = retrieve(m, stored)
        assert [w.category for w in caught] == [DetuningWarning] * (2 * detuned)
        a1 = d3.decoupling_angle(m, Branch.FIRST)
        a2 = d3.decoupling_angle(m, Branch.SECOND)
        U1 = rotation_matrix(m.cfg, a1, psi.basis).matrix
        U21 = rotation_matrix(m.cfg, a2 - a1, psi.basis).matrix
        assert np.max(np.abs(stored.amplitudes - U1 @ psi.amplitudes)) < 1e-13
        assert np.max(np.abs(retrieved.amplitudes - U21 @ stored.amplitudes)) < 1e-13

    def test_isolates_level_one_in_lambda(self):
        m = lam()
        stored, content = store(m, _ground(m))
        assert populations(stored)[0] < 1e-10
        assert content.isolated_level == 1
        assert content.pair == (2, 3)
        assert content.sector_weight == pytest.approx(1.0, abs=1e-10)
        assert not content.detuned

    def test_isolates_level_three_in_v(self):
        m = vee()
        stored, content = store(m, _ground(m))
        assert populations(stored)[2] < 1e-10
        assert content.isolated_level == 3
        assert content.pair == (1, 2)

    def test_stored_state_is_rotated_frame_ground_state(self):
        m = lam(na=1)
        b = enumerate_basis(m.na, m.nmax)
        stored, _ = store(m, _ground(m))
        direct = ground_state(build_hamiltonian(m, b, Branch.FIRST), b)
        overlap = abs(np.vdot(stored.amplitudes, direct.amplitudes)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_zero_transverse_coupling_is_identity(self):
        m = lam(mu13=0.0)
        g = _ground(m)
        stored, _ = store(m, g)
        assert np.max(np.abs(stored.amplitudes - g.amplitudes)) < 1e-12

    def test_ladder_rejected(self):
        m = ModelConfig(
            Configuration.XI, 0.0, 1.0, 2.0, mu12=0.5, mu13=0.0, mu23=0.3, na=1, nmax=8
        )
        with pytest.raises(ValueError):
            store(m, _ground(m))

    def test_off_detuning_warns_but_stays_small(self):
        m = vee(omega2=0.8, na=1)  # 20% gap between the upper levels
        with pytest.warns(DetuningWarning):
            stored, content = store(m, _ground(m))
        assert content.detuned
        assert content.isolated_population <= 5e-4
        assert populations(stored)[2] <= 5e-4

    def test_norm_preserved(self):
        m = lam(na=3)
        stored, _ = store(m, _ground(m))
        assert np.linalg.norm(stored.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestRetrieve:
    @pytest.mark.parametrize("make", [lam, vee])
    def test_round_trip_unit_overlap(self, make):
        m = make()
        stored, c_in = store(m, _ground(m))
        retrieved, c_out = retrieve(m, stored)
        assert content_overlap(c_in, c_out) > 1 - 1e-10
        assert c_out.pair == (1, 3)
        assert c_out.isolated_level == 2
        assert populations(retrieved)[1] < 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([Configuration.LAMBDA, Configuration.V]),
        st.floats(0.0, 2.0),
        st.integers(1, 3),
        st.integers(4, 16),
        st.floats(0.05, 1.5),
        st.floats(0.05, 1.5),
    )
    def test_round_trip_keeps_content(self, cfg, w, na, nmax, mu_a, mu_b):
        # equal detuning: the forbidden pair, (1, 2) or (2, 3), shares a frequency
        omegas = (0.0, 0.0, w) if cfg is Configuration.LAMBDA else (0.0, w, w)
        m = with_couplings(ModelConfig(cfg, *omegas, 0.0, 0.0, 0.0, na=na, nmax=nmax), mu_a, mu_b)
        assert m.equal_detuning()
        stored, c_in = store(m, _ground(m))
        _, c_out = retrieve(m, stored)
        assert content_overlap(c_in, c_out) > 1 - 1e-10

    def test_sector_mapping(self):
        # the stored frame's empty level maps onto the retrieved frame's
        # empty level: weight outside the retrieved sector stays negligible
        m = lam(na=3)
        stored, _ = store(m, _ground(m))
        retrieved, content = retrieve(m, stored)
        assert content.sector_weight == pytest.approx(1.0, abs=1e-10)

    def test_composed_rotation_equals_angle_sum(self):
        m = lam(na=1)
        b = enumerate_basis(m.na, m.nmax)
        a1 = d3.decoupling_angle(m, Branch.FIRST)
        a2 = d3.decoupling_angle(m, Branch.SECOND)
        U1 = rotation_matrix(m.cfg, a1, b).matrix
        U21 = rotation_matrix(m.cfg, a2 - a1, b).matrix
        U2 = rotation_matrix(m.cfg, a2, b).matrix
        assert np.max(np.abs(U21 @ U1 - U2)) < 1e-12

    def test_frame_switch_spans_quarter_turn(self):
        # the two decoupling angles always differ by a quarter turn, which is
        # what swaps the roles of the two qubit level pairs
        m = lam()
        a1 = d3.decoupling_angle(m, Branch.FIRST)
        a2 = d3.decoupling_angle(m, Branch.SECOND)
        assert a1 - a2 == pytest.approx(np.pi / 2, abs=1e-14)


class TestVRotationLocality:
    def test_lowest_level_population_untouched(self):
        # the V-frame rotation mixes only the two upper levels
        m = vee(omega2=0.8, na=1)
        g = _ground(m)
        p0 = populations(g)
        with pytest.warns(DetuningWarning):
            stored, _ = store(m, g)
            retrieved, _ = retrieve(m, stored)
        assert abs(populations(stored)[0] - p0[0]) < 1e-12
        assert abs(populations(retrieved)[0] - p0[0]) < 1e-12


class TestClassicalBit:
    def test_reads_zero_on_isolated_level(self):
        m = lam()
        stored, _ = store(m, _ground(m))
        assert classical_bit(stored, 1) == 0

    def test_reads_one_on_occupied_level(self):
        b = enumerate_basis(1, 2)
        amps = np.zeros(b.dim, dtype=complex)
        amps[index_of(b, BasisState(0, 0, 1, 0))] = 1.0
        assert classical_bit(QuantumState(amps, b), 2) == 1

    def test_monotone_in_threshold(self):
        m = lam(na=1)
        stored, _ = store(m, _ground(m))
        bits = [classical_bit(stored, 3, th) for th in (1e-8, 1e-4, 0.5)]
        assert bits == sorted(bits, reverse=True)

    def test_threshold_validation(self):
        m = lam(na=1)
        stored, _ = store(m, _ground(m))
        with pytest.raises(ValueError):
            classical_bit(stored, 2, threshold=1.5)


class TestRabiDemo:
    def _series(self, nu0=0):
        m = lam(na=1, nmax=16, mu13=0.3, mu23=0.4)
        return rabi_demo(m, nu0, np.linspace(0.0, 20.0, 81))

    def test_initial_populations(self):
        series = self._series()
        assert np.allclose(series.stored[0, :3], [0.0, 0.0, 1.0], atol=1e-12)

    def test_isolated_level_silent(self):
        series = self._series()
        assert np.max(series.stored[:, 0]) < 1e-10

    def test_population_sum_rule_with_frozen_level(self):
        series = self._series()
        total = series.stored[:, 1] + series.stored[:, 2]
        assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_switched_frame_silences_second_level(self):
        series = self._series()
        assert np.max(series.switched[:, 1]) < 1e-10

    def test_oscillation_actually_happens(self):
        series = self._series()
        assert np.ptp(series.stored[:, 2]) > 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            rabi_demo(vee(na=1), 0, [0.0, 1.0])
        with pytest.raises(ValueError):
            rabi_demo(lam(na=2), 0, [0.0, 1.0])
        with pytest.raises(ValueError):
            rabi_demo(lam(na=1, omega2=0.2), 0, [0.0, 1.0])
        with pytest.raises(ValueError):
            rabi_demo(lam(na=1, nmax=4), 99, [0.0, 1.0])
