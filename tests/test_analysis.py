import zlib

import numpy as np
import pytest

import dicke3 as d3
from dicke3.analysis import (
    LineSweep,
    dalpha_dmu,
    fidelity,
    fidelity_rot_second_order,
    fidelity_rotated_exact,
    phase_diagram,
    ray_pencil,
    scan_line,
    scan_ray,
    separatrix_lambda,
    separatrix_v,
    separatrix_xi,
)
from dicke3.basis import enumerate_basis
from dicke3.model import ModelConfig, coupling_name, with_couplings
from dicke3.operators import Configuration
from dicke3.rotations import Branch, UndefinedAngleError, decoupling_angle, rotation_pair
from dicke3.solver import QuantumState, ground_state

from conftest import random_model


def xi_resonant(na=1, nmax=8, mu12=0.0, mu23=0.0):
    return ModelConfig(
        Configuration.XI, 0.0, 1.0, 2.0, mu12=mu12, mu13=0.0, mu23=mu23, na=na, nmax=nmax
    )


class TestFidelity:
    def test_self_and_orthogonal(self):
        b = enumerate_basis(1, 2)
        e0 = np.zeros(b.dim, dtype=complex)
        e0[0] = 1.0
        e1 = np.zeros(b.dim, dtype=complex)
        e1[4] = 1.0
        s0, s1 = QuantumState(e0, b), QuantumState(e1, b)
        assert fidelity(s0, s0) == 1.0
        assert fidelity(s0, s1) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        b = enumerate_basis(1, 4)
        v1 = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        v2 = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        s1 = QuantumState(v1 / np.linalg.norm(v1), b)
        s2 = QuantumState(v2 / np.linalg.norm(v2), b)
        assert fidelity(s1, s2) == fidelity(s2, s1)

    def test_local_minimum_near_transition(self):
        m = xi_resonant(nmax=24)
        b = enumerate_basis(1, 24)
        grounds = [
            ground_state(d3.build_hamiltonian(with_couplings(m, mu, 0.0), b), b)
            for mu in (0.47, 0.49, 0.51, 0.53)
        ]
        fids = [fidelity(grounds[i], grounds[i + 1]) for i in range(3)]
        assert min(fids) <= min(fids[0], fids[-1])

    def test_basis_mismatch(self):
        b1, b2 = enumerate_basis(1, 2), enumerate_basis(1, 3)
        v1 = np.zeros(b1.dim, dtype=complex)
        v1[0] = 1
        v2 = np.zeros(b2.dim, dtype=complex)
        v2[0] = 1
        with pytest.raises(ValueError):
            fidelity(QuantumState(v1, b1), QuantumState(v2, b2))


class TestAngleDerivatives:
    def test_xi_example(self):
        val = dalpha_dmu(Configuration.XI, "mu12", (1.0, 1.0))
        assert val == pytest.approx(-0.5, abs=1e-15)

    def test_v_example(self):
        val = dalpha_dmu(Configuration.V, "mu13", (1.0, 0.0))
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_undefined_at_origin(self):
        with pytest.raises(UndefinedAngleError):
            dalpha_dmu(Configuration.XI, "mu12", (0.0, 0.0))

    def test_rejects_forbidden_coupling(self):
        with pytest.raises(ValueError):
            dalpha_dmu(Configuration.XI, "mu13", (1.0, 1.0))

    @pytest.mark.parametrize("cfg", list(Configuration))
    @pytest.mark.parametrize("branch", list(Branch))
    def test_matches_finite_differences(self, cfg, branch):
        rng = np.random.default_rng(zlib.crc32(f"{cfg.value}/{branch.value}".encode()))
        h = 1e-5
        names = [coupling_name(p) for p in cfg.allowed_pairs]
        for _ in range(100):
            pair = tuple(rng.uniform(0.1, 2.0, 2))
            for which in names:
                idx = names.index(which)

                def angle(value):
                    vals = list(pair)
                    vals[idx] = value
                    m = _model_with(cfg, dict(zip(names, vals)))
                    return decoupling_angle(m, branch)

                fd = (angle(pair[idx] + h) - angle(pair[idx] - h)) / (2 * h)
                table = dalpha_dmu(cfg, which, pair)
                assert abs(table - fd) < 1e-6 * max(abs(table), 1e-12)


def _model_with(cfg, mus):
    full = {"mu12": 0.0, "mu13": 0.0, "mu23": 0.0}
    full.update(mus)
    return ModelConfig(cfg, 0.0, 0.5, 1.0, na=1, nmax=2, **full)


class TestSecondOrderFidelity:
    def _states(self, mu12, dmu, nmax=20):
        m = xi_resonant(nmax=nmax, mu23=0.7)
        b = enumerate_basis(1, nmax)
        s1 = ground_state(d3.build_hamiltonian(with_couplings(m, mu12, 0.7), b), b)
        s2 = ground_state(d3.build_hamiltonian(with_couplings(m, mu12 + dmu, 0.7), b), b)
        return b, s1, s2

    def test_zero_angle_derivative_reduces_to_fidelity(self):
        b, s1, s2 = self._states(0.9, 0.01)
        K = d3.generator_K(b, *rotation_pair(Configuration.XI))
        out = fidelity_rot_second_order(s1, s2, K, 0.0, 0.01)
        assert out == pytest.approx(fidelity(s1, s2), abs=1e-14)

    def test_zero_step_gives_unity(self):
        b, s1, _ = self._states(0.9, 0.01)
        K = d3.generator_K(b, *rotation_pair(Configuration.XI))
        assert fidelity_rot_second_order(s1, s1, K, -0.3, 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_correction_term_value(self):
        # the implementation must equal its defining quadratic expression
        b, s1, s2 = self._states(0.8, 0.02)
        K = d3.generator_K(b, *rotation_pair(Configuration.XI))
        psi, psip = s1.amplitudes, s2.amplitudes
        o = np.vdot(psip, psi).real
        k1 = np.vdot(psip, K.matrix @ psi).real
        k2 = np.vdot(psip, K.matrix @ (K.matrix @ psi)).real
        da = -0.4
        expected = o**2 + (0.02 * da) ** 2 * (o * k2 + k1**2)
        got = fidelity_rot_second_order(s1, s2, K, da, 0.02)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_exact_oracle_difference_shrinks_with_step(self):
        # the residual against the exact rotated fidelity decreases with the
        # step (empirically ~ dmu^2: the expansion drops a symmetric cross
        # term 2 O dalpha <psi'|K|psi> whose bracket is itself O(dmu))
        mu12, mu23 = 0.9, 0.7
        m = xi_resonant(nmax=24, mu23=mu23)
        b = enumerate_basis(1, 24)
        K = d3.generator_K(b, *rotation_pair(Configuration.XI))
        s1 = ground_state(d3.build_hamiltonian(with_couplings(m, mu12, mu23), b), b)
        da_dmu = dalpha_dmu(Configuration.XI, "mu12", (mu12, mu23))
        residuals = []
        for dmu in (1e-2, 5e-3, 2.5e-3):
            s2 = ground_state(
                d3.build_hamiltonian(with_couplings(m, mu12 + dmu, mu23), b), b
            )
            approx = fidelity_rot_second_order(s1, s2, K, da_dmu, dmu)
            delta = decoupling_angle(
                with_couplings(m, mu12 + dmu, mu23), Branch.FIRST
            ) - decoupling_angle(with_couplings(m, mu12, mu23), Branch.FIRST)
            exact = fidelity_rotated_exact(s1, s2, Configuration.XI, delta)
            residuals.append(abs(exact - approx))
        assert residuals[0] > residuals[1] > residuals[2]
        assert 2.0 < residuals[0] / residuals[1] < 8.0

    def test_exact_oracle_at_zero_angle_change(self):
        b, s1, s2 = self._states(0.9, 0.01)
        assert fidelity_rotated_exact(s1, s2, Configuration.XI, 0.0) == pytest.approx(
            fidelity(s1, s2), abs=1e-13
        )


class TestScanRay:
    def test_normal_region_has_no_minima(self):
        sw = scan_ray(xi_resonant(), 0.0, 0.3, 0.02, keep_states=False)
        assert sw.minima == ()
        assert np.all(1.0 - sw.fidelities < 1e-3)

    def test_transition_detected_on_axis(self):
        sw = scan_ray(xi_resonant(), 0.0, 1.3, 0.01, keep_states=False)
        assert len(sw.minima) == 1
        assert 0.5 < sw.minima[0].s < 1.3
        assert sw.minima[0].mu_b == 0.0

    def test_fidelity_bounds_and_chi(self):
        sw = scan_ray(xi_resonant(), np.pi / 4, 0.8, 0.02, keep_states=False)
        assert np.all(sw.fidelities <= 1.0 + 1e-12)
        assert np.all(sw.fidelities >= 0.0)
        assert np.allclose(
            sw.susceptibilities, 2 * (1 - sw.fidelities) / 0.02**2, atol=0
        )

    def test_deterministic(self):
        a = scan_ray(xi_resonant(), 0.3, 0.6, 0.02, keep_states=False)
        b = scan_ray(xi_resonant(), 0.3, 0.6, 0.02, keep_states=False)
        assert np.array_equal(a.fidelities, b.fidelities)
        assert a.minima == b.minima

    def test_states_kept_on_request(self):
        sw = scan_ray(xi_resonant(), 0.0, 0.2, 0.05)
        assert len(sw.states) == len(sw.s_values)

    def test_rejects_bad_rays(self):
        with pytest.raises(ValueError):
            scan_ray(xi_resonant(), -0.2, 0.6, 0.02)
        with pytest.raises(ValueError):
            scan_ray(xi_resonant(), 0.0, 0.6, -0.01)


class TestPhaseDiagram:
    def test_worker_count_invariance(self):
        m = xi_resonant()
        thetas = ray_pencil(3)
        serial = phase_diagram(m, thetas, 1.1, 0.02, workers=1)
        parallel = phase_diagram(m, thetas, 1.1, 0.02, workers=2)
        assert serial.minima == parallel.minima
        for r1, r2 in zip(serial.rays, parallel.rays):
            assert np.array_equal(r1.fidelities, r2.fidelities)

    def test_loci_in_theta_order(self):
        m = xi_resonant()
        diagram = phase_diagram(m, ray_pencil(3), 1.1, 0.02)
        thetas = [locus.theta for locus in diagram.minima]
        assert thetas == sorted(thetas)

    def test_rotation_leaves_loci_in_place(self):
        m = xi_resonant()
        plain = phase_diagram(m, [0.5], 1.2, 0.01)
        rotated = phase_diagram(m, [0.5], 1.2, 0.01, rotated=Branch.FIRST)
        assert len(plain.minima) == len(rotated.minima) == 1
        assert abs(plain.minima[0].s - rotated.minima[0].s) <= 0.01

    @pytest.mark.parametrize(
        "cfg,omegas",
        [
            (Configuration.XI, (0.0, 1.0, 2.0)),
            (Configuration.LAMBDA, (0.0, 0.5, 1.0)),
            (Configuration.V, (0.0, 0.5, 1.0)),
        ],
    )
    def test_loci_frame_invariance_every_configuration(self, cfg, omegas):
        m = ModelConfig(cfg, *omegas, mu12=0.0, mu13=0.0, mu23=0.0, na=1, nmax=8)
        sweeps = [
            scan_ray(m, 0.7, 1.5, 0.02, rotated=fr, keep_states=False)
            for fr in (None, Branch.FIRST, Branch.SECOND)
        ]
        counts = {len(sw.minima) for sw in sweeps}
        assert counts == {len(sweeps[0].minima)} and sweeps[0].minima
        for ref, b1, b2 in zip(*(sw.minima for sw in sweeps)):
            assert abs(ref.s - b1.s) <= 0.02
            assert abs(ref.s - b2.s) <= 0.02

    def test_empty_pencil_rejected(self):
        with pytest.raises(ValueError):
            phase_diagram(xi_resonant(), [], 1.0, 0.02)


class TestScanLine:
    def test_matches_axis_ray(self):
        m = xi_resonant()
        line = scan_line(m, "mu12", 1.3, 0.01)
        ray = scan_ray(m, 0.0, 1.3, 0.01, keep_states=False)
        assert isinstance(line, LineSweep)
        assert np.array_equal(line.fidelities, ray.fidelities)
        assert line.minima == ray.minima and len(line.minima) == 1

    def test_unknown_coupling_rejected(self):
        with pytest.raises(ValueError):
            scan_line(xi_resonant(), "mu13", 1.0, 0.01)


class TestSeparatrices:
    def test_xi_axis_value(self):
        assert separatrix_xi(1.0, 1.0, 2.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_xi_flat_below_threshold(self):
        vals = [separatrix_xi(1.0, 1.0, 2.0, mu) for mu in (0.0, 0.3, 0.6)]
        assert vals[0] == vals[1] == vals[2]  # theta term inactive below sqrt(2)/2

    def test_xi_larger_gap_widens_normal_region(self):
        for mu23 in (0.0, 0.8, 1.2):
            lo = separatrix_xi(1.0, 1.0, 2.0, mu23)
            hi = separatrix_xi(1.0, 1.5, 2.0, mu23)
            assert hi > lo

    def test_xi_ends_where_budget_runs_out(self):
        assert separatrix_xi(1.0, 1.0, 2.0, 3.0) is None

    def test_xi_continuity_at_threshold(self):
        thr = np.sqrt(2.0) / 2.0
        below = separatrix_xi(1.0, 1.0, 2.0, thr - 1e-9)
        above = separatrix_xi(1.0, 1.0, 2.0, thr + 1e-9)
        assert abs(below - above) < 1e-7

    def test_v_circle_and_ellipse(self):
        for theta in (0.0, 0.6, np.pi / 2):
            assert separatrix_v(1.0, 1.0, 1.0, theta) == pytest.approx(0.5, abs=1e-14)
        assert separatrix_v(1.0, 0.5, 1.0, 0.0) == pytest.approx(
            np.sqrt(0.5) / 2, abs=1e-14
        )
        assert separatrix_v(1.0, 0.5, 1.0, np.pi / 2) == pytest.approx(0.5, abs=1e-14)

    def test_v_degenerate_ellipse_rejected(self):
        with pytest.raises(ValueError):
            separatrix_v(1.0, 0.0, 1.0, 0.3)

    def test_lambda_equal_detuning_circle(self):
        for mu23 in (0.0, 0.3, 0.45):
            mu13 = separatrix_lambda(1.0, 0.0, 1.0, mu23)
            assert mu13**2 + mu23**2 == pytest.approx(0.25, abs=1e-12)

    def test_lambda_detuned_mirrors_ladder_shape(self):
        assert separatrix_lambda(1.0, 0.5, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
        flat = [separatrix_lambda(1.0, 0.5, 1.0, mu) for mu in (0.0, 0.2, 0.3)]
        assert flat[0] == flat[1] == flat[2]

    def test_lambda_continuity_at_threshold(self):
        thr = np.sqrt(0.5) / 2.0
        below = separatrix_lambda(1.0, 0.5, 1.0, thr - 1e-9)
        above = separatrix_lambda(1.0, 0.5, 1.0, thr + 1e-9)
        assert abs(below - above) < 1e-7
