import dataclasses
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dicke3 as d3
from dicke3 import analysis, solver
from dicke3.analysis import (
    NOISE_FLOOR,
    SweepMinimum,
    _detect_minima,
    _ray_direction,
    dalpha_dmu,
    fidelity,
    fidelity_rot_second_order,
    fidelity_rotated_exact,
    phase_diagram,
    ray_pencil,
    separatrix_lambda,
    separatrix_v,
    separatrix_xi,
)
from dicke3.basis import enumerate_basis
from dicke3.model import ModelConfig, coupling_name, with_couplings
from dicke3.operators import BlockHamiltonian, Configuration
from dicke3.rotations import Branch, UndefinedAngleError, decoupling_angle
from dicke3.solver import QuantumState, ground_state

from conftest import framed_models, random_model
from oracles import affine_ray_ground_state, fidelity_susceptibility, generator_K


def _no_continuation(stack, x, active):
    """solver._continued finding nothing: every point is solved cold."""
    return np.full((len(stack), 2), np.inf), x


def _ray(config, theta, s_max, dmu, **kwargs):
    """The sweep of one ray: a pencil of one."""
    return phase_diagram(config, [theta], s_max, dmu, **kwargs).rays[0]


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
        out = fidelity_rot_second_order(s1, s2, Configuration.XI, 0.0, 0.01)
        assert out == pytest.approx(fidelity(s1, s2), abs=1e-14)

    def test_zero_step_gives_unity(self):
        b, s1, _ = self._states(0.9, 0.01)
        assert fidelity_rot_second_order(s1, s1, Configuration.XI, -0.3, 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_correction_term_value(self):
        # the implementation must equal its defining quadratic expression,
        # |<psi'|exp(dmu dalpha K)|psi>|^2 to second order in dmu dalpha
        b, s1, s2 = self._states(0.8, 0.02)
        K = generator_K(b, *Configuration.XI.rotation_plane)
        psi, psip = s1.amplitudes, s2.amplitudes
        o = np.vdot(psip, psi).real
        k1 = np.vdot(psip, K.matrix @ psi).real
        k2 = np.vdot(psip, K.matrix @ (K.matrix @ psi)).real
        da = -0.4
        expected = o**2 + 2 * o * (0.02 * da) * k1 + (0.02 * da) ** 2 * (o * k2 + k1**2)
        got = fidelity_rot_second_order(s1, s2, Configuration.XI, da, 0.02)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_exact_oracle_difference_shrinks_with_step(self):
        # the residual against the exact rotated fidelity shrinks like dmu^3,
        # so each halving divides it by about 8 (7.93, then 7.97, measured)
        mu12, mu23 = 0.9, 0.7
        m = xi_resonant(nmax=24, mu23=mu23)
        b = enumerate_basis(1, 24)
        s1 = ground_state(d3.build_hamiltonian(with_couplings(m, mu12, mu23), b), b)
        da_dmu = dalpha_dmu(Configuration.XI, "mu12", (mu12, mu23))
        residuals = []
        for dmu in (1e-2, 5e-3, 2.5e-3):
            s2 = ground_state(
                d3.build_hamiltonian(with_couplings(m, mu12 + dmu, mu23), b), b
            )
            approx = fidelity_rot_second_order(s1, s2, Configuration.XI, da_dmu, dmu)
            delta = decoupling_angle(
                with_couplings(m, mu12 + dmu, mu23), Branch.FIRST
            ) - decoupling_angle(with_couplings(m, mu12, mu23), Branch.FIRST)
            exact = fidelity_rotated_exact(s1, s2, Configuration.XI, delta)
            residuals.append(abs(exact - approx))
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 6.0 < coarse / fine < 10.0

    def test_exact_oracle_at_zero_angle_change(self):
        b, s1, s2 = self._states(0.9, 0.01)
        assert fidelity_rotated_exact(s1, s2, Configuration.XI, 0.0) == pytest.approx(
            fidelity(s1, s2), abs=1e-13
        )


class TestScanRay:
    def test_normal_region_has_no_minima(self):
        sw = _ray(xi_resonant(), 0.0, 0.3, 0.02)
        assert sw.minima == ()
        assert np.all(1.0 - sw.fidelities < 1e-3)

    def test_transition_detected_on_axis(self):
        sw = _ray(xi_resonant(), 0.0, 1.3, 0.01)
        assert len(sw.minima) == 1
        assert 0.5 < sw.minima[0].s < 1.3
        assert sw.minima[0].mu_b == 0.0

    def test_transition_detected_on_ordinate(self):
        # V at equal detuning, on the mu13 axis
        m = ModelConfig(Configuration.V, 0.0, 1.0, 1.0, mu12=0.0, mu13=0.0, mu23=0.0, na=1, nmax=8)
        (minimum,) = _ray(m, np.pi / 2, 1.3, 0.01).minima
        assert 0.5 < minimum.s < 1.3
        assert (minimum.theta, minimum.mu_a, minimum.mu_b) == (np.pi / 2, 0.0, minimum.s)

    def test_fidelity_bounds_and_chi(self):
        sw = _ray(xi_resonant(), np.pi / 4, 0.8, 0.02)
        assert np.all(sw.fidelities <= 1.0 + 1e-12)
        assert np.all(sw.fidelities >= 0.0)
        assert np.allclose(
            sw.susceptibilities, 2 * (1 - sw.fidelities) / 0.02**2, atol=0
        )

    def test_deterministic(self):
        a = _ray(xi_resonant(), 0.3, 0.6, 0.02)
        b = _ray(xi_resonant(), 0.3, 0.6, 0.02)
        assert np.array_equal(a.fidelities, b.fidelities)
        assert a.minima == b.minima

    def test_minimum_needs_a_dip_above_the_noise_floor(self):
        mids = 0.1 * np.arange(1, 5)
        direction = (1.0, 0.0)
        # equal fidelities but for roundoff, as on the displaced vacuum's ray
        flat = 0.94402748 + np.array([0.0, -2.2e-16, 1.6e-14, 1.6e-11])
        assert _detect_minima(0.0, direction, mids, flat, 0.1) == ()
        dipped = flat - np.array([0.0, 2 * NOISE_FLOOR, 0.0, 0.0])
        (minimum,) = _detect_minima(0.0, direction, mids, dipped, 0.1)
        assert 0.1 < minimum.s < 0.3 and minimum.fidelity <= dipped[1]

    @pytest.mark.parametrize("steps", range(2, 9))
    def test_displaced_vacuum_ray_has_no_minima(self, steps):
        # Without level splittings the ladder's ground state along mu12 is a
        # displaced vacuum: every neighbour fidelity is the same in exact
        # arithmetic, so neither the continued nor the cold scan has a minimum.
        m = ModelConfig(Configuration.XI, 0.0, 0.0, 0.0, mu12=0.0, mu13=0.0, mu23=0.0, na=1, nmax=8)
        warm = _ray(m, 0.0, 1.2, 1.2 / steps)
        with mock.patch.object(solver, "_continued", _no_continuation):
            cold = _ray(m, 0.0, 1.2, 1.2 / steps)
        assert np.ptp(cold.fidelities) < 1e-10
        assert warm.minima == () and cold.minima == ()

    def test_rejects_bad_rays(self):
        with pytest.raises(ValueError):
            _ray(xi_resonant(), -0.2, 0.6, 0.02)
        with pytest.raises(ValueError):
            _ray(xi_resonant(), 0.0, 0.6, -0.01)


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
            _ray(m, 0.7, 1.5, 0.02, rotated=fr)
            for fr in (None, Branch.FIRST, Branch.SECOND)
        ]
        counts = {len(sw.minima) for sw in sweeps}
        assert counts == {len(sweeps[0].minima)} and sweeps[0].minima
        for ref, b1, b2 in zip(*(sw.minima for sw in sweeps)):
            assert abs(ref.s - b1.s) <= 0.02
            assert abs(ref.s - b2.s) <= 0.02

    def test_minima_are_the_rays_minima_in_theta_order(self):
        thetas = ray_pencil(4)
        diagram = phase_diagram(xi_resonant(), thetas, 1.3, 0.02)
        assert [ray.theta for ray in diagram.rays] == list(thetas)
        assert diagram.minima == tuple(m for ray in diagram.rays for m in ray.minima)
        assert [m.theta for m in diagram.minima] == list(thetas)  # one minimum per ray
        for ray in diagram.rays:
            ca, sa = _ray_direction(ray.theta)
            for m in ray.minima:
                assert m.theta == ray.theta
                assert (m.mu_a, m.mu_b) == (m.s * ca, m.s * sa)
        # a minimum's fields in the phase-diagram command's column order
        assert [f.name for f in dataclasses.fields(SweepMinimum)] == ["theta", "s", "mu_a", "mu_b", "fidelity"]

    def test_empty_pencil_rejected(self):
        with pytest.raises(ValueError):
            phase_diagram(xi_resonant(), [], 1.0, 0.02)


class TestPencil:
    """A pencil's rays of one cutoff are solved together, those of one band
    shape in lockstep, one stacked band step for every ray; each ray's
    states and fidelities are bitwise those it has alone, whatever rays lie
    beside it."""

    @pytest.mark.parametrize("cfg, omegas, frame", [
        (Configuration.XI, (0.0, 1.0, 2.0), None),  # cutoffs 32, 16 and 8 along the pencil
        (Configuration.LAMBDA, (0.0, 0.5, 1.0), None),  # theta = 0: narrower bands
        (Configuration.V, (0.0, 1.0, 1.0), Branch.FIRST),  # 6 sectors
    ])
    def test_rays_alone_and_together_agree_bitwise(self, cfg, omegas, frame):
        m = ModelConfig(cfg, *omegas, 0.0, 0.0, 0.0, na=2, nmax=8)
        thetas = ray_pencil(7)
        together = phase_diagram(m, thetas, 1.0, 0.05, rotated=frame)
        dealt = phase_diagram(m, thetas, 1.0, 0.05, rotated=frame, workers=2)  # rays 0, 2, .. and 1, 3, ..
        for i, theta in enumerate(thetas):
            alone = _ray(m, theta, 1.0, 0.05, rotated=frame)
            for sweep in (together.rays[i], dealt.rays[i]):
                assert sweep.nmax == alone.nmax
                assert sweep.fidelities.tobytes() == alone.fidelities.tobytes()
                assert sweep.minima == alone.minima
        b, radii = enumerate_basis(2, 32), 0.05 * np.arange(1, 21)
        unit = dataclasses.replace(m, nmax=32)
        Hs = [d3.build_hamiltonian(with_couplings(unit, *_ray_direction(t)), b, frame) for t in thetas]
        groups = [(rays, list(walk)) for rays, walk in solver.pencil_ground_states(Hs, b, radii)]
        assert len(groups) == (2 if cfg is Configuration.LAMBDA else 1)
        largest = max(len(rays) for rays, _ in groups)
        with mock.patch.object(solver, "PENCIL_ENTRIES", 2000):  # a few rays' parts at most
            small = [(rays, list(walk)) for rays, walk in solver.pencil_ground_states(Hs, b, radii)]
        assert max(len(rays) for rays, _ in small) < largest
        groups += small
        assert sorted(r for rays, _ in groups for r in rays) == sorted(2 * list(range(len(thetas))))
        for rays, walk in groups:
            for j, r in enumerate(rays):
                ((_, alone),) = solver.pencil_ground_states([Hs[r]], b, radii)
                for (states, flags), (state, flag) in zip(walk, alone, strict=True):
                    assert states[j].tobytes() == state[0].tobytes() and flags[j] == flag[0]


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


def _ray_hamiltonians(m, sweep, frame):
    """The dense H along the sweep's ray at its cutoff, as a function of the
    radius, and the basis."""
    ca, sa = _ray_direction(sweep.theta)
    b = enumerate_basis(m.na, sweep.nmax)
    at = dataclasses.replace(m, nmax=sweep.nmax)
    return (lambda s: d3.build_hamiltonian(with_couplings(at, s * ca, s * sa), b, frame)), b


@st.composite
def framed_rays(draw):
    """A framed model's ray: the angle of its couplings (theta = 0 when both
    vanish)."""
    m, frame = draw(framed_models())
    return m, frame, float(np.arctan2(*m.plane_couplings[::-1]))


def _continued_points(scan):
    """scan()'s result and, for every ground state of its ray (the points
    after its cutoff search), whether the continuation from the previous
    point's state produced it."""
    flags, results = [], []
    real_continued, real_pairs = solver._continued, solver._sector_pairs

    def continued(*args):
        levels, vectors = real_continued(*args)
        results.append(bool((levels[:, 0] < np.inf).any()))
        return levels, vectors

    def pairs(*args):
        results.clear()
        out = real_pairs(*args)
        flags.append(any(results))
        return out

    with mock.patch.object(solver, "_continued", continued), mock.patch.object(solver, "_sector_pairs", pairs):
        sweep = scan()
    return sweep, np.array(flags[len(flags) - len(sweep.s_values) :])


def _solved_by(solve, m, theta, s_max, dmu, frame):
    """A pencil of one with every point's ground state from solve(H, basis,
    s), H the ray's Hamiltonian at unit radius that the scan builds."""
    def pencil(Hs, basis, radii):
        for r, H in enumerate(Hs):
            yield [r], ((np.array([solve(H, basis, s).amplitudes.real]), None) for s in radii)

    with mock.patch("dicke3.analysis.pencil_ground_states", pencil):
        return _ray(m, theta, s_max, dmu, rotated=frame)


class TestScanLayout:
    """A scan builds one H per ray and gathers its sectors once.  Without
    the continuation each fidelity is the one of solving every point afresh
    on the affine ray through that H, bit for bit; with it, still bitwise
    between two points solved cold (the ray's first among them), and within
    roundoff of fresh solves of each point's assembled H."""

    @pytest.mark.parametrize("crossover", [solver.DENSE_SECTOR_MAX, 8])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(ray=framed_rays(), steps=st.integers(2, 8))
    def test_matches_fresh_solves(self, crossover, ray, steps):
        m, frame, theta = ray
        args = (m, theta, 1.2, 1.2 / steps, frame)
        with mock.patch.object(solver, "DENSE_SECTOR_MAX", crossover):
            sweep, warm = _continued_points(lambda: _ray(*args[:4], rotated=frame))
            with mock.patch.object(solver, "_continued", _no_continuation):
                cold = _ray(*args[:4], rotated=frame)
            oracle = _solved_by(affine_ray_ground_state, *args)
            H_at, _ = _ray_hamiltonians(m, sweep, frame)
            fresh = _solved_by(lambda H, b, s: ground_state(H_at(s), b), *args)
        assert cold.fidelities.tobytes() == oracle.fidelities.tobytes()
        assert cold.minima == oracle.minima
        assert not warm[0] and len(warm) == len(sweep.s_values)
        both_cold = ~(warm[:-1] | warm[1:])
        assert sweep.fidelities[both_cold].tobytes() == oracle.fidelities[both_cold].tobytes()
        np.testing.assert_allclose(sweep.fidelities, fresh.fidelities, rtol=0, atol=1e-13)
        assert len(sweep.minima) == len(fresh.minima)
        for got, exact in zip(sweep.minima, fresh.minima):
            assert got.s == pytest.approx(exact.s, rel=0, abs=1e-10)
            assert got.fidelity == pytest.approx(exact.fidelity, rel=0, abs=1e-10)

    @pytest.mark.parametrize("frame", [None, Branch.FIRST])
    def test_one_assembly_and_one_gather_per_sector(self, frame):
        m = ModelConfig(Configuration.V, 0.0, 1.0, 1.0, mu12=0.0, mu13=0.0, mu23=0.0, na=2, nmax=8)
        searching, gathers = [], []
        real_search, real_gather = analysis.converged_ground_state, BlockHamiltonian.upper_band

        def search(*args):
            searching.append(True)
            try:
                return real_search(*args)
            finally:
                searching.pop()

        def gather(H, k, parts=False):
            if not searching:
                gathers.append((len(H.sectors), k, parts))
            return real_gather(H, k, parts)

        built = mock.patch("dicke3.analysis.build_hamiltonian", wraps=d3.build_hamiltonian)
        with built as assembled, mock.patch.object(BlockHamiltonian, "upper_band", gather), \
                mock.patch("dicke3.analysis.converged_ground_state", search):
            sweep = _ray(m, np.pi / 4, 1.5, 0.05, rotated=frame)
        assert assembled.call_count == 1 and len(sweep.s_values) == 30
        sectors = gathers[0][0]
        assert sectors == (2 if frame is None else 6)  # parity, and n_iso in 0..2
        assert gathers == [(sectors, k, True) for k in range(sectors)]

    @pytest.mark.parametrize("crossover", [solver.DENSE_SECTOR_MAX, 8])
    @pytest.mark.parametrize("where", ["vacuum", "last"])
    def test_non_finite_block_is_refused(self, crossover, where):
        m = xi_resonant(na=2, nmax=12, mu12=0.3, mu23=0.2)
        b = enumerate_basis(2, 12)
        H = d3.build_hamiltonian(m, b)
        diagonal = H.diagonal.copy()
        diagonal[0 if where == "vacuum" else -1] = np.nan
        bad = BlockHamiltonian(diagonal, H.on_site, H.coupling, H.sector_labels)
        with mock.patch.object(solver, "DENSE_SECTOR_MAX", crossover):
            with pytest.raises(ValueError, match="infs or NaNs"):
                ground_state(bad, b)


class TestLinearResponse:
    """RaySweep.susceptibilities against the fidelity susceptibility chi_F
    of a full eigendecomposition, away from level crossings and doublets.
    H is affine in the radius along a ray through the origin, in every
    frame (the decoupling angle is constant there), so dH is exact."""

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(framed_rays())
    def test_twice_chi_f_and_minima_at_its_maxima(self, ray):
        m, frame, theta = ray
        assume(m.omega3 - m.omega1 >= 0.1)  # equal levels leave the ground level degenerate
        dmu = 0.04
        coarse = _ray(m, theta, 1.2, dmu, rotated=frame)
        fine = _ray(m, theta, 1.2, dmu / 3, rotated=frame)
        assert fine.nmax == coarse.nmax
        H_at, _ = _ray_hamiltonians(m, coarse, frame)
        dH = H_at(2.0).matrix - H_at(1.0).matrix

        def chi_f(s):
            return fidelity_susceptibility(H_at(s).matrix, dH)

        # (a) chi = 2 chi_F + O(dmu^2): a third of the step divides the
        # difference by 9 at the same midpoints (the fine grid's 3i + 3rd).
        for i in range(0, coarse.fidelities.size, 4):
            mid = (coarse.s_values[i] + coarse.s_values[i + 1]) / 2
            if min(chi_f(s)[1] for s in (mid - dmu / 2, mid, mid + dmu / 2)) < 0.05:
                continue
            exact = 2.0 * chi_f(mid)[0]
            err = abs(coarse.susceptibilities[i] - exact)
            err_fine = abs(fine.susceptibilities[3 * i + 3] - exact)
            assert err <= 0.02 * exact + 1e-8
            if err > 1e-6:
                assert 7.0 < err / err_fine < 11.0
        # (b) a chi_F maximum lies within one step of every reported minimum
        for minimum in coarse.minima:
            grid = np.linspace(minimum.s - dmu, minimum.s + dmu, 9)
            values = [chi_f(s) for s in grid]
            if min(gap for _, gap in values) < 0.02:
                continue
            assert 0 < int(np.argmax([chi for chi, _ in values])) < grid.size - 1
