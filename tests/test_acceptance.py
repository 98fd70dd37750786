"""Acceptance suite: one test per numbered criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The whole module takes a few minutes; criteria 2 and 6 dominate (converged
photon cutoffs at four atoms, and a 19-ray pencil in three frames).
"""

import dataclasses

import numpy as np

import dicke3 as d3
from dicke3.analysis import (
    dalpha_dmu,
    fidelity_rot_second_order,
    fidelity_rotated_exact,
    phase_diagram,
)
from dicke3.basis import enumerate_basis
from dicke3.model import (
    ModelConfig,
    build_hamiltonian,
    coupling_name,
    with_couplings,
)
from dicke3.operators import Configuration
from dicke3.protocol import content_overlap, rabi_demo, retrieve, store
from dicke3.rotations import Branch, decoupling_angle
from dicke3.solver import (
    QuantumState,
    converged_ground_state,
    diagonalize,
    ground_state,
    populations,
)

from conftest import random_model
from oracles import collective_A, expectation, full_vectors, lift, parity, transform_exact


def _verdict(ok: bool, label: str, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _lambda_equal(na, nmax=8):
    return ModelConfig(
        Configuration.LAMBDA, 0.0, 0.0, 1.0, mu12=0.0, mu13=0.0, mu23=0.0, na=na, nmax=nmax
    )


def _v_equal(na, nmax=8):
    return ModelConfig(
        Configuration.V, 0.0, 1.0, 1.0, mu12=0.0, mu13=0.0, mu23=0.0, na=na, nmax=nmax
    )


def _xi_resonant(na, nmax=8):
    return ModelConfig(
        Configuration.XI, 0.0, 1.0, 2.0, mu12=0.0, mu13=0.0, mu23=0.0, na=na, nmax=nmax
    )


def test_c01_unitary_invariance_of_spectra():
    """Random models: H and both rotated assemblies share every eigenvalue."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for cfg in Configuration:
        for _ in range(50):
            na = int(rng.integers(1, 4))
            m = random_model(rng, cfg, na=na, nmax=20)
            b = enumerate_basis(na, 20)
            e_ref = np.linalg.eigvalsh(build_hamiltonian(m, b).matrix)
            for br in Branch:
                e_rot = np.linalg.eigvalsh(build_hamiltonian(m, b, br).matrix)
                worst = max(worst, float(np.max(np.abs(e_ref - e_rot))))
    _verdict(worst < 1e-9, "criterion 1: spectra invariant under rotation",
             f"max |dE| = {worst:.3e}")


def _isolated_population_grid(template, branch, grid_values):
    """Max isolated-level population over a coupling grid at converged cutoffs.

    At equal detuning the model depends on the couplings only through their
    radius (the frame rotation is a pure atomic rotation), so the converged
    cutoff is assigned per radius: probe cutoffs along the diagonal at a few
    radii and give each point the cutoff of the first probe radius above it.
    """
    pts = [(a, b) for a in grid_values for b in grid_values]
    radii = np.array([np.hypot(a, b) for a, b in pts])
    probe_radii = np.quantile(np.unique(radii), np.linspace(0.0, 1.0, 14))
    probe_radii[-1] = radii.max()

    cutoffs = []
    start = 8
    for r in probe_radii:
        c = converged_ground_state(with_couplings(template, r / np.sqrt(2), r / np.sqrt(2)),
                                   start=start)[0]
        cutoffs.append(c)
        start = c
    assigned = np.array(
        [cutoffs[int(np.searchsorted(probe_radii, r))] for r in radii]
    )

    iso_level = d3.rotated_parameters(
        with_couplings(template, 1.0, 1.0), branch
    ).isolated_level
    worst = 0.0
    for nmax in np.unique(assigned):
        basis = enumerate_basis(template.na, int(nmax))
        for (a, b), cut in zip(pts, assigned):
            if cut != nmax:
                continue
            m = dataclasses.replace(with_couplings(template, a, b), nmax=int(nmax))
            g = ground_state(build_hamiltonian(m, basis, branch), basis)
            worst = max(worst, populations(g)[iso_level - 1])
    return worst


def test_c02_exact_decoupling_at_equal_detuning():
    """21 x 21 grid over (0, 2]^2 at four atoms: isolated level stays empty."""
    grid = 2.0 * np.arange(1, 22) / 21.0
    worst_l = _isolated_population_grid(_lambda_equal(4), Branch.FIRST, grid)
    worst_v = _isolated_population_grid(_v_equal(4), Branch.FIRST, grid)
    worst = max(worst_l, worst_v)
    _verdict(worst < 1e-10, "criterion 2: exact decoupling at equal detuning",
             f"max isolated population = {worst:.3e} (lambda {worst_l:.1e}, V {worst_v:.1e})")


def test_c03_off_detuning_robustness():
    """V with a 20% gap: decoupled-level population <= 5e-4 over [0, 2]^2."""
    template = ModelConfig(
        Configuration.V, 0.0, 0.8, 1.0, mu12=0.0, mu13=0.0, mu23=0.0, na=1, nmax=8
    )
    nmax = converged_ground_state(with_couplings(template, 2.0, 2.0))[0]
    basis = enumerate_basis(1, nmax)
    worst_iso = 0.0
    worst_frame_gap = 0.0
    for a in np.linspace(0.0, 2.0, 21):
        for b in np.linspace(0.0, 2.0, 21):
            m = dataclasses.replace(with_couplings(template, a, b), nmax=nmax)
            p0 = populations(ground_state(build_hamiltonian(m, basis), basis))
            if a == 0.0 and b == 0.0:
                continue  # frame rotation undefined at the origin
            p1 = populations(
                ground_state(build_hamiltonian(m, basis, Branch.FIRST), basis)
            )
            p2 = populations(
                ground_state(build_hamiltonian(m, basis, Branch.SECOND), basis)
            )
            worst_iso = max(worst_iso, p1[2], p2[1])
            worst_frame_gap = max(
                worst_frame_gap, abs(p0[0] - p1[0]), abs(p0[0] - p2[0])
            )
    ok = worst_iso <= 5e-4 and worst_frame_gap < 1e-12
    _verdict(ok, "criterion 3: off-detuning robustness",
             f"max decoupled population = {worst_iso:.3e}, "
             f"max lowest-level frame gap = {worst_frame_gap:.1e}")


def test_c04_closed_form_rotations():
    """All generators, all rotation planes, random angles: forms match U A U^T."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for na in (1, 2, 3):
        basis = enumerate_basis(na, 2)
        for cfg in Configuration:
            for alpha in rng.uniform(-np.pi, np.pi, 20).tolist():
                for l in (1, 2, 3):
                    for m in (1, 2, 3):
                        closed = lift(d3.transform_generator_closed_form(cfg, alpha, l, m, na), basis)
                        exact = transform_exact(cfg, alpha, collective_A(basis, l, m), basis)
                        worst = max(worst, float(np.max(np.abs(closed - exact.matrix))))
    _verdict(worst < 1e-12, "criterion 4: closed-form rotated generators",
             f"max error = {worst:.3e}")


def test_c05_second_order_expansion_scaling():
    """Remainder against the exact rotated fidelity across shrinking steps.

    Asserted window: a halving 1e-2 -> 5e-3 shrinks the remainder by [5, 20]
    (cubic scaling would give ~8), and the full drop to 1e-3 by ~10^3 within
    a factor of 3.  With the cross term 2 <psi'|psi> dmu dalpha <psi'|K|psi>
    in the expansion, most samples scale cubically, but the measured halving
    ratios span [2.95, 10.40] and the overall ratios [244.8, 1715.6]: at a
    few samples the cubic coefficient nearly cancels, so the next order
    shows.  The assertion is kept at the stated window rather than loosened
    to match the implementation, so this test documents the known failure.
    """
    rng = np.random.default_rng(505)
    steps = (1e-2, 5e-3, 1e-3)
    halving_ratios = []
    overall_ratios = []
    for cfg in Configuration:
        names = [coupling_name(p) for p in cfg.allowed_pairs]
        for _ in range(20):
            mu_pair = rng.uniform(0.3, 1.5, 2)
            which = int(rng.integers(0, 2))
            m0 = random_model(rng, cfg, na=2, nmax=8, omega_span=(0.0, 1.5))
            m0 = with_couplings(m0, *mu_pair)
            nmax = converged_ground_state(with_couplings(m0, mu_pair[0] + 0.02, mu_pair[1] + 0.02))[0]
            basis = enumerate_basis(2, nmax)
            m = dataclasses.replace(m0, nmax=nmax)
            psi = ground_state(build_hamiltonian(m, basis), basis)
            slope = dalpha_dmu(cfg, names[which], tuple(mu_pair))
            remainders = []
            for dmu in steps:
                stepped = list(mu_pair)
                stepped[which] += dmu
                m_d = with_couplings(m, *stepped)
                psi_d = ground_state(build_hamiltonian(m_d, basis), basis)
                approx = fidelity_rot_second_order(psi, psi_d, cfg, slope, dmu)
                delta = decoupling_angle(m_d, Branch.FIRST) - decoupling_angle(m, Branch.FIRST)
                exact = fidelity_rotated_exact(psi, psi_d, cfg, delta)
                remainders.append(abs(exact - approx))
            halving_ratios.append(remainders[0] / remainders[1])
            overall_ratios.append(remainders[0] / remainders[2])
    lo, hi = min(halving_ratios), max(halving_ratios)
    olo, ohi = min(overall_ratios), max(overall_ratios)
    ok = lo >= 5.0 and hi <= 20.0 and olo >= 1e3 / 3 and ohi <= 3e3
    _verdict(ok, "criterion 5: second-order expansion remainder scaling",
             f"halving ratio in [{lo:.2f}, {hi:.2f}] (need [5, 20]); "
             f"overall ratio in [{olo:.1f}, {ohi:.1f}] (need [333, 3000])")


def test_c06_phase_diagram_invariant_under_rotation():
    """19-ray pencil at two atoms: loci agree across all three frames."""
    template = _xi_resonant(2)
    thetas = np.linspace(0.0, np.pi / 2, 19)
    worst_gap = 0.0
    count_mismatch = 0
    for theta in thetas:
        sweeps = [
            phase_diagram(template, [float(theta)], 1.5, 0.01, rotated=fr).rays[0]
            for fr in (None, Branch.FIRST, Branch.SECOND)
        ]
        counts = {len(sw.minima) for sw in sweeps}
        if len(counts) != 1:
            count_mismatch += 1
            continue
        for m0, m1, m2 in zip(*(sw.minima for sw in sweeps)):
            worst_gap = max(worst_gap, abs(m0.s - m1.s), abs(m0.s - m2.s))
    ok = count_mismatch == 0 and worst_gap <= 0.01
    _verdict(ok, "criterion 6: phase diagram invariant under rotation",
             f"max locus shift = {worst_gap:.4f} (one grid step = 0.01), "
             f"rays with mismatched minima counts = {count_mismatch}")


def test_c07_separatrix_convergence_with_atom_number():
    """Quantum minima approach the variational boundary as atoms are added."""
    # ladder, on-axis ray: boundary value sqrt(Omega (omega2-omega1)) / 2 = 0.5
    loci = {}
    for na in (1, 4):
        sw = phase_diagram(_xi_resonant(na), [0.0], 1.3, 0.01).rays[0]
        assert len(sw.minima) == 1
        loci[na] = sw.minima[0].s
    xi_ok = abs(loci[4] - 0.5) < abs(loci[1] - 0.5)

    def mean_circle_distance(make_template):
        out = {}
        for na in (1, 4):
            dists = []
            for theta in np.linspace(0.0, np.pi / 2, 9):
                sw = phase_diagram(make_template(na), [float(theta)], 1.3, 0.01).rays[0]
                assert sw.minima, f"no minimum on theta={theta}"
                dists.append(abs(sw.minima[0].s - 0.5))
            out[na] = float(np.mean(dists))
        return out

    v_dist = mean_circle_distance(_v_equal)
    l_dist = mean_circle_distance(_lambda_equal)
    v_ok = v_dist[4] < v_dist[1]
    l_ok = l_dist[4] < l_dist[1]
    v_radius_ok = v_dist[4] <= 0.25
    ok = xi_ok and v_ok and l_ok and v_radius_ok
    _verdict(ok, "criterion 7: quantum separatrix approaches the variational one",
             f"ladder loci {loci[1]:.3f} -> {loci[4]:.3f} (target 0.5); "
             f"V circle distances {v_dist[1]:.3f} -> {v_dist[4]:.3f}; "
             f"lambda {l_dist[1]:.3f} -> {l_dist[4]:.3f}")


def test_c08_store_retrieve_unit_fidelity():
    """Equal-detuning storage cycle keeps the qubit table intact."""
    rng = np.random.default_rng(808)
    worst = 1.0
    for na in (1, 4):
        for _ in range(10):
            radius = rng.uniform(0.3, 1.5)
            angle = rng.uniform(0.1, np.pi / 2 - 0.1)
            template = _lambda_equal(na)
            m = with_couplings(template, radius * np.cos(angle), radius * np.sin(angle))
            nmax = converged_ground_state(m)[0]
            m = dataclasses.replace(m, nmax=nmax)
            basis = enumerate_basis(na, nmax)
            g = ground_state(build_hamiltonian(m, basis), basis)
            stored, c_in = store(m, g)
            _, c_out = retrieve(m, stored)
            worst = min(worst, content_overlap(c_in, c_out))
    _verdict(worst > 1 - 1e-10, "criterion 8: store/retrieve unit fidelity",
             f"min content overlap = {worst:.15f}")


def test_c09_algebra_and_symmetry_suite():
    """Commutators, population sum rule, parity blocks, angle derivatives."""
    rng = np.random.default_rng(909)

    basis = enumerate_basis(2, 2)
    ops = {(j, k): collective_A(basis, j, k).matrix for j in (1, 2, 3) for k in (1, 2, 3)}
    comm_err = 0.0
    for (j, k), A in ops.items():
        for (l, m), B in ops.items():
            expected = (l == k) * ops[(j, m)] - (j == m) * ops[(l, k)]
            comm_err = max(comm_err, float(np.max(np.abs(A @ B - B @ A - expected))))

    sum_err = 0.0
    parity_err = 0.0
    purity_defect = 0.0
    for cfg in Configuration:
        for _ in range(5):
            m = random_model(rng, cfg, na=2, nmax=12)
            b = enumerate_basis(2, 12)
            H = build_hamiltonian(m, b)
            P = parity(b, cfg)
            parity_err = max(
                parity_err, float(np.max(np.abs(H.matrix @ P.matrix - P.matrix @ H.matrix)))
            )
            spec = diagonalize(H, b)
            vectors = full_vectors(spec)  # the sector eigenvectors on the whole basis
            gaps = np.diff(spec.energies)
            for k in range(b.dim):
                gap = min(
                    gaps[k - 1] if k > 0 else np.inf,
                    gaps[k] if k < b.dim - 1 else np.inf,
                )
                if gap < 1e-8:
                    continue
                state = QuantumState(vectors[:, k].astype(complex), b)
                purity_defect = max(purity_defect, 1.0 - abs(expectation(state, P)))
            p = populations(ground_state(H, b))
            sum_err = max(sum_err, abs(p[0] + p[1] + p[2] - 2.0))

    fd_rel_err = 0.0
    h = 1e-5
    for cfg in Configuration:
        names = [coupling_name(p) for p in cfg.allowed_pairs]
        for _ in range(100):
            pair = tuple(rng.uniform(0.1, 2.0, 2))
            for br in Branch:
                for idx, which in enumerate(names):
                    def angle(v):
                        vals = list(pair)
                        vals[idx] = v
                        mus = dict(zip(names, vals))
                        full = {"mu12": 0.0, "mu13": 0.0, "mu23": 0.0, **mus}
                        return decoupling_angle(
                            ModelConfig(cfg, 0.0, 0.5, 1.0, na=1, nmax=2, **full), br
                        )

                    fd = (angle(pair[idx] + h) - angle(pair[idx] - h)) / (2 * h)
                    table = dalpha_dmu(cfg, which, pair)
                    fd_rel_err = max(fd_rel_err, abs(table - fd) / abs(table))

    ok = (
        comm_err < 1e-12
        and sum_err < 1e-10
        and parity_err < 1e-12
        and purity_defect < 1e-10
        and fd_rel_err < 1e-6
    )
    _verdict(ok, "criterion 9: algebra and symmetry suite",
             f"commutators {comm_err:.1e}, sum rule {sum_err:.1e}, "
             f"[H,P] {parity_err:.1e}, parity purity defect {purity_defect:.1e}, "
             f"angle derivative rel err {fd_rel_err:.1e}")


def test_c10_frozen_level_dynamics():
    """Oscillation demo: the frozen level stays empty in both frames."""
    m = ModelConfig(
        Configuration.LAMBDA, 0.0, 0.0, 1.0, mu12=0.0, mu13=0.5, mu23=0.6, na=1, nmax=32
    )
    series = rabi_demo(m, 0, np.linspace(0.0, 50.0, 501))
    worst_stored = float(np.max(series.stored[:, 0]))
    worst_switched = float(np.max(series.switched[:, 1]))
    ok = worst_stored < 1e-10 and worst_switched < 1e-10
    _verdict(ok, "criterion 10: frozen-level dynamics",
             f"max stored-frame population = {worst_stored:.2e}, "
             f"max switched-frame population = {worst_switched:.2e}")
