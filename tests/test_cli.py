import json

import numpy as np
import pytest

from dicke3.basis import enumerate_basis
from dicke3.cli import main
from dicke3.model import ModelConfig, build_frame_hamiltonian, with_couplings
from dicke3.operators import Configuration
from dicke3.rotations import Branch
from dicke3.solver import ground_state, populations


def run(*argv):
    return main(list(argv))


def read_csv(path):
    """Split an output file into (header, metadata dict, data rows)."""
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    meta = {}
    rows = []
    for line in lines[1:]:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        else:
            rows.append(line.split(","))
    return header, meta, rows


LAMBDA_ARGS = [
    "--configuration", "lambda", "--omega3", "1",
    "--mu13", "0.6", "--mu23", "0.8", "--na", "1",
]


class TestSpectrum:
    def test_decoupled_three_levels(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = run(
            "spectrum", "--configuration", "xi", "--omega2", "1", "--omega3", "2",
            "--na", "1", "--nmax", "0", "--out", str(out),
        )
        assert rc == 0
        header, meta, rows = read_csv(out)
        assert header == ["index", "energy"]
        assert len(rows) == 3
        assert [float(r[1]) for r in rows] == [0.0, 1.0, 2.0]
        assert meta["configuration"] == "xi"

    def test_rotated_frame_same_eigenvalues(self, tmp_path):
        base = ["spectrum", "--configuration", "lambda", "--omega3", "1",
                "--mu13", "0.4", "--mu23", "0.6", "--na", "2", "--nmax", "12"]
        plain, rot = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*base, "--out", str(plain)) == 0
        assert run(*base, "--rotated", "first", "--out", str(rot)) == 0
        _, _, rows_a = read_csv(plain)
        _, _, rows_b = read_csv(rot)
        ea = np.array([float(r[1]) for r in rows_a])
        eb = np.array([float(r[1]) for r in rows_b])
        assert np.max(np.abs(ea - eb)) < 1e-9

    def test_band_labels_at_equal_detuning(self, tmp_path):
        out = tmp_path / "bands.csv"
        rc = run(
            "spectrum", "--configuration", "lambda", "--omega3", "1",
            "--mu13", "0.4", "--mu23", "0.6", "--na", "2", "--nmax", "10",
            "--rotated", "first", "--band-labels", "--out", str(out),
        )
        assert rc == 0
        header, meta, rows = read_csv(out)
        assert header == ["index", "energy", "n_isolated"]
        labels = {int(r[2]) for r in rows}
        assert labels == {0, 1, 2}
        assert meta["isolated_level"] == "1"

    def test_band_labels_refused_off_detuning(self, tmp_path):
        rc = run(
            "spectrum", "--configuration", "lambda", "--omega2", "0.5", "--omega3", "1",
            "--mu13", "0.4", "--mu23", "0.6", "--na", "1", "--nmax", "8",
            "--rotated", "first", "--band-labels", "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2


class TestPopulations:
    def test_three_frames_and_bounds(self, tmp_path):
        out = tmp_path / "pops.csv"
        rc = run(
            "populations", "--configuration", "v", "--omega2", "0.8", "--omega3", "1",
            "--na", "1", "--grid", "5", "--mu-max", "2.0", "--out", str(out),
        )
        assert rc == 0
        frames = {}
        for frame in ("unrotated", "first", "second"):
            path = tmp_path / f"pops_{frame}.csv"
            assert path.exists()
            header, meta, rows = read_csv(path)
            assert header == ["mu_a", "mu_b", "a11", "a22", "a33", "nphot"]
            frames[frame] = {
                (r[0], r[1]): [float(x) for x in r[2:]] for r in rows
            }
        # decoupled-level populations stay tiny in the rotated frames
        assert max(v[2] for v in frames["first"].values()) <= 5e-4
        assert max(v[1] for v in frames["second"].values()) <= 5e-4
        # the lowest-level population matches across frames
        for key, vals in frames["first"].items():
            assert abs(vals[0] - frames["unrotated"][key][0]) < 1e-12
        # origin exists only in the unrotated frame
        assert ("0", "0") in frames["unrotated"]
        assert ("0", "0") not in frames["first"]
        # normal-region corner: nearly all atoms in the lowest level
        assert frames["unrotated"][("0", "0")][0] == pytest.approx(1.0, abs=1e-9)

    # The command rotates each point's unrotated ground state into the other
    # frames; here every row is checked against the frame's own Hamiltonian,
    # solved directly.  The cutoff is left automatic, so the corner state
    # reused from the cutoff search is checked too.
    @pytest.mark.parametrize("cfg, omegas, na, grid, mu_max", [
        (Configuration.V, (0.0, 0.8, 1.0), 1, 5, 2.0),
        (Configuration.LAMBDA, (0.0, 0.0, 1.0), 2, 4, 1.5),
        (Configuration.XI, (0.0, 0.9, 2.1), 2, 4, 1.5),
    ])
    def test_frames_match_direct_solves(self, tmp_path, cfg, omegas, na, grid, mu_max):
        out = tmp_path / "pops.csv"
        rc = run(
            "populations", "--configuration", cfg.value, "--omega1", str(omegas[0]),
            "--omega2", str(omegas[1]), "--omega3", str(omegas[2]), "--na", str(na),
            "--grid", str(grid), "--mu-max", str(mu_max), "--out", str(out),
        )
        assert rc == 0
        values = np.linspace(0.0, mu_max, grid)
        for branch in (None, *Branch):
            frame = "unrotated" if branch is None else branch.value
            _, meta, rows = read_csv(tmp_path / f"pops_{frame}.csv")
            m0 = ModelConfig(cfg, *omegas, 0.0, 0.0, 0.0, na=na, nmax=int(meta["nmax"]))
            b = enumerate_basis(na, m0.nmax)
            keys = [(a, c) for a in values for c in values]
            if branch is not None:
                keys.remove((0.0, 0.0))  # no decoupling angle at the origin
            assert len(rows) == len(keys)
            for (mu_a, mu_b), row in zip(keys, rows):
                assert [float(x) for x in row[:2]] == pytest.approx([mu_a, mu_b], abs=1e-12)
                m = with_couplings(m0, mu_a, mu_b)
                direct = populations(ground_state(build_frame_hamiltonian(m, b, branch), b))
                assert np.max(np.abs(np.array(row[2:], dtype=float) - direct)) < 1e-10


class TestPhaseDiagramCommand:
    def test_minima_csv(self, tmp_path):
        out = tmp_path / "pd.csv"
        rc = run(
            "phase-diagram", "--configuration", "xi", "--omega2", "1", "--omega3", "2",
            "--na", "1", "--rays", "3", "--s-max", "1.4", "--dmu", "0.02",
            "--out", str(out),
        )
        assert rc == 0
        header, meta, rows = read_csv(out)
        assert header == ["theta", "s", "mu_a", "mu_b", "fidelity"]
        assert len(rows) >= 1
        for r in rows:
            assert 0.4 < float(r[1]) < 1.4

    def test_thread_count_invariance(self, tmp_path):
        args = [
            "phase-diagram", "--configuration", "xi", "--omega2", "1", "--omega3", "2",
            "--na", "1", "--rays", "2", "--s-max", "1.3", "--dmu", "0.05",
        ]
        one, two = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert run(*args, "--threads", "1", "--out", str(one)) == 0
        assert run(*args, "--threads", "2", "--out", str(two)) == 0
        assert one.read_text().replace("threads = 1", "") == two.read_text().replace(
            "threads = 2", ""
        )


class TestSeparatrixCommand:
    def test_v_circle(self, tmp_path):
        out = tmp_path / "sep.csv"
        rc = run(
            "separatrix", "--configuration", "v", "--omega2", "1", "--omega3", "1",
            "--samples", "9", "--out", str(out),
        )
        assert rc == 0
        header, _, rows = read_csv(out)
        assert header == ["mu12", "mu13"]
        for r in rows:
            assert np.hypot(float(r[0]), float(r[1])) == pytest.approx(0.5, abs=1e-9)

    def test_xi_curve_budget(self, tmp_path):
        out = tmp_path / "sepx.csv"
        rc = run(
            "separatrix", "--configuration", "xi", "--omega2", "1", "--omega3", "2",
            "--samples", "41", "--mu-max", "3.0", "--out", str(out),
        )
        assert rc == 0
        _, _, rows = read_csv(out)
        assert 0 < len(rows) < 41  # curve ends where the budget runs out
        assert float(rows[0][0]) == pytest.approx(0.5, abs=1e-9)


class TestStoreRetrieveCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "sr.csv"
        rc = run("store-retrieve", *LAMBDA_ARGS, "--out", str(out))
        assert rc == 0
        header, meta, rows = read_csv(out)
        assert [r[0] for r in rows] == ["initial", "stored", "retrieved"]
        assert float(meta["content_overlap"]) > 1 - 1e-10
        stored = [float(x) for x in rows[1][1:]]
        retrieved = [float(x) for x in rows[2][1:]]
        assert stored[0] < 1e-10
        assert retrieved[1] < 1e-10

    def test_ladder_rejected_with_exit_2(self, tmp_path):
        rc = run(
            "store-retrieve", "--configuration", "xi", "--omega2", "1", "--omega3", "2",
            "--mu12", "0.4", "--mu23", "0.2", "--na", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2


class TestRotateCheckCommand:
    def test_closed_forms_within_tolerance(self, tmp_path):
        out = tmp_path / "rc.csv"
        rc = run("rotate-check", "--na", "2", "--nmax", "2", "--samples", "10",
                 "--seed", "3", "--out", str(out))
        assert rc == 0
        _, meta, rows = read_csv(out)
        assert float(meta["max_error"]) < 1e-12
        assert len(rows) == 27  # 3 rotations x 9 generators

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("rotate-check", "--seed", "5", "--out", str(a))
        run("rotate-check", "--seed", "5", "--out", str(b))
        assert a.read_text() == b.read_text()


class TestEvolveCommand:
    def test_frozen_level_stays_empty(self, tmp_path):
        out = tmp_path / "ev.csv"
        rc = run(
            "evolve", *LAMBDA_ARGS, "--nmax", "16", "--rotated", "first",
            "--initial", "0,0,0,1", "--t-max", "10", "--t-steps", "41",
            "--out", str(out),
        )
        assert rc == 0
        header, _, rows = read_csv(out)
        assert header == ["t", "a11", "a22", "a33", "nphot"]
        assert max(float(r[1]) for r in rows) < 1e-10

    def test_bad_initial_state(self, tmp_path):
        rc = run(
            "evolve", *LAMBDA_ARGS, "--nmax", "4", "--initial", "0,2,0,0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2


class TestRunConfigFile:
    def test_json_config_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "configuration": "xi",
            "omega2": 1.0,
            "omega3": 2.0,
            "na": 1,
            "nmax": 0,
        }))
        out = tmp_path / "spec.csv"
        rc = run("spectrum", "--config", str(cfg), "--omega3", "3.0", "--out", str(out))
        assert rc == 0
        _, meta, rows = read_csv(out)
        assert meta["omega3"] == "3"  # flag wins over the file
        assert float(rows[2][1]) == 3.0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"configuration": "xi", "bogus": 1}))
        rc = run("spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert rc == 2

    def test_string_atom_count_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "configuration": "lambda", "omega3": 1.0, "mu13": 0.6, "mu23": 0.8, "na": "4",
        }))
        rc = run("store-retrieve", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert rc == 2
        assert "na must be an integer" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command, values, message",
        [
            ("separatrix", {"configuration": "v", "omega2": "1"}, "omega2 must be a finite real number"),
            ("rotate-check", {"na": "2"}, "na must be an integer"),
            ("phase-diagram", {"configuration": "xi", "rays": 2.0}, "rays must be an integer"),
        ],
    )
    def test_non_numeric_config_values_rejected(self, tmp_path, capsys, command, values, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        rc = run(command, "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestExitCodes:
    def test_invalid_configuration(self, tmp_path):
        rc = run(
            "spectrum", "--configuration", "xi", "--omega2", "1", "--omega3", "2",
            "--mu13", "0.5", "--na", "1", "--nmax", "4",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_coupling(self, tmp_path, capsys, value):
        rc = run(
            "spectrum", "--configuration", "lambda", "--omega3", "1",
            "--mu13", value, "--mu23", "0.8", "--na", "1", "--nmax", "2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "mu13 must be a finite real number" in err
        assert "symmetric" not in err

    def test_nonfinite_step_named(self, tmp_path, capsys):
        rc = run(
            "phase-diagram", "--configuration", "xi", "--omega2", "1", "--omega3", "2",
            "--dmu", "nan", "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "dmu must be a finite real number" in err
        assert "convert" not in err

    def test_missing_configuration(self, tmp_path):
        rc = run("spectrum", "--na", "1", "--nmax", "2", "--out", str(tmp_path / "x.csv"))
        assert rc == 2

    def test_nonconvergence_via_dimension_guard(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DICKE3_MAX_DIM", "40")
        rc = run(
            "spectrum", "--configuration", "lambda", "--omega3", "1",
            "--mu13", "1.5", "--mu23", "1.5", "--na", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 3
