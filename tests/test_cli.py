import json

import numpy as np
import pytest

from dicke3.cli import main


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
