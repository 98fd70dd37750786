import argparse
import json
import resource
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from dicke3.basis import enumerate_basis
from dicke3.cli import COMMANDS, build_parser, main
from dicke3.model import ModelConfig, build_hamiltonian, with_couplings
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
                direct = populations(ground_state(build_hamiltonian(m, b, branch), b))
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

    def test_rejects_fixed_cutoff(self, capsys):
        # every ray converges its own cutoff, so a given one would be ignored
        assert run("phase-diagram", "--configuration", "xi", "--nmax", "3") == 2
        assert "nmax cannot be set for phase-diagram" in capsys.readouterr().err


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

    def test_large_energy_scale(self, tmp_path):
        # |E0| is above 2**20 here, where lowest + DEGENERACY_GAP == lowest
        out = tmp_path / "sr.csv"
        rc = run(
            "store-retrieve", "--configuration", "lambda", "--Omega", "1e7", "--omega3", "1e7",
            "--mu13", "3e6", "--mu23", "4e6", "--na", "2", "--nmax", "6", "--out", str(out),
        )
        assert rc == 0
        _, meta, rows = read_csv(out)
        assert [r[0] for r in rows] == ["initial", "stored", "retrieved"]
        assert float(meta["content_overlap"]) > 1 - 1e-10

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
        rc = run("rotate-check", "--na", "2", "--samples", "10",
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

    def test_bad_initial_state(self, tmp_path, capsys):
        # the second has the right atom total but a negative count
        for initial in ("0,2,0,0", "0,-1,1,1"):
            rc = run(
                "evolve", *LAMBDA_ARGS, "--nmax", "4", "--initial", initial,
                "--out", str(tmp_path / "x.csv"),
            )
            assert rc == 2
            assert "not in the basis" in capsys.readouterr().err
        rc = run(
            "evolve", *LAMBDA_ARGS, "--nmax", "4", "--initial", "a,b",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert "--initial must be 'nu,n1,n2,n3'" in capsys.readouterr().err

    def test_chunks_give_the_whole_grid(self, tmp_path, monkeypatch):
        argv = ["evolve", *LAMBDA_ARGS, "--nmax", "12", "--t-max", "20", "--t-steps", "50"]
        whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
        monkeypatch.setattr("dicke3.cli.EVOLVE_CHUNK", 50)
        assert run(*argv, "--out", str(whole)) == 0
        monkeypatch.setattr("dicke3.cli.EVOLVE_CHUNK", 7)
        assert run(*argv, "--out", str(chunked)) == 0
        assert chunked.read_bytes() == whole.read_bytes()
        assert len(read_csv(chunked)[2]) == 50

    def test_overflowing_time_exits_invalid(self, capsys):
        # the norm check is the only report: numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(
                "evolve", "--configuration", "lambda", "--mu13", "0.3", "--mu23", "0.4",
                "--nmax", "4", "--t-max", "1e308", "--t-steps", "3",
            )
        assert rc == 2
        assert "norm is not finite" in capsys.readouterr().err


class TestRefusedBeforeTheSolve:
    """A request its parameters alone refute exits 2 before the cutoff
    search and the full diagonalization run."""

    NA8 = ["--configuration", "lambda", "--omega3", "1", "--mu13", "0.6", "--mu23", "0.8", "--na", "8"]

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", *NA8, "--band-labels"], "band labels require a rotated frame"),
        (["spectrum", *NA8, "--omega2", "0.5", "--rotated", "first", "--band-labels"],
         "band labels require a vanishing one-body coupling (lambda_t = -0.24)"),
        (["evolve", *NA8, "--initial", "1,2"], "--initial must be 'nu,n1,n2,n3'"),
        (["evolve", *NA8, "--initial", "0,a,0,0"], "--initial must be 'nu,n1,n2,n3'"),
        (["evolve", *NA8, "--nmax", "4", "--initial", "0,9,0,0"], "is not in the basis"),
        (["evolve", *NA8, "--nmax", "4", "--initial", "5,8,0,0"], "is not in the basis"),
    ], ids=["no-frame", "one-body-term", "three-counts", "not-integers", "atom-total", "above-cutoff"])
    def test_no_search_and_no_solve(self, tmp_path, capsys, argv, message):
        with mock.patch("dicke3.cli.diagonalize") as solve, \
                mock.patch("dicke3.cli.converged_ground_state") as search:
            assert run(*argv, "--out", str(tmp_path / "x.csv")) == 2
        assert not solve.called and not search.called
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


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
            ("spectrum", {"configuration": 5}, "configuration must be a string or null, got 5"),
            ("spectrum", {"configuration": "xi", "rotated": 1}, "rotated must be a string, got 1"),
            ("populations", {"configuration": "v", "frame": 3}, "frame must be a string or null, got 3"),
            ("spectrum", {"configuration": "lambda", "band_labels": "no"}, "band_labels must be true or false"),
            ("spectrum", {"configuration": "v", "rotated": "unrotated", "nmax": 2},
             "rotated must be one of ['none', 'first', 'second'], got 'unrotated'"),
            ("populations", {"configuration": "v", "frame": "bogus"},
             "frame must be one of ['unrotated', 'first', 'second'] or null, got 'bogus'"),
            ("spectrum", {"configuration": "LAMBDA", "mu13": 0.6, "mu23": 0.8, "nmax": 2},
             "configuration must be one of ['xi', 'lambda', 'v'] or null, got 'LAMBDA'"),
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

    @pytest.mark.parametrize(
        "content, message",
        [
            ("5", "must hold a JSON object"),
            ("null", "must hold a JSON object"),
            ("[1, 2]", "must hold a JSON object"),
            (None, "cannot read config file"),
        ],
    )
    def test_unusable_config_file(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "run.json"
        if content is not None:
            cfg.write_text(content)
        rc = run("separatrix", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: ")
        assert message in err
        assert "Traceback" not in err


def _flags(subparser):
    return {a.dest for a in subparser._actions if a.option_strings} - {"help", "config", "out"}


class TestOneParameterTable:
    """Each subcommand declares its parameters once: flags and config keys agree."""

    SUBPARSERS = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices

    @pytest.mark.parametrize("command", sorted(SUBPARSERS))
    def test_flags_equal_config_keys(self, tmp_path, capsys, command):
        flags = _flags(self.SUBPARSERS[command])
        assert flags == set(COMMANDS[command][1])
        for action in self.SUBPARSERS[command]._actions:
            if action.dest in flags:
                assert action.option_strings == ["--" + action.dest.replace("_", "-")]
        # Every flag name is a config key; a name that is no flag is not.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**{key: None for key in flags}, "zz_not_a_flag": None}))
        assert run(command, "--config", str(cfg)) == 2
        assert f"unknown keys in {cfg}: ['zz_not_a_flag']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, base, flag, value",
        [
            ("spectrum", {"configuration": "xi", "omega2": 1.0, "na": 1, "nmax": 2}, "mu12", 0.3),
            ("populations", {"configuration": "v", "omega2": 1.0, "na": 1, "nmax": 4,
                             "frame": "unrotated"}, "grid", 3),
            ("phase-diagram", {"configuration": "xi", "omega2": 1.0, "omega3": 2.0, "na": 1,
                               "rays": 1, "dmu": 0.05}, "s_max", 1.2),
            ("separatrix", {"configuration": "v", "omega2": 1.0}, "samples", 5),
            ("store-retrieve", {"configuration": "lambda", "mu13": 0.6, "mu23": 0.8,
                                "nmax": 6}, "Omega", 1.5),
            ("rotate-check", {"na": 1}, "samples", 3),
            ("evolve", {"configuration": "lambda", "mu13": 0.3, "mu23": 0.4, "nmax": 4},
             "t_max", 2.5),
        ],
    )
    def test_flag_and_config_give_same_bytes(self, tmp_path, command, base, flag, value):
        assert COMMANDS[command][1][flag] != value
        by_file, by_flag = tmp_path / "file.json", tmp_path / "flag.json"
        by_file.write_text(json.dumps({**base, flag: value}))
        by_flag.write_text(json.dumps(base))
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        assert run(command, "--config", str(by_file), "--out", str(a / "out.csv")) == 0
        dashed = "--" + flag.replace("_", "-")
        assert run(command, "--config", str(by_flag), dashed, str(value), "--out", str(b / "out.csv")) == 0
        outputs = sorted(f.name for f in a.iterdir())
        assert outputs and outputs == sorted(f.name for f in b.iterdir())
        for name in outputs:
            assert (a / name).read_bytes() == (b / name).read_bytes()


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

    # Entries of 1e307 overflow the levels: at na=4, nmax=128 the sectors go
    # to band Lanczos, whose Gershgorin shift overflows; at na=2 to dsyevr,
    # which returns -inf levels from finite entries.
    @pytest.mark.parametrize("size, message", [
        (["--na", "4", "--nmax", "128"], "array must not contain infs or NaNs"),
        (["--na", "2"], "sector 0 has non-finite levels: its entries overflow"),
        (["--na", "2", "--nmax", "128"], "sector 0 has non-finite levels: its entries overflow"),
    ], ids=["lanczos", "cutoff-search", "dense"])
    def test_overflowing_sector_exits_invalid(self, tmp_path, capsys, size, message):
        with warnings.catch_warnings():
            # every warning goes to stderr, as it would outside pytest
            warnings.simplefilter("always")
            warnings.showwarning = lambda msg, cat, name, line, file=None, text=None: (
                sys.stderr.write(warnings.formatwarning(msg, cat, name, line, text)))
            rc = run(
                "store-retrieve", "--configuration", "lambda", "--omega1", "0", "--omega2", "0",
                "--omega3", "1", "--mu13", "1e307", "--mu23", "1e307", *size,
                "--out", str(tmp_path / "x.csv"),
            )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: invalid configuration: {message}" in err
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err

    def test_nonfinite_step_named(self, tmp_path, capsys):
        rc = run(
            "phase-diagram", "--configuration", "xi", "--omega2", "1", "--omega3", "2",
            "--dmu", "nan", "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "dmu must be a finite real number" in err
        assert "convert" not in err

    @pytest.mark.parametrize("argv, message", [
        (["phase-diagram", "--configuration", "xi", "--threads", "-3"], "threads must be at least 1, got -3"),
        (["phase-diagram", "--configuration", "xi", "--threads", "0"], "threads must be at least 1, got 0"),
        (["populations", "--configuration", "v", "--nmax", "4", "--grid", "-2"], "grid must be at least 0, got -2"),
        (["evolve", "--configuration", "v", "--nmax", "4", "--t-steps", "-5"], "t_steps must be at least 0, got -5"),
        (["separatrix", "--configuration", "v", "--samples", "-1"], "samples must be at least 0, got -1"),
        (["rotate-check", "--samples", "-2"], "samples must be at least 0, got -2"),
    ])
    def test_bad_count_named(self, tmp_path, capsys, argv, message):
        assert run(*argv, "--out", str(tmp_path / "x.csv")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["--rays", "1", "--s-max", "1", "--dmu", "1e-12"],  # 1e12 radii
        ["--rays", "1000000000000"],
    ])
    def test_refused_allocation_exits_invalid(self, tmp_path, capsys, argv):
        # Each request asks numpy for 7.28 TiB at once, which is refused;
        # the address-space cap makes sure of it wherever memory overcommits.
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (2**40, hard))
        try:
            rc = run("phase-diagram", "--configuration", "xi", *argv, "--out", str(tmp_path / "x.csv"))
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert rc == 2
        err = capsys.readouterr().err
        assert "out of memory: Unable to allocate 7.28 TiB" in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_negative_mu_max_named(self, tmp_path, capsys):
        # unchecked, the grid's corner failed as "mu13 must be nonnegative"
        assert run("populations", "--configuration", "v", "--nmax", "4", "--mu-max", "-1",
                   "--out", str(tmp_path / "x.csv")) == 2
        err = capsys.readouterr().err
        assert "mu_max must be nonnegative, got -1.0" in err and "mu13" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, written", [
        (["populations", "--configuration", "v", "--nmax", "4", "--frame", "first", "--grid", "0"], "x_first.csv"),
        (["evolve", "--configuration", "v", "--nmax", "4", "--mu12", "0.5", "--t-steps", "0"], "x.csv"),
        (["separatrix", "--configuration", "v", "--samples", "0"], "x.csv"),
    ])
    def test_zero_count_gives_an_empty_table(self, tmp_path, argv, written):
        assert run(*argv, "--out", str(tmp_path / "x.csv")) == 0
        assert read_csv(tmp_path / written)[2] == []

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

    def test_non_integer_dimension_guard_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DICKE3_MAX_DIM", "abc")
        rc = run("spectrum", *LAMBDA_ARGS, "--nmax", "2", "--out", str(tmp_path / "x.csv"))
        assert rc == 2
        assert "DICKE3_MAX_DIM must be an integer, got 'abc'" in capsys.readouterr().err

    def test_rotate_check_atomic_dimension_guard(self, tmp_path, monkeypatch, capsys):
        # atomic matrices are cached per process: no other test may use na = 40
        monkeypatch.setenv("DICKE3_MAX_DIM", "100")
        rc = run("rotate-check", "--na", "40", "--out", str(tmp_path / "x.csv"))
        assert rc == 2
        assert "atomic dimension 861 exceeds the guard 100" in capsys.readouterr().err
