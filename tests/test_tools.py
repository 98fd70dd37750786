import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from dicke3.cli import COMMANDS

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "tools" / "diff_outputs.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


diff_outputs = _load(_SCRIPT)
run_recipes = _load(_ROOT / "tools" / "run_recipes.py")
bench_pairs = _load(_ROOT / "tools" / "bench_pairs.py")

CSV = "index,energy\n# na = 2\n# nmax = 2\n0,-1.5\n1,0.25\n"


def _dirs(tmp_path, old_files, new_files):
    dirs = []
    for name, files in (("old", old_files), ("new", new_files)):
        d = tmp_path / name
        d.mkdir()
        for fname, text in files.items():
            (d / fname).write_text(text)
        dirs.append(str(d))
    return dirs


@pytest.mark.parametrize(
    "old_files, new_files, expected, code",
    [
        ({"a.csv": CSV}, {"a.csv": CSV}, "a.csv: identical", 0),
        ({"a.csv": CSV}, {"a.csv": CSV.replace("0.25", "0.2500001")}, "a.csv: 1 numeric cells differ", 0),
        ({"a.csv": CSV}, {"a.csv": CSV.replace("# nmax = 2\n", "")}, "# nmax: 2 -> (absent)", 1),
        ({"a.csv": CSV, "b.exit": "0\n"}, {"a.csv": CSV}, "b.exit: only in", 1),
    ],
    ids=["identical", "moved-cell", "missing-metadata", "one-side-only"],
)
def test_diff_outputs(tmp_path, capsys, old_files, new_files, expected, code):
    assert diff_outputs.main(_dirs(tmp_path, old_files, new_files)) == code
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize(
    "old, new, expected",
    [
        ("0.25", "0.2500001", "max |diff| 1e-07, max |diff / old| 4e-07;"),
        ("-1.5", "-1.5003", "max |diff| 0.0003, max |diff / old| 0.0002;"),
        ("0", "3e-9", "max |diff| 3e-09, max |diff / old| 3e-09;"),  # old = 0: absolute
        ("-1e-22", "-3e-22", "0 numeric cells differ, max |diff| 0, max |diff / old| 0; 1 cells below"),
    ],
    ids=["small-cell", "negative-cell", "zero-old-cell", "tiny-cells"],
)
def test_compare_csv_reports_relative_difference(old, new, expected):
    one = "index,energy\n# na = 2\n0,{}\n1,{}\n"
    verdict, same_shape = diff_outputs.compare_csv(one.format(old, "1.0"), one.format(new, "1.0"))
    assert expected in verdict and same_shape


def test_compare_csv_takes_the_largest_relative_difference_apart_from_the_absolute():
    # The largest absolute difference sits in the big cell, the largest
    # relative one in the small cell.
    old, new = "a,b\n100,1e-6\n", "a,b\n100.001,1.5e-6\n"
    verdict, _ = diff_outputs.compare_csv(old, new)
    assert verdict.startswith("2 numeric cells differ, max |diff| 0.001, max |diff / old| 0.5;")


@pytest.mark.parametrize("files", [1, 2000], ids=["flush-at-exit", "write-in-loop"])
def test_diff_outputs_closed_pipe_is_quiet(tmp_path, files):
    # The read end is closed before the script starts, so its first write to
    # standard output fails, from the final flush (one line) or from a print
    # once the buffer fills (two thousand lines), as under `| head`.
    texts = {f"f{i:04d}.csv": CSV for i in range(files)}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, str(_SCRIPT), *_dirs(tmp_path, texts, texts)],
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert proc.stderr == ""
    assert proc.returncode == 1


@pytest.mark.parametrize("recipe", sorted((_ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_recipe_maps_to_a_command_and_its_keys(recipe):
    # The recipe gate runs each recipe through the command its name maps to;
    # a key that command does not declare would end the run with exit 2.
    command = run_recipes.command_for(recipe.stem)
    assert command in COMMANDS
    assert set(json.loads(recipe.read_text())) <= set(COMMANDS[command][1])


tracing = _load(_ROOT / "perfbench" / "tracing.py")

_MODEL = ["--na", "1", "--omega3", "1"]


@pytest.mark.parametrize("argv", [
    ["phase-diagram", "--configuration", "xi", "--omega2", "1", "--omega3", "2", "--na", "1",
     "--rays", "3", "--s-max", "0.3", "--dmu", "0.1"],
    ["populations", "--configuration", "lambda", *_MODEL, "--grid", "2", "--mu-max", "0.5"],
    ["store-retrieve", "--configuration", "lambda", *_MODEL, "--mu13", "0.6", "--mu23", "0.8"],
], ids=lambda argv: argv[0])
def test_tracer_runs_a_workload_command(tmp_path, argv):
    # The benchmark's tracer wraps the package's public functions and reads
    # basis sizes and search results from their arguments and results.
    spans_path = tmp_path / "spans.json"
    cmd = [sys.executable, str(_ROOT / "perfbench" / "tracing.py"), str(_ROOT / "src"),
           str(spans_path), "smoke", *argv, "--out", str(tmp_path / "out.csv")]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    assert any(s[2] == "solver.ground_state" for s in spans)
    metrics = tracing.per_layer(spans, 1.0, 1.0)
    assert metrics["solver.ground_state.calls"] > 0
    assert metrics["basis.enumerate_basis.calls"] > 0


def _bench_record(wall):
    """One ``perfbench/run.py`` result line with a wall time."""
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": 0.5, "unit": "s"}}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}


def test_bench_pairs_summary():
    seeds = bench_pairs.seeds_of("130..139")
    parent = [_bench_record(1.0 + 0.01 * i) for i in range(10)]
    change = [_bench_record(0.8 + 0.01 * i) for i in range(10)]
    entry = bench_pairs.summary(seeds, parent, change)
    assert entry["pairs"] == 10 and entry["seeds"] == list(range(130, 140))
    assert entry["first_in_pair"][:3] == ["change", "parent", "change"]  # the parent first on odd seeds
    assert entry["parent"]["runs"]["wall_s"][:2] == [1.0, 1.01]
    assert entry["parent"]["stats"]["wall_s"] == {"q1": 1.0225, "median": 1.045, "q3": 1.0675}
    assert entry["change"]["stats"]["wall_s"]["median"] == 0.845
    assert (entry["parent"]["attempted"], entry["parent"]["failed"], entry["parent"]["correct"]) == (30, 0, True)
    assert entry["change_lower_in_pairs"] == {"wall_s": 10, "setup_s": 0}
    assert entry["change_over_parent_median"] == {"wall_s": round(0.845 / 1.045, 4), "setup_s": 1.0}


@pytest.mark.parametrize("shift, losses, met", [
    (0.2, 0, True),
    (0.2, 1, True),  # 9 of 10 pairs
    (0.2, 2, False),  # 8 of 10 pairs, though the medians lie 0.19 apart
    (0.04, 0, False),  # 10 of 10 pairs, but 0.04 apart within the parent's IQR 0.045
])
def test_bench_pairs_verdict(shift, losses, met):
    parent = [_bench_record(1.0 + 0.01 * i) for i in range(10)]
    change = [_bench_record(2.0 if i < losses else 1.0 + 0.01 * i - shift) for i in range(10)]
    result = bench_pairs.verdict(bench_pairs.summary(range(10), parent, change), "wall_s")
    assert result["change_lower_in_pairs"] == 10 - losses and result["parent_iqr"] == 0.045
    assert result["met"] is met


def test_bench_pairs_seed_range():
    assert bench_pairs.seeds_of("7..7") == [7]
    with pytest.raises(ValueError, match="A <= B"):
        bench_pairs.seeds_of("9..3")


def test_bench_pairs_runs_each_side_from_a_bytecode_cache_of_its_own(tmp_path):
    # A checkout holding __pycache__ imports faster than one that compiles,
    # so every run starts from a fresh, empty cache prefix of its own, which
    # an untimed run of the workload fills first; no process is started here.
    calls = []

    def fake_run(argv, *, cwd, env, **kwargs):
        assert "PYTHONDONTWRITEBYTECODE" not in env
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        calls.append((cwd, prefix, argv[argv.index("--seconds") + 1], sorted(p.name for p in prefix.iterdir())))
        (prefix / "module.pyc").write_bytes(b"")  # what a run leaves in its cache
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(_bench_record(1.0)) + "\n")

    parent, change = tmp_path / "parent", tmp_path / "change"
    with mock.patch.object(bench_pairs.subprocess, "run", fake_run), \
            mock.patch.dict(os.environ, {"PYTHONDONTWRITEBYTECODE": "1"}):
        for seed in (171, 172):
            for checkout in (parent, change):
                assert bench_pairs.run_once(checkout, "grid", seed)["metrics"]["wall_s"]["value"] == 1.0
    assert [cwd for cwd, *_ in calls] == [parent, parent, change, change] * 2
    assert [(seconds, files) for _, _, seconds, files in calls] == [("0", []), ("35", ["module.pyc"])] * 4
    prefixes = [prefix for _, prefix, *_ in calls]
    assert prefixes[::2] == prefixes[1::2] and len(set(prefixes)) == 4
    assert not any(prefix.exists() for prefix in prefixes)
