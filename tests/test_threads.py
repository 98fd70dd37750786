"""Importing dicke3 defaults the BLAS libraries to one thread per process.

Each check runs in a fresh interpreter: the variables only act if they are
set before numpy loads OpenBLAS, and this test process loaded it long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# blas_record() is the benchmark's own OpenBLAS probe: it asks the library
# that numpy and scipy each load for its thread count.
PROBE = (
    "import json, os, dicke3\n"
    "from run import blas_record\n"
    "print(json.dumps({'env': {n: os.environ.get(n) for n in %r},"
    " 'blas': blas_record()}))\n" % (BLAS_ENV,)
)


def _env(**preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return {**env, **preset}


def _probe(**preset):
    out = subprocess.run([sys.executable, "-c", PROBE], env=_env(**preset),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _threads(record):
    threads = {lib: entry.get("threads") for lib, entry in record["blas"].items()}
    if None in threads.values():
        pytest.skip(f"no OpenBLAS thread query for {threads}")
    return threads


def test_import_sets_one_thread():
    record = _probe()
    assert record["env"] == {name: "1" for name in BLAS_ENV}
    assert _threads(record) == {"numpy": 1, "scipy": 1}


def test_preset_value_wins():
    record = _probe(OPENBLAS_NUM_THREADS="2")
    assert record["env"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    assert _threads(record) == {"numpy": 2, "scipy": 2}


def _spectrum(tmp_path, name, argv, **preset):
    out = tmp_path / f"{name}.csv"
    subprocess.run([sys.executable, "-m", "dicke3.cli", "spectrum", *argv, "--out", str(out)],
                   env=_env(**preset), check=True)
    return out.read_text()


def _split(text):
    """Header and metadata lines, and the data rows as an array."""
    lines = text.splitlines()
    meta = [line for line in lines if not line[0].isdigit()]
    rows = [line.split(",") for line in lines if line[0].isdigit()]
    return meta, np.array(rows, dtype=float)


def test_spectrum_recipe_bytes_independent_of_threads(tmp_path):
    argv = ["--config", str(ROOT / "configs" / "spectrum_lambda_band_labels.json")]
    one = _spectrum(tmp_path, "one", argv)
    assert one == _spectrum(tmp_path, "two", argv, OPENBLAS_NUM_THREADS="2")


def test_full_spectrum_moves_only_roundoff_with_threads(tmp_path):
    # A full dense eigh depends on the BLAS thread count in its last bits:
    # here an exactly zero level prints as -2.2e-15 with one thread and
    # -6.7e-16 with two.
    argv = ["--configuration", "lambda", "--omega3", "1", "--mu13", "0.6", "--mu23", "0.8",
            "--na", "3", "--nmax", "24"]
    meta_one, rows_one = _split(_spectrum(tmp_path, "one", argv))
    meta_two, rows_two = _split(_spectrum(tmp_path, "two", argv, OPENBLAS_NUM_THREADS="2"))
    assert meta_one == meta_two
    assert np.max(np.abs(rows_one - rows_two)) < 1e-13
