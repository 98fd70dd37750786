import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "diff_outputs.py"
_SPEC = importlib.util.spec_from_file_location("diff_outputs", _SCRIPT)
diff_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_outputs)

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
