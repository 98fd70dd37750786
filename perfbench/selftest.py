"""Quick tests of the benchmark itself (about two minutes).

    python3 perfbench/selftest.py

- every metric BENCHMARK.json names is printed, by name and with its unit;
- a tampered output is counted as failed;
- the rotation matrix is built on store only;
- the layers' self times account for the traced wall time, and the layer
  shares keep the order the seed profile shows.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest

import check
import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYER_TOTALS = [f"{layer}.self_s" for layer in ("basis", "operators", "model", "rotations", "solver",
                                                "analysis", "protocol", "cli")] + ["process.import_s"]


def bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True,
    )
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.untraced = bench("pencil", 0)
        cls.traced = {name: bench(name, 1) for name in WORKLOADS}

    def assert_reported(self, output: tuple[str, dict], declared: list[dict]) -> None:
        stdout, result = output
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"], metric["name"])
            line = rf"^{re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}$"
            self.assertRegex(stdout, re.compile(line, re.M))
        self.assertRegex(stdout, re.compile(r"^failed_frac = 0 ratio", re.M))

    def test_every_metric_printed_with_unit(self):
        self.assert_reported(self.untraced, BENCHMARK["end_to_end"])
        for output in self.traced.values():
            self.assert_reported(output, BENCHMARK["per_layer"])

    def test_tampered_output_counts_as_failed(self):
        tampered = {
            "pencil": lambda t: t.replace("-3.49337742643e-09", "-3.49337742643e-08"),
            "grid": lambda t: t.replace("# nmax = 128", "# nmax = 256"),
            "store": lambda t: t.replace("# content_overlap = 1", "# content_overlap = 0.9"),
        }
        for name, tamper in tampered.items():
            work = run.WORK / f"selftest-{name}"
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(check.reference_path(name, 0, ""), work)
            try:
                self.assertEqual(run.count_failed([{"problems": check.check_invocation(name, 0, work)}]), 0)
                first = work / WORKLOADS[name].outputs[0]
                original = first.read_text()
                first.write_text(tamper(original))
                self.assertNotEqual(first.read_text(), original, name)
                self.assertEqual(run.count_failed([{"problems": check.check_invocation(name, 0, work)}]), 1, name)
            finally:
                shutil.rmtree(work)

    def test_invariants_catch_unphysical_rows(self):
        grid = check.reference_path("grid", 0, "out_first.csv").read_text()
        header, meta, rows = check.parse(grid)
        rows[0][2] = str(float(rows[0][2]) + 1e-6)
        broken = "\n".join([header, *meta, *(",".join(r) for r in rows)])
        self.assertTrue(check.invariants("grid", broken))
        store = check.reference_path("store", 0, "out.csv").read_text()
        self.assertTrue(check.invariants("store", re.sub(r"^stored,[^,]*", "stored,0.5", store, flags=re.M)))

    def test_rotation_matrix_built_on_store_only(self):
        calls = {name: out[1]["metrics"]["rotations.rotation_matrix.calls"]["value"]
                 for name, out in self.traced.items()}
        self.assertEqual(calls["pencil"], 0)
        self.assertEqual(calls["grid"], 0)
        self.assertGreater(calls["store"], 0)

    def test_self_times_account_for_traced_wall(self):
        for name, (_, result) in self.traced.items():
            m = {k: v["value"] for k, v in result["metrics"].items()}
            covered = sum(m[k] for k in LAYER_TOTALS)
            self.assertLessEqual(covered, m["trace.wall_s"], name)
            # What is left is interpreter start and writing the spans.
            self.assertGreater(covered, 0.8 * m["trace.wall_s"], name)

    def test_layer_shares_follow_seed_profile(self):
        pencil = {k: v["value"] for k, v in self.traced["pencil"][1]["metrics"].items()}
        rest = [v for k, v in pencil.items() if k.endswith("self_s") and k not in LAYER_TOTALS
                and k not in ("solver.ground_state.self_s", "model.assemble.self_s")]
        self.assertGreater(pencil["solver.ground_state.self_s"], pencil["model.assemble.self_s"])
        self.assertGreater(pencil["model.assemble.self_s"], max(rest))
        store = {k: v["value"] for k, v in self.traced["store"][1]["metrics"].items()}
        self.assertGreater(store["solver.converged_ground_state.total_s"],
                           0.5 * sum(store[k] for k in LAYER_TOTALS))


if __name__ == "__main__":
    unittest.main(verbosity=2)
