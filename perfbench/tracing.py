"""Spans around every public function of the dicke3 layers, and the
per-layer metrics derived from them.

The wrappers are installed from here at run time; no file of the package
changes.  Run as a script, this module executes one CLI invocation in its own
process with the wrappers installed and writes the spans as JSON:

    python3 perfbench/tracing.py SRC_DIR SPANS_JSON RUN_ID <dicke3 argv...>
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("basis", "operators", "model", "rotations", "solver", "analysis", "protocol", "cli")
SPAN_FIELDS = ("id", "run_id", "name", "start", "end", "parent", "info")
ASSEMBLE = ("model.build_hamiltonian", "model.build_rotated_hamiltonian", "model.build_frame_hamiltonian")


def _dim_arg(args, kwargs):
    return (args[0] if args else kwargs["H"]).dim


# Facts about a call, taken from its arguments and result for the counters.
_INFO = {
    "solver.ground_state": lambda a, k, r: [_dim_arg(a, k), r.degenerate],
    "solver.diagonalize": lambda a, k, r: [_dim_arg(a, k)],
    "solver.lowest_energy": lambda a, k, r: [
        _dim_arg(a, k),
        2 * (a[1] if len(a) > 1 else k["basis"]).atomic_dim - 1,
    ],
    "solver.converged_ground_state": lambda a, k, r: [r[0], r[1].basis.dim],
    "rotations.rotation_matrix": lambda a, k, r: [r.matrix.nbytes],
    "analysis.scan_ray": lambda a, k, r: [len(r.minima)],
    **{name: (lambda a, k, r: [r.matrix.nbytes]) for name in ASSEMBLE},
}


class Tracer:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), self.run_id, name, start, end, parent, None])

    def wrap(self, name: str, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self.run_id, name, 0.0, 0.0, None, None]
            span[5] = self._stack[-1] if self._stack else None
            self.spans.append(span)
            self._stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


def install(tracer: Tracer) -> int:
    """Wrap every public function the layers define, in every namespace of
    the package that refers to it, and ``OperatorMatrix`` construction.
    Returns the number of functions wrapped."""
    package = importlib.import_module("dicke3")
    modules = {layer: importlib.import_module(f"dicke3.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    operator_matrix = modules["operators"].OperatorMatrix
    operator_matrix.__init__ = tracer.wrap("operators.OperatorMatrix", operator_matrix.__init__)
    return len(wrapped)


def _dense_flops(n: int) -> float:
    # Reduction to tridiagonal form, the dominant term of a dense symmetric solve.
    return 4.0 / 3.0 * n**3 if n > 1 else 0.0


def per_layer(spans: list[list], traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced workload run."""
    def key(s):
        return (s[1], s[0])

    by_key = {key(s): s for s in spans}
    child_time = defaultdict(float)
    children = defaultdict(list)
    for s in spans:
        if s[5] is not None:
            parent = (s[1], s[5])
            child_time[parent] += s[4] - s[3]
            children[parent].append(s)

    def self_time(s):
        return s[4] - s[3] - child_time[key(s)]

    def parent_name(s):
        return None if s[5] is None else by_key[(s[1], s[5])][2]

    named = defaultdict(list)
    for s in spans:
        named[s[2]].append(s)

    def calls(name):
        return float(len(named[name]))

    def self_sum(names):
        return sum((self_time(s) for name in names for s in named[name]), 0.0)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((self_time(s) for s in spans if s[2].startswith(layer + ".")), 0.0)
    m["process.import_s"] = self_sum(["process.import"])

    gs = named["solver.ground_state"]
    m["solver.ground_state.calls"] = calls("solver.ground_state")
    m["solver.ground_state.self_s"] = self_sum(["solver.ground_state"])
    m["solver.ground_state.dim_max"] = float(max((s[6][0] for s in gs), default=0))
    m["solver.ground_state.degenerate_frac"] = sum(s[6][1] for s in gs) / len(gs) if gs else 0.0

    le = named["solver.lowest_energy"]
    m["solver.lowest_energy.calls"] = calls("solver.lowest_energy")
    m["solver.lowest_energy.self_s"] = self_sum(["solver.lowest_energy"])
    m["solver.lowest_energy.dim_max"] = float(max((s[6][0] for s in le), default=0))

    cgs = named["solver.converged_ground_state"]
    # (child solve, dimension the search returned) for every solve inside a search
    solves = [(c, s[6][1]) for s in cgs for c in children[key(s)]
              if c[2] in ("solver.lowest_energy", "solver.ground_state")]
    useful = sum(1 for c, returned_dim in solves if c[6][0] == returned_dim)
    m["solver.converged_ground_state.calls"] = calls("solver.converged_ground_state")
    m["solver.converged_ground_state.self_s"] = self_sum(["solver.converged_ground_state"])
    m["solver.converged_ground_state.total_s"] = sum(s[4] - s[3] for s in cgs)
    m["solver.converged_ground_state.cutoffs_tried"] = float(sum(c[2] == "solver.lowest_energy" for c, _ in solves))
    m["solver.converged_ground_state.useful_frac"] = useful / len(solves) if solves else 0.0

    flops = sum(_dense_flops(s[6][0]) for s in gs + named["solver.diagonalize"])
    for s in le:
        n, halfwidth = s[6]
        flops += _dense_flops(n) if halfwidth >= n else 6.0 * n * n * halfwidth
    m["solver.eigh_flops_computed"] = flops

    outer_assemble = [s for name in ASSEMBLE for s in named[name] if parent_name(s) not in ASSEMBLE]
    m["model.assemble.calls"] = float(len(outer_assemble))
    m["model.assemble.self_s"] = self_sum(ASSEMBLE)
    m["model.assemble.bytes_computed"] = float(sum(s[6][0] for s in outer_assemble))

    for name in ("operators.atomic_collective_matrix", "operators.OperatorMatrix", "basis.enumerate_basis",
                 "analysis.scan_ray", "analysis.fidelity", "rotations.rotation_matrix"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_sum([name])
    m["rotations.rotation_matrix.bytes_computed"] = float(sum(s[6][0] for s in named["rotations.rotation_matrix"]))
    m["analysis.minima"] = float(sum(s[6][0] for s in named["analysis.scan_ray"]))
    m["protocol.store.self_s"] = self_sum(["protocol.store"])
    m["protocol.retrieve.self_s"] = self_sum(["protocol.retrieve"])

    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.spans"] = float(len(spans))
    return m


def _main(argv: list[str]) -> int:
    src, spans_path, run_id, *cli_argv = argv
    start = time.perf_counter()
    sys.path.insert(0, src)
    cli = importlib.import_module("dicke3.cli")
    tracer = Tracer(run_id)
    tracer.record("process.import", start, time.perf_counter())
    install(tracer)
    try:
        return cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
