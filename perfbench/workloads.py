"""The four benchmark workloads.

Each workload is a closed loop with one caller: `prepare(k)` builds the
k-th request's arguments outside the timed region, `request(call, args)`
is the timed unit of user work, and `check(k, args, out)` verifies the
output with the independent checks in checks.py.  Every call into a
bornsolve module goes through `call(span_name, fn, *args)`, which is a
plain call in the untraced run and a recorded span in the traced run.
`extras` holds calls made only in the traced run, outside the request.

Why each workload is here:

* deep_dag: the termwise sum does depth x nnz Python multiply-adds, so
  solver and matvec work dominate the request.
* cli_spec: child-process CLI calls on a spec file, where interpreter
  start, imports, JSON, the dense det(I - T) and the report dominate and
  the solve is under 1%; a solver-only change should not move it.
* diamond_stream: a four-level energy scan, under 100 us a request and
  all fixed per-call overhead; per-call costs added for large systems
  show up here.
* resolvent_truncation: the only user of matmul/power with fill-in,
  dense n x n outputs and the truncation module.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys

import numpy as np

import bornsolve.cli
from bornsolve import (
    SparseOperator,
    basis_state,
    build_transfer_operator,
    classify_interference,
    det_check,
    det_i_minus_t,
    direct_solve_oracle,
    free_resolvent_diagonal,
    full_resolvent,
    load_spec,
    make_system,
    remainder_bound,
    solve_exact,
    spec_to_operator,
    t_matrix,
)

import checks
import inputs

CHILD_TIMEOUT_S = 120


class Workload:
    """Defaults shared by the workloads; see the module docstring for the protocol."""

    name = ""
    warmup = 1
    layers: dict[str, str] = {}

    def warm(self, call, k: int):
        """One warm-up request: returns (args, out) for check()."""
        args = self.prepare(k)
        return args, self.request(call, args)

    def extras(self, call, args, out) -> dict:
        """Traced-run-only calls after a request; returns that request's counts."""
        return {}


class DeepDag(Workload):
    name = "deep_dag"
    warmup = 1
    layers = {
        "operators.build_s": "s", "operators.nnz": "count",
        "operators.build_entries_per_s": "1/s", "graph.certify_s": "s",
        "graph.depth": "count", "solver.solve_exact_s": "s", "solver.entry_ops": "count",
        "solver.dense_oracle_s": "s", "solver.backward_error_max": "ratio",
    }

    def __init__(self, seed: int, workdir):
        self.inputs = inputs.DeepDagInputs(seed)
        self.backward_errors: list[float] = []
        self.seen: dict[int, tuple[int, int]] = {}

    def realised(self) -> dict:
        """dim, nnz and depth of the pool draws the run used."""
        nnz, depth = zip(*self.seen.values())
        return {"dim": inputs.DEEP_DIM, "pool": inputs.DEEP_POOL, "draws_used": len(self.seen),
                "nnz_median": statistics.median(nnz), "nnz_range": [min(nnz), max(nnz)],
                "depth_median": statistics.median(depth), "depth_range": [min(depth), max(depth)]}

    def prepare(self, k: int):
        dag = self.inputs.draw(k)
        self.seen[k % inputs.DEEP_POOL] = (dag.couplings.nnz, dag.depth)
        return dag.couplings.records(), self.inputs.phi(k), dag.couplings

    def request(self, call, args):
        records, phi, _ = args
        op = call("operators.build", SparseOperator, inputs.DEEP_DIM, records)
        system = call("graph.certify", make_system, op)
        return op, system, call("solver.solve_exact", solve_exact, system, phi)

    def check(self, k: int, args, out):
        reason, err = checks.check_deep_dag(checks.csr(args[2]), args[1], out[2].total)
        self.backward_errors.append(err)
        return reason

    def extras(self, call, args, out) -> dict:
        op, system, _ = out
        call("solver.dense_oracle", direct_solve_oracle, op, args[1])
        return {"nnz": op.nnz, "depth": system.depth}

    def layer_metrics(self, spans, counts) -> dict:
        build = spans.per_request("operators.build")
        rates = [counts[r]["nnz"] / t for r, t in build.items()]
        return {
            "operators.build_s": spans.median("operators.build"),
            "operators.nnz": statistics.median(c["nnz"] for c in counts.values()),
            "operators.build_entries_per_s": statistics.median(rates),
            "graph.certify_s": spans.median("graph.certify"),
            "graph.depth": statistics.median(c["depth"] for c in counts.values()),
            "solver.solve_exact_s": spans.median("solver.solve_exact"),
            "solver.entry_ops": statistics.median(
                c["nnz"] * c["depth"] for c in counts.values()),
            "solver.dense_oracle_s": spans.median("solver.dense_oracle"),
            "solver.backward_error_max": max(self.backward_errors),
        }


class CliSpec(Workload):
    name = "cli_spec"
    warmup = 3  # each warm-up is one `analyze` child, the first invocation a user makes
    layers = {
        "specfile.load_s": "s", "specfile.to_operator_s": "s", "specfile.bytes": "count",
        "graph.certify_s": "s", "solver.det_i_minus_t_s": "s", "solver.solve_exact_s": "s",
        "cli.analyze_s": "s", "cli.solve_s": "s", "cli.startup_s": "s", "cli.self_s": "s",
        "report.bytes_out": "count",
    }

    def __init__(self, seed: int, workdir):
        self.inputs = inputs.cli_spec_inputs(seed)
        self.spec_path = os.path.join(workdir, f"cli_spec-{seed}.json")
        with open(self.spec_path, "w", encoding="utf-8") as handle:
            handle.write(self.inputs.text)
        self.spec_bytes = len(self.inputs.text.encode())
        dim = self.inputs.couplings.dim
        self.expected = checks.triangular_solve(self.inputs, np.eye(dim, dtype=complex)[0])
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))

    def realised(self) -> dict:
        c = self.inputs.couplings
        return {"dim": c.dim, "nnz": c.nnz, "depth": self.inputs.depth,
                "spec_bytes": self.spec_bytes}

    def _child(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "bornsolve", *argv], env=self.env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def warm(self, call, k: int):
        return None, call("cli.child.analyze", self._child, "analyze", self.spec_path)

    def prepare(self, k: int):
        return self.spec_path

    def request(self, call, spec):
        analyze = call("cli.child.analyze", self._child, "analyze", spec)
        solve = call("cli.child.solve", self._child, "solve", spec, "--phi", "1")
        return analyze, solve

    def check(self, k: int, args, out):
        if args is None:  # a warm-up: `analyze` alone
            return checks.check_cli_analyze(self.inputs, *out)
        return (checks.check_cli_analyze(self.inputs, *out[0])
                or checks.check_cli_solve(self.inputs, self.expected, *out[1]))

    def _in_process(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            code = bornsolve.cli.main(argv)
        return code, sink.getvalue()

    def extras(self, call, spec, out) -> dict:
        loaded = call("specfile.load", load_spec, spec)
        op = call("specfile.to_operator", spec_to_operator, loaded)
        system = call("graph.certify", make_system, op)
        call("solver.det_i_minus_t", det_i_minus_t, op)
        call("solver.solve_exact", solve_exact, system, basis_state(op.dim, 1))
        analyze = call("cli.main.analyze", self._in_process, ["analyze", spec])
        solve = call("cli.main.solve", self._in_process, ["solve", spec, "--phi", "1"])
        reason = self.check(0, spec, (analyze, solve))
        if reason:
            raise RuntimeError(f"in-process CLI: {reason}")
        return {"bytes_out": len(analyze[1].encode()) + len(solve[1].encode())}

    def layer_metrics(self, spans, counts) -> dict:
        per = {name: spans.per_request(name) for name in (
            "cli.child.analyze", "cli.child.solve", "cli.main.analyze", "cli.main.solve",
            "specfile.load", "specfile.to_operator", "graph.certify",
            "solver.det_i_minus_t", "solver.solve_exact")}
        child_a, child_s = per["cli.child.analyze"], per["cli.child.solve"]
        main_a, main_s = per["cli.main.analyze"], per["cli.main.solve"]
        # analyze and solve each load, convert and certify; analyze adds det, solve the sum
        library = {r: 2 * (per["specfile.load"][r] + per["specfile.to_operator"][r]
                           + per["graph.certify"][r])
                   + per["solver.det_i_minus_t"][r] + per["solver.solve_exact"][r]
                   for r in main_a}
        return {
            "specfile.load_s": spans.median("specfile.load"),
            "specfile.to_operator_s": spans.median("specfile.to_operator"),
            "specfile.bytes": self.spec_bytes,
            "graph.certify_s": spans.median("graph.certify"),
            "solver.det_i_minus_t_s": spans.median("solver.det_i_minus_t"),
            "solver.solve_exact_s": spans.median("solver.solve_exact"),
            "cli.analyze_s": spans.median("cli.main.analyze"),
            "cli.solve_s": spans.median("cli.main.solve"),
            "cli.startup_s": statistics.median(
                child_a[r] + child_s[r] - main_a[r] - main_s[r] for r in main_a),
            "cli.self_s": statistics.median(
                main_a[r] + main_s[r] - library[r] for r in main_a),
            "report.bytes_out": statistics.median(c["bytes_out"] for c in counts.values()),
        }


class DiamondStream(Workload):
    name = "diamond_stream"
    warmup = 200
    layers = {
        "operators.build_s": "s", "operators.transfer_build_s": "s",
        "graph.certify_s": "s", "scenarios.classify_s": "s",
    }

    def __init__(self, seed: int, workdir):
        self.inputs = inputs.diamond_inputs(seed)
        self.records = self.inputs.potential.records()

    def realised(self) -> dict:
        return {"dim": 4, "nnz": self.inputs.potential.nnz, "depth": 2,
                "energies": int(self.inputs.energies.size)}

    def prepare(self, k: int):
        return self.inputs.energy(k)

    def request(self, call, energy):
        v = call("operators.build", SparseOperator, 4, self.records)
        t = call("operators.transfer_build", build_transfer_operator, self.inputs.h0, v, energy)
        system = call("graph.certify", make_system, t)
        return call("scenarios.classify", classify_interference, system)

    def check(self, k: int, energy, out):
        expected = checks.diamond_expected(self.inputs.h0, self.inputs.potential, energy)
        return checks.check_diamond(expected, out.a4, out.a4_born1, out.regime)

    def layer_metrics(self, spans, counts) -> dict:
        return {name + "_s": spans.median(name) for name in (
            "operators.build", "operators.transfer_build", "graph.certify",
            "scenarios.classify")}


class ResolventTruncation(Workload):
    name = "resolvent_truncation"
    warmup = 1
    layers = {
        "operators.build_s": "s", "operators.nnz": "count", "operators.transfer_build_s": "s",
        "graph.certify_s": "s", "graph.depth": "count", "solver.full_resolvent_s": "s",
        "solver.t_matrix_s": "s", "solver.det_check_s": "s",
        "truncation.remainder_bound_s": "s", "solver.backward_error_max": "ratio",
    }

    def __init__(self, seed: int, workdir):
        self.inputs = inputs.ResolventInputs(seed)
        self.residuals: list[float] = []

    def realised(self) -> dict:
        draw = self.inputs.draw(0)
        return {"dim": inputs.RESOLVENT_DIM, "nnz": draw.potential.nnz, "depth": draw.depth,
                "cyclic_nnz": draw.cyclic.nnz, "remainder_order": draw.order}

    def prepare(self, k: int):
        draw = self.inputs.draw(k)
        return draw, draw.potential.records(), draw.cyclic.records(), self.inputs.phi(k)

    def request(self, call, args):
        draw, v_records, cyclic_records, phi = args
        dim = inputs.RESOLVENT_DIM
        v = call("operators.build", SparseOperator, dim, v_records)
        t = call("operators.transfer_build", build_transfer_operator, draw.h0, v, draw.energy)
        system = call("graph.certify", make_system, t)
        g0 = call("operators.free_resolvent", free_resolvent_diagonal, draw.h0, draw.energy)
        resolvent = call("solver.full_resolvent", full_resolvent, system, g0)
        tm = call("solver.t_matrix", t_matrix, system, v)
        det = call("solver.det_check", det_check, system)
        cyclic = call("operators.build", SparseOperator, dim, cyclic_records)
        report = call("truncation.remainder_bound", remainder_bound, cyclic, phi, draw.order)
        return v, system, resolvent, tm, det, report

    def check(self, k: int, args, out):
        draw, _, _, phi = args
        _, _, resolvent, tm, det, report = out
        reason, worst = checks.check_resolvent(draw, phi, resolvent, tm, det, report)
        self.residuals.append(worst)
        return reason

    def extras(self, call, args, out) -> dict:
        return {"nnz": out[0].nnz, "depth": out[1].depth}

    def layer_metrics(self, spans, counts) -> dict:
        out = {name + "_s": spans.median(name) for name in (
            "operators.build", "operators.transfer_build", "graph.certify",
            "solver.full_resolvent", "solver.t_matrix", "solver.det_check",
            "truncation.remainder_bound")}
        out["operators.nnz"] = statistics.median(c["nnz"] for c in counts.values())
        out["graph.depth"] = statistics.median(c["depth"] for c in counts.values())
        out["solver.backward_error_max"] = max(self.residuals)
        return out


WORKLOADS = {w.name: w for w in (DeepDag, CliSpec, DiamondStream, ResolventTruncation)}


def layer_units(w) -> dict[str, str]:
    """Units of every per-layer metric a workload reports in the traced run."""
    return {**w.layers, "trace.overhead_s": "s"}


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name of the traced run, `<workload>.<metric>`, with its unit."""
    return {f"{name}.{m}": unit for name, w in WORKLOADS.items()
            for m, unit in layer_units(w).items()}
