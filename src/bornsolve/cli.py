"""Command-line interface.

Subcommands: analyze, solve, classify, bench, scenario.  Reports go to
stdout as flat `key = value` lines (append a human table with --table);
diagnostics and warnings go to stderr.  Exit codes: 0 on success, 1 on
any input problem, 2 when an acyclic transition graph is required but
the input has a directed cycle.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from typing import Any

import numpy as np

from .bench import BenchResult, run_benchmark
from .errors import (
    BornsolveError,
    NotNilpotentError,
    SingularError,
    SpecFormatError,
    TopologyError,
)
from .graph import analyze_acyclicity
from .operators import (
    NORM_KINDS,
    SparseOperator,
    as_state_vector,
    basis_state,
    operator_norm,
)
from .report import _report_lines, first_non_finite, format_complex, format_table
from .scenarios import InterferenceReport, classify_interference
from .solver import _born_terms, det_i_minus_t, make_system, solve_exact
from .specfile import SystemSpec, _parse_complex, load_spec, spec_to_operator
from .truncation import remainder_bound

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CYCLIC = 2

_SCENARIO_FILES = {
    "cascade": "cascade3.spec",
    "diamond": "diamond.spec",
    "double-diamond": "double-diamond.spec",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; bad usage is an input
    # error here, so route it through the exit-code-1 path instead.
    def error(self, message):
        raise _UsageError(message)


def _emit(tree: dict[str, Any], table: str, subject: str) -> int:
    """Write the report and the --table block in one write, or refuse an inf or nan."""
    lines, overflow = _report_lines(tree)
    if overflow:
        print(f"error: the {subject} overflows: {overflow}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write("\n".join(lines) + "\n" + (table and "\n" + table))
    return EXIT_OK


def _state_names(labels, dim: int) -> list[str]:
    if labels is None:
        return [str(k) for k in range(1, dim + 1)]
    return [f"{k} ({name})" for k, name in enumerate(labels, start=1)]


def _parse_phi(text: str, dim: int) -> np.ndarray:
    try:
        index = int(text)
    except ValueError:
        return _load_phi_file(text, dim)
    if not 1 <= index <= dim:
        raise SpecFormatError(f"--phi basis index {index} outside 1..{dim}")
    return basis_state(dim, index)


def _load_phi_file(path: str, dim: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise SpecFormatError(f'{path}: expected a JSON array of {{"re", "im"}} objects')
    if len(raw) != dim:
        raise SpecFormatError(f"{path}: expected {dim} components, got {len(raw)}")
    components = [_parse_complex(item, f"{path}[{pos}]") for pos, item in enumerate(raw)]
    return as_state_vector(components, dim)


def _norm_block(op: SparseOperator) -> dict[str, float]:
    return {kind: operator_norm(op, kind) for kind in NORM_KINDS}


def _cmd_analyze(args) -> int:
    spec = load_spec(args.spec)
    op = spec_to_operator(spec)
    report = analyze_acyclicity(op)
    tree: dict[str, Any] = {
        "command": "analyze",
        "spec": str(args.spec),
        "dimension": op.dim,
        "nnz": op.nnz,
        "is_acyclic": report.is_acyclic,
    }
    if report.is_acyclic:
        tree["topological_order"] = list(report.topological_order)
        tree["depth"] = report.depth
        tree["term_count"] = report.depth + 1
        # unit lower triangular in topological order: det(I - T) is exactly 1
        tree["det"] = 1 + 0j
    else:
        tree["witness_cycle"] = list(report.witness_cycle)
        tree["det"] = det_i_minus_t(op)
    tree["norm"] = _norm_block(op)
    code = _emit(tree, _analysis_table(tree) if args.table else "", "analysis")
    if code or report.is_acyclic:
        return code
    print(
        "note: the transition graph is cyclic; no finite expansion closes exactly",
        file=sys.stderr,
    )
    return EXIT_CYCLIC


def _analysis_table(tree: dict[str, Any]) -> str:
    rows = [["dimension", tree["dimension"]], ["entries", tree["nnz"]],
            ["acyclic", tree["is_acyclic"]]]
    if tree["is_acyclic"]:
        rows.append(["topological order",
                     " ".join(str(v) for v in tree["topological_order"])])
        rows.append(["depth", tree["depth"]])
        rows.append(["terms in expansion", tree["term_count"]])
    else:
        rows.append(["witness cycle",
                     " -> ".join(str(v) for v in tree["witness_cycle"])])
    rows.append(["det(I - T)", format_complex(tree["det"])])
    for kind in NORM_KINDS:
        rows.append([f"norm ({kind})", tree["norm"][kind]])
    return format_table(["property", "value"], rows)


def _cmd_solve(args) -> int:
    if args.norm is not None and args.order is None:
        print("usage error: --norm needs --order", file=sys.stderr)
        return EXIT_INPUT
    spec = load_spec(args.spec)
    op = spec_to_operator(spec)
    phi = _parse_phi(args.phi, op.dim)
    try:
        system = make_system(op)
    except NotNilpotentError as exc:
        if args.order is None:
            cycle = exc.witness_cycle
            loop = " -> ".join(str(v) for v in cycle)
            print(
                f"error: the transition graph contains the cycle {loop} -> "
                f"{cycle[0]}, so no exact finite expansion exists; "
                f"rerun with --order N for a truncated expansion with remainder "
                f"control",
                file=sys.stderr,
            )
            return EXIT_CYCLIC
        system = None
    depth = None if system is None else system.depth

    tree: dict[str, Any] = {
        "command": "solve",
        "spec": str(args.spec),
        "dimension": op.dim,
    }
    if args.order is None:
        tree["mode"] = "exact"
        tree["depth"] = depth
        expansion = solve_exact(system, phi)
        terms, total = expansion.terms, expansion.total
    else:
        tree["mode"] = "truncated"
        tree["order"] = args.order
        if depth is not None:
            tree["depth"] = depth
            if args.order < depth:
                print(
                    f"warning: order {args.order} truncates a depth-{depth} "
                    f"system; the first omitted contribution is order "
                    f"{args.order + 1}",
                    file=sys.stderr,
                )
        terms = tuple(_born_terms(op, phi, args.order))
        total = np.sum(terms, axis=0)
    tree["term_count"] = len(terms)
    # complex state vectors: kv_lines prints each as path.k.re/im lines
    tree["phi"] = phi
    tree["term"] = {str(k): t for k, t in enumerate(terms)}
    tree["total"] = total

    # no budget when a term is not finite (then neither is total): _emit refuses that report
    if args.order is not None and np.isfinite(total).all():
        try:
            trunc = remainder_bound(op, phi, args.order, args.norm or "inf")
        except SingularError as exc:
            reason = str(exc)
        else:
            block: dict[str, Any] = {
                "available": True,
                "order": trunc.order,
                "norm_kind": trunc.norm_kind,
                "operator_norm": trunc.operator_norm,
                "defect_norm": trunc.defect_norm,
                "phi_norm": trunc.phi_norm,
                "remainder_norm": trunc.exact_remainder_norm,
            }
            if trunc.bound is None:
                block["bound_withheld"] = "operator norm >= 1"
            else:
                block["bound"] = trunc.bound
            block["quasi_nilpotent"] = trunc.quasi_nilpotent
            overflow = first_non_finite(block, "truncation.")
            if not overflow:
                reason = None
            elif not np.isfinite(trunc.exact_remainder_norm):
                reason = "the remainder overflows: its norm is not finite"
            else:
                reason = f"the truncation budget overflows: {overflow}"
        if reason:
            print(f"warning: exact remainder unavailable: {reason}", file=sys.stderr)
            tree["truncation"] = {"available": False, "reason": reason}
        else:
            tree["truncation"] = block

    return _emit(tree, _solve_table(spec, terms, total) if args.table else "", "solve")


def _solve_table(spec: SystemSpec, terms, total) -> str:
    names = _state_names(spec.basis_labels, spec.dimension)
    headers = ["state"] + [f"term {k}" for k in range(len(terms))] + ["total"]
    rows = []
    for idx, name in enumerate(names):
        row = [name]
        row.extend(format_complex(t[idx]) for t in terms)
        row.append(format_complex(total[idx]))
        rows.append(row)
    return format_table(headers, rows)


def _cmd_classify(args) -> int:
    spec = load_spec(args.spec)
    op = spec_to_operator(spec)
    try:
        system = make_system(op)
    except NotNilpotentError as exc:
        raise TopologyError(f"not a branch-and-recombine system: {exc}") from exc
    result = classify_interference(system)
    tree: dict[str, Any] = {
        "command": "classify",
        "spec": str(args.spec),
        "dimension": op.dim,
        "regime": result.regime,
        "a4": result.a4,
        "a4_born1": result.a4_born1,
        "path": {
            str(k): {"route": list(p.vertices), "weight": p.weight}
            for k, p in enumerate(result.path_contributions)
        },
    }
    if result.relative_error_born1 is None:
        tree["relative_error_born1"] = "undefined (A4 = 0)"
    else:
        tree["relative_error_born1"] = result.relative_error_born1
    return _emit(tree, _classify_table(result) if args.table else "", "classification")


def _classify_table(result: InterferenceReport) -> str:
    rows = [
        [" -> ".join(str(v) for v in p.vertices), format_complex(p.weight)]
        for p in result.path_contributions
    ]
    rows.append(["coherent sum (exact A4)", format_complex(result.a4)])
    rows.append(["first-order prediction", format_complex(result.a4_born1)])
    rows.append(["regime", result.regime])
    return format_table(["route", "amplitude"], rows)


def _cmd_bench(args) -> int:
    result = run_benchmark(args.dim, args.density, args.seed)
    tree: dict[str, Any] = {
        "command": "bench",
        "dim": result.dim,
        "density": result.density,
        "seed": result.seed,
        "nnz": result.nnz,
        "depth": result.depth,
        "term_count": result.depth + 1,
        "born_seconds": result.born_seconds,
        "dense_seconds": result.dense_seconds,
        "speedup": result.speedup,
        "agreement": result.agreement,
    }
    return _emit(tree, _bench_table(result) if args.table else "", "benchmark")


def _bench_table(result: BenchResult) -> str:
    rows = [
        ["dimension", result.dim],
        ["density", result.density],
        ["entries", result.nnz],
        ["depth", result.depth],
        ["finite-sum solve (s)", result.born_seconds],
        ["dense LU solve (s)", result.dense_seconds],
        ["speedup", result.speedup],
        ["relative agreement", result.agreement],
    ]
    return format_table(["quantity", "value"], rows)


def _cmd_scenario(args) -> int:
    name = _SCENARIO_FILES[args.name]
    text = resources.files("bornsolve").joinpath("specs", name).read_text(
        encoding="utf-8"
    )
    sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--table",
        action="store_true",
        help="append a human-readable table to the report",
    )

    parser = _Parser(
        prog="bornsolve",
        description="Exact finite Born expansions for acyclic multilevel systems.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser(
        "analyze",
        parents=[common],
        help="graph structure, depth, determinant and norms of a system",
    )
    p.add_argument("spec", help="system description file")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser(
        "solve",
        parents=[common],
        help="scattered state, exactly or truncated at a chosen order",
    )
    p.add_argument("spec", help="system description file")
    p.add_argument(
        "--phi",
        required=True,
        help="driving state: a 1-based basis index or a JSON vector file",
    )
    p.add_argument(
        "--order",
        type=_nonnegative_int,
        default=None,
        help="truncate at this order and report the remainder budget",
    )
    p.add_argument(
        "--norm",
        choices=NORM_KINDS,
        default=None,
        help="norm kind for the remainder budget; needs --order (default: inf)",
    )
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser(
        "classify",
        parents=[common],
        help="interference regime of a branch-and-recombine system",
    )
    p.add_argument("spec", help="system description file")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "bench",
        parents=[common],
        help="time the finite-sum solve against dense LU on a random system",
    )
    p.add_argument("--dim", type=int, required=True, help="number of basis states")
    p.add_argument(
        "--density",
        type=float,
        default=0.05,
        help="forward-edge probability (default: 0.05)",
    )
    p.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser(
        "scenario",
        help="print a bundled example system file",
    )
    p.add_argument("name", choices=sorted(_SCENARIO_FILES))
    p.set_defaults(handler=_cmd_scenario)

    return parser


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "handler", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_INPUT
    try:
        # an overflow shows as a non-finite value, which the report refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    # OverflowError, MemoryError: a dimension too large to index or allocate
    except (BornsolveError, OSError, ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
