"""The package surface: exported names and the imports of each module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import bornsolve

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for p in (ROOT / "src" / "bornsolve").glob("*.py") if p.name != "__init__.py"
)

EXPORTED = [
    "AcyclicSystem",
    "AcyclicityReport",
    "BenchResult",
    "BornExpansion",
    "BornsolveError",
    "DARK_THRESHOLD",
    "DimensionError",
    "InterferenceReport",
    "NORM_KINDS",
    "NotNilpotentError",
    "QUASI_NILPOTENT_DEFECT",
    "ResonanceError",
    "SingularError",
    "SparseOperator",
    "SpecFormatError",
    "SystemSpec",
    "TopologyError",
    "TruncationReport",
    "WeightedPath",
    "analyze_acyclicity",
    "as_state_vector",
    "basis_state",
    "born_approximation",
    "build_cascade",
    "build_diamond",
    "build_double_diamond",
    "build_transfer_operator",
    "classify_interference",
    "det_check",
    "det_i_minus_t",
    "direct_solve_oracle",
    "exact_remainder",
    "finite_neumann_inverse",
    "free_resolvent_diagonal",
    "full_resolvent",
    "load_spec",
    "make_system",
    "matmul",
    "matvec",
    "nilpotency_defect",
    "operator_norm",
    "parse_spec",
    "power",
    "random_dag_operator",
    "remainder_bound",
    "run_benchmark",
    "serialize_spec",
    "solve_exact",
    "spec_to_operator",
    "t_matrix",
    "vector_norm",
]


def unused_imports(source: str) -> list[str]:
    """Names a module imports (outside __future__) but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_finder():
    source = "import os\nimport a.b\nfrom x import y, z as w\nos.sep\na.b\nw\n"
    assert unused_imports(source) == ["y"]


class TestExports:
    def test_exact_list(self):
        assert sorted(bornsolve.__all__) == EXPORTED

    def test_every_name_resolves(self):
        for name in bornsolve.__all__:
            assert getattr(bornsolve, name) is not None, name

    def test_benchmark_imports_are_exported(self):
        # the benchmark imports the package by name; a name that leaves
        # __all__ under it breaks the benchmark, not just this suite
        tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
        names = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "bornsolve"
            for alias in node.names
        }
        assert names
        assert names <= set(bornsolve.__all__)
