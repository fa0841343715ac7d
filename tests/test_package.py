"""The package surface: exported names and the imports of each module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import bornsolve

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bornsolve"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

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

# Exported names that no other module and no benchmark file uses, each
# kept for its role; every other export has such a user.
ROLE = {
    "AcyclicityReport": "the certificate analyze_acyclicity returns",
    "BornExpansion": "the scattered state and Born terms solve_exact returns",
    "QUASI_NILPOTENT_DEFECT": "the reporting convention of TruncationReport.quasi_nilpotent",
    "TruncationReport": "the error budget remainder_bound returns",
    "WeightedPath": "a branch of InterferenceReport.path_contributions",
    "born_approximation": "the paper's partial Born sum through a given order",
    "build_cascade": "the paper's cascade system",
    "build_diamond": "the paper's diamond system",
    "build_double_diamond": "the paper's double-diamond system",
    "exact_remainder": "the paper's truncation error beyond an order",
    "finite_neumann_inverse": "(I - T)^(-1) as the paper's finite Neumann sum",
    "matmul": "the operator product that power repeats",
    "parse_spec": "reads spec text, as load_spec reads a file",
    "random_dag_operator": "run_benchmark's random acyclic draw, to reproduce a run",
    "serialize_spec": "the only writer of the spec format",
}

# Private names one module imports from another: the kernels shared inside
# the one sparse representation, the pattern memory that keeps the
# certificate and the block layout, the block solve the truncation reuses, the
# CLI's term loop, and four input gates in place of local copies: the spec
# loader's and the benchmark generator's dimension, the generator's density
# and the resolvent's G0 vector.  The loader's record lists enter through the public SparseOperator
# constructor.  The term loop stays private: `solve --order` prints every
# term and sums them with np.sum, bits the goldens pin, while
# born_approximation keeps a running sum that stops at the first zero term,
# so neither serves the other, and a public loop would add a name to __all__.
SEAMS = {
    ("bench", "operators", "_number"),
    ("bench", "operators", "_size"),
    ("cli", "solver", "_born_terms"),
    ("graph", "operators", "_derived"),
    ("solver", "graph", "_strong_components"),
    ("solver", "operators", "_apply"),
    ("solver", "operators", "_bin_sums"),
    ("solver", "operators", "_derived"),
    ("solver", "operators", "_products"),
    ("solver", "operators", "_stable_order"),
    ("solver", "operators", "_state"),
    ("specfile", "operators", "_size"),
    ("truncation", "solver", "_block_solve"),
}


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def referenced(source: str) -> set[str]:
    """Names a module reads or imports by name."""
    tree = ast.parse(source)
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def relative_imports(source: str) -> list[tuple[str | None, str]]:
    """(module, name) of each name imported by `from .module import name`."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
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
    assert unused_imports(read(path)) == []


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


class TestSurface:
    def test_every_export_has_a_user_or_a_role(self):
        home = {name: module for module, name in relative_imports(read(SRC / "__init__.py"))}
        users = {path.stem: referenced(read(path)) for path in MODULES}
        bench = set().union(*(referenced(read(p)) for p in (ROOT / "perfbench").glob("*.py")))
        unused = {
            name
            for name in bornsolve.__all__
            if name not in bench
            and not any(name in names for stem, names in users.items() if stem != home[name])
        }
        assert unused == set(ROLE)
        assert all(reason and "\n" not in reason for reason in ROLE.values())

    def test_private_imports_are_the_pinned_seams(self):
        seams = {
            (path.stem, module, name)
            for path in MODULES
            for module, name in relative_imports(read(path))
            if name.startswith("_")
        }
        assert seams == SEAMS

    def test_finders(self):
        source = "from .a import _b, c\nfrom x import _y\nfrom . import d\nc.e(f)\n"
        assert relative_imports(source) == [("a", "_b"), ("a", "c"), (None, "d")]
        assert referenced(source) == {"_b", "c", "_y", "d", "f"}
