"""Exact finite Born expansions for multilevel systems with acyclic transition graphs.

When the transition graph of the transfer operator T = G0(E) V has no
directed cycle, T is nilpotent and the Neumann series of (I - T)^(-1)
closes after depth + 1 terms, where depth is the longest directed-path
length of the graph.  Scattered states, resolvents and transition
matrices then come out exactly, with no smallness condition on T; for
operators that are not nilpotent, the truncation tools report and bound
the residual instead.
"""

from .bench import BenchResult, random_dag_operator, run_benchmark
from .errors import (
    BornsolveError,
    DimensionError,
    NotNilpotentError,
    ResonanceError,
    SingularError,
    SpecFormatError,
    TopologyError,
)
from .graph import AcyclicityReport, analyze_acyclicity
from .operators import (
    NORM_KINDS,
    SparseOperator,
    as_state_vector,
    basis_state,
    build_transfer_operator,
    free_resolvent_diagonal,
    matmul,
    matvec,
    operator_norm,
    power,
    vector_norm,
)
from .scenarios import (
    DARK_THRESHOLD,
    InterferenceReport,
    WeightedPath,
    build_cascade,
    build_diamond,
    build_double_diamond,
    classify_interference,
)
from .solver import (
    AcyclicSystem,
    BornExpansion,
    born_approximation,
    det_check,
    det_i_minus_t,
    direct_solve_oracle,
    finite_neumann_inverse,
    full_resolvent,
    make_system,
    solve_exact,
    t_matrix,
)
from .specfile import (
    SystemSpec,
    load_spec,
    parse_spec,
    serialize_spec,
    spec_to_operator,
)
from .truncation import (
    QUASI_NILPOTENT_DEFECT,
    TruncationReport,
    exact_remainder,
    remainder_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AcyclicityReport",
    "AcyclicSystem",
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
