"""Self-tests of the benchmark: seeded inputs, checkers and metric names.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402


GENERATORS = {
    "deep_dag": inputs.DeepDagInputs,
    "cli_spec": inputs.cli_spec_inputs,
    "diamond_stream": inputs.diamond_inputs,
    "resolvent_truncation": inputs.ResolventInputs,
}


def digest(obj) -> str:
    """sha256 over every array, number and string reachable from a generated input."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (tuple, list)):
            for item in x:
                feed(item)
        elif hasattr(x, "__dataclass_fields__"):
            for name in x.__dataclass_fields__:
                feed(getattr(x, name))
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def _sample(name: str, seed: int):
    """Every input a workload hands the program, for a few requests."""
    made = GENERATORS[name](seed)
    if name in ("deep_dag", "resolvent_truncation"):  # made on demand, per request
        return [(made.draw(k), made.phi(k)) for k in (0, 1)]
    return made


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = digest(_sample(name, 7))
    assert digest(_sample(name, 7)) == first
    assert digest(_sample(name, 8)) != first


def test_generated_structure_matches_the_workload_definitions():
    dag = inputs.DeepDagInputs(3).draw(0)
    assert dag.couplings.dim == inputs.DEEP_DIM
    assert 20_000 < dag.couplings.nnz < 30_000
    assert 60 < dag.depth < 130
    spec = inputs.cli_spec_inputs(3)
    assert spec.couplings.nnz == (inputs.CLI_BANDS - 1) * inputs.CLI_BAND_WIDTH * inputs.CLI_FANOUT
    assert json.loads(spec.text)["dimension"] == inputs.CLI_BANDS * inputs.CLI_BAND_WIDTH
    draw = inputs.ResolventInputs(3).draw(0)
    assert np.abs(checks.dense(draw.cyclic)).sum(axis=1).max() == pytest.approx(0.9)
    assert 0 <= draw.order < draw.depth
    energies = inputs.diamond_inputs(3).energies
    assert np.all(np.abs(energies[:, None] - np.array(inputs.DIAMOND_H0)) >= inputs.DIAMOND_IMAG)


def _triangular_psi(dag, phi):
    t = checks.csr(dag.couplings)
    # T of a DAG is nilpotent: depth + 1 Neumann terms solve (I - T) psi = phi exactly
    psi, term = phi.copy(), phi.copy()
    for _ in range(dag.depth):
        term = t @ term
        psi += term
    return t, psi


def test_deep_dag_check_rejects_one_component_off_by_1e6():
    made = inputs.DeepDagInputs(4)
    dag, phi = made.draw(0), made.phi(0)
    t, psi = _triangular_psi(dag, phi)
    assert checks.check_deep_dag(t, phi, psi)[0] is None
    bad = psi.copy()
    k = int(np.random.default_rng(0).integers(psi.size))
    bad[k] += 1e-6 * np.abs(psi).max()
    assert checks.check_deep_dag(t, phi, bad)[0] is not None


def test_diamond_check_rejects_a_wrong_regime_and_a_wrong_amplitude():
    made = inputs.diamond_inputs(5)
    energy = made.energy(0)
    expected = checks.diamond_expected(made.h0, made.potential, energy)
    a4, regime = expected
    assert regime == "generic"
    assert checks.check_diamond(expected, a4, 0j, regime) is None
    assert checks.check_diamond(expected, a4, 0j, "dark_state") is not None
    assert checks.check_diamond(expected, a4 * (1 + 1e-6), 0j, regime) is not None


def test_cli_checks_reject_a_nonzero_exit_code_and_a_perturbed_total():
    spec = inputs.cli_spec_inputs(6)
    n = spec.couplings.dim
    phi = np.zeros(n, dtype=complex)
    phi[0] = 1.0
    psi = checks.triangular_solve(spec, phi)
    t = checks.csr(spec.couplings)
    assert checks.backward_error(t, psi, phi) < checks.BACKWARD_TOL
    lines = [f"total.{k}.re = {float(z.real)!r}\ntotal.{k}.im = {float(z.imag)!r}"
             for k, z in enumerate(psi, start=1)]
    report = "\n".join(lines) + "\n"
    assert checks.check_cli_solve(spec, psi, 0, report) is None
    assert checks.check_cli_solve(spec, psi, 1, report) is not None
    bad = report.replace(f"total.1.re = {float(psi[0].real)!r}",
                         f"total.1.re = {float(psi[0].real + 1e-6 * np.abs(psi).max())!r}")
    assert bad != report
    assert checks.check_cli_solve(spec, psi, 0, bad) is not None
    analyze = (f"dimension = {n}\nnnz = {spec.couplings.nnz}\nis_acyclic = true\n"
               f"depth = {spec.depth}\ndet.re = 1.0\ndet.im = 0.0\n")
    assert checks.check_cli_analyze(spec, 0, analyze) is None
    assert checks.check_cli_analyze(spec, 2, analyze) is not None
    assert checks.check_cli_analyze(spec, 0, analyze.replace("det.re = 1.0",
                                                             "det.re = 1.001")) is not None


def test_metric_names_match_benchmark_json():
    pytest.importorskip("bornsolve")
    import run
    import workloads

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == workloads.per_layer_metrics()
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(GENERATORS) == sorted(workloads.WORKLOADS)


def test_resolvent_check_rejects_a_perturbed_resolvent_and_a_low_bound():
    from types import SimpleNamespace

    made = inputs.ResolventInputs(9)
    draw, phi = made.draw(0), made.phi(0)
    n = draw.potential.dim
    v = checks.dense(draw.potential)
    resolvent = np.linalg.inv(draw.energy * np.eye(n) - np.diag(draw.h0) - v)
    t = v / (draw.energy - draw.h0)[:, None]
    tmatrix = v @ np.linalg.inv(np.eye(n) - t)
    c = checks.dense(draw.cyclic)
    tail = np.linalg.matrix_power(c, draw.order + 1)
    remainder = np.abs(np.linalg.solve(np.eye(n) - c, tail @ phi)).max()
    report = SimpleNamespace(order=draw.order, bound=2 * remainder, exact_remainder_norm=remainder,
                             defect_norm=np.abs(tail).sum(axis=1).max())
    assert checks.check_resolvent(draw, phi, resolvent, tmatrix, 1.0, report)[0] is None
    bad = resolvent.copy()
    bad[3, 5] += 1e-6 * np.abs(resolvent).max()
    assert checks.check_resolvent(draw, phi, bad, tmatrix, 1.0, report)[0] is not None
    low = SimpleNamespace(**{**vars(report), "bound": 0.5 * remainder})
    assert checks.check_resolvent(draw, phi, resolvent, tmatrix, 1.0, low)[0] is not None
