"""End-to-end command-line tests driving main() in process."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import bornsolve
from bornsolve import cli
from bornsolve.cli import EXIT_CYCLIC, EXIT_INPUT, EXIT_OK, main
from bornsolve.operators import SparseOperator, basis_state
from bornsolve.solver import make_system, solve_exact
from bornsolve.specfile import load_spec, spec_to_operator


GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_kv(text):
    """Key/value pairs from the machine block (stops at the first blank line)."""
    pairs = {}
    for line in text.splitlines():
        if not line.strip():
            break
        key, sep, value = line.partition(" = ")
        assert sep == " = ", f"malformed report line: {line!r}"
        pairs[key] = value
    return pairs


def chain_doc(amp):
    """A 40-state chain with transfer couplings amp (k -> k + 1) and -amp (k -> k + 2)."""
    return {
        "dimension": 40,
        "transfer_entries": [
            {"from": k, "to": k + step, "re": value, "im": 0.0}
            for step, value in ((1, amp), (2, -amp)) for k in range(1, 41 - step)
        ],
    }


def write_spec(tmp_path, doc, name="system.spec"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def diamond_doc(t21=1.0, t31=1.0, t42=1.0, t43=1.0):
    def rec(i, j, amp):
        z = complex(amp)
        return {"from": i, "to": j, "re": z.real, "im": z.imag}

    return {
        "dimension": 4,
        "transfer_entries": [
            rec(1, 2, t21), rec(1, 3, t31), rec(2, 4, t42), rec(3, 4, t43),
        ],
    }


TWO_LEVEL_LOOP = {
    "dimension": 2,
    "transfer_entries": [
        {"from": 2, "to": 1, "re": 0.5, "im": 0.0},
        {"from": 1, "to": 2, "re": 0.04, "im": 0.0},
    ],
}


def hamiltonian_doc(levels, couplings, energy):
    """Hamiltonian-form spec: couplings are (from, to, real amplitude)."""
    return {
        "dimension": len(levels),
        "free_hamiltonian": levels,
        "potential_entries": [
            {"from": i, "to": j, "re": amp, "im": 0.0} for i, j, amp in couplings
        ],
        "energy": {"re": energy, "im": 0.0},
    }


class TestScaleFree:
    """Verdicts depend on the input's structure and its own scale, not on units."""

    def test_tiny_cyclic_coupling_is_not_certified(self, tmp_path):
        # |T| is about 2e-6: a cycle, however small V is in absolute terms
        path = write_spec(tmp_path, hamiltonian_doc(
            [0.0, 1e-9], [(1, 2, 1e-15), (2, 1, 1e-15)], 5e-10))
        code, out, err = run_cli(["analyze", path])
        assert code == EXIT_CYCLIC
        assert "cyclic" in err
        kv = parse_kv(out)
        assert (kv["nnz"], kv["is_acyclic"], kv["witness_cycle"]) == ("2", "false", "1 2")

    @pytest.mark.parametrize("command", [["analyze"], ["solve", "--phi", "1"]])
    def test_tiny_level_spacing_is_no_resonance(self, tmp_path, command):
        # levels 1e-19 apart: the energy sits halfway, far off resonance
        path = write_spec(tmp_path, hamiltonian_doc([0.0, 1e-19], [(1, 2, 1e-21)], 5e-20))
        code, out, err = run_cli([command[0], path, *command[1:]])
        assert (code, err) == (EXIT_OK, "")
        kv = parse_kv(out)
        assert kv["depth"] == "1"
        if command[0] == "analyze":
            assert kv["nnz"] == "1"
        else:
            # T[2, 1] = 1e-21 / (5e-20 - 1e-19) = -0.02
            npt.assert_allclose(float(kv["total.2.re"]), -0.02, rtol=1e-15)

    @pytest.mark.parametrize("command", [["analyze"], ["solve", "--phi", "1"]])
    def test_subnormal_gap_names_the_level(self, tmp_path, command):
        # levels 1e-310 apart: the gaps are subnormal and 1 / gap would
        # overflow, which once showed as a non-finite entry (2, 1)
        path = write_spec(tmp_path, hamiltonian_doc([0.0, 1e-310], [(1, 2, 1e-311)], 5e-311))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli([command[0], path, *command[1:]])
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: energy (5e-311+0j) is within ")
        assert "of free level 2, below the least normal float" in err
        assert "entry (" not in err

    def test_overflowing_gap_names_the_level(self, tmp_path):
        # E - H0[1] overflows: 1 / inf once dropped row 1, and the 2-cycle
        # of V was certified acyclic with depth 1
        path = write_spec(tmp_path, hamiltonian_doc([-1.7e308, 0.0], [(1, 2, 1.0), (2, 1, 1.0)],
                                                    1.7e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["analyze", path])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == ("error: energy (1.7e+308+0j) is beyond the largest float from free "
                       "level 1; rescale the Hamiltonian and energy\n")

    def test_overflowing_energy_modulus_names_the_energy(self, tmp_path):
        # |E| overflows: abs raised a bare OverflowError, and the error line
        # read "absolute value too large"
        doc = hamiltonian_doc([0.0, 1.0], [(1, 2, 1.0)], 1.5e308)
        doc["energy"]["im"] = 1.5e308
        path = write_spec(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["analyze", path])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == ("error: energy (1.5e+308+1.5e+308j) has a modulus beyond the largest "
                       "float; rescale the Hamiltonian and energy\n")

    @pytest.mark.parametrize("command", [["analyze"], ["solve", "--phi", "1"]])
    def test_underflowing_cycle_is_refused(self, tmp_path, command):
        # T = V / 1e30 underflows to zero: T once had no entry, and the
        # 2-cycle of V was certified acyclic (is_acyclic = true, exit 0)
        path = write_spec(tmp_path, hamiltonian_doc([0.0, 0.0], [(1, 2, 1e-300), (2, 1, 1e-300)],
                                                    1e30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli([command[0], path, *command[1:]])
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: entry (1, 2) underflows to zero: (1e-300+0j) * ")
        assert err.endswith("which would drop its coupling; rescale the potential\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("amp", [1e200, 1e-170])
    def test_frobenius_norm_out_of_range(self, tmp_path, amp):
        # the squared modulus overflows or underflows; the norm does not
        path = write_spec(tmp_path, {
            "dimension": 2,
            "transfer_entries": [{"from": 1, "to": 2, "re": amp, "im": 0.0}],
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["analyze", path])
        assert (code, err) == (EXIT_OK, "")
        kv = parse_kv(out)
        assert [float(kv[f"norm.{kind}"]) for kind in ("inf", "one", "fro")] == [amp] * 3

    def test_large_couplings_keep_the_remainder(self, tmp_path):
        # det(I - T) = 1, so the truncated solve reports its remainder
        path = write_spec(tmp_path, chain_doc(1e3))
        code, out, _ = run_cli(["solve", path, "--phi", "1", "--order", "1"])
        assert code == EXIT_OK
        assert parse_kv(out)["truncation.available"] == "true"

    def test_overflowing_solve_is_an_error(self, tmp_path):
        # with couplings 1e8 the order-39 term and the total overflow
        path = write_spec(tmp_path, chain_doc(1e8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["solve", path, "--phi", "1"])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: the solve overflows: term.39.40.re = inf\n"

    @pytest.mark.parametrize("records, key", [
        ([(1, 2, 1e200), (2, 1, 1e200)], "det.re = -inf"),
        ([(2, 1, 1e308), (3, 1, 1e308)], "norm.inf = inf"),
    ], ids=["det", "norm"])
    def test_overflowing_analysis_is_an_error(self, tmp_path, records, key):
        # a 2-cycle whose det(I - T) = 1 - 1e400 overflows, and two couplings
        # into state 1 whose row sum does
        path = write_spec(tmp_path, {"dimension": 3, "transfer_entries": [
            {"from": i, "to": j, "re": amp, "im": 0.0} for i, j, amp in records]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["analyze", path])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: the analysis overflows: {key}\n"

    def test_overflowing_norm_leaves_the_budget_unavailable(self, tmp_path):
        # the remainder is zero, but ||T||_inf = 2e308 overflows
        path = write_spec(tmp_path, {"dimension": 3, "transfer_entries": [
            {"from": i, "to": 1, "re": 1e308, "im": 0.0} for i in (2, 3)]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["solve", path, "--phi", "1", "--order", "0"])
        assert code == EXIT_OK
        reason = "the truncation budget overflows: truncation.operator_norm = inf"
        kv = parse_kv(out)
        assert (kv["truncation.available"], kv["truncation.reason"]) == ("false", reason)
        assert not {"inf", "-inf", "nan"} & set(kv.values())
        assert err.splitlines()[-1] == f"warning: exact remainder unavailable: {reason}"

    def test_overflowing_remainder_is_unavailable(self, tmp_path):
        # the order-1 terms are finite, the remainder is not: reported as
        # a singular I - T would be
        path = write_spec(tmp_path, chain_doc(1e8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["solve", path, "--phi", "1", "--order", "1"])
        assert code == EXIT_OK
        reason = "the remainder overflows: its norm is not finite"
        kv = parse_kv(out)
        assert (kv["truncation.available"], kv["truncation.reason"]) == ("false", reason)
        assert not {"inf", "-inf", "nan"} & set(kv.values())
        assert err.splitlines()[-1] == f"warning: exact remainder unavailable: {reason}"


class TestScenario:
    @pytest.mark.parametrize("name, resource", [
        ("diamond", "diamond.spec"),
        ("cascade", "cascade3.spec"),
        ("double-diamond", "double-diamond.spec"),
    ])
    def test_emits_bundled_file_verbatim(self, name, resource):
        code, out, err = run_cli(["scenario", name])
        assert code == EXIT_OK
        assert err == ""
        bundled = resources.files("bornsolve").joinpath(
            "specs", resource
        ).read_text(encoding="utf-8")
        assert out == bundled
        json.loads(out)

    def test_unknown_name_is_input_error(self):
        code, _, err = run_cli(["scenario", "pentagon"])
        assert code == EXIT_INPUT
        assert "usage error" in err


class TestAnalyze:
    def test_diamond_report(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc())
        code, out, err = run_cli(["analyze", path])
        assert code == EXIT_OK
        assert err == ""
        kv = parse_kv(out)
        assert kv["command"] == "analyze"
        assert kv["dimension"] == "4"
        assert kv["nnz"] == "4"
        assert kv["is_acyclic"] == "true"
        assert kv["depth"] == "2"
        assert kv["term_count"] == "3"
        order = [int(v) for v in kv["topological_order"].split()]
        assert sorted(order) == [1, 2, 3, 4]
        assert order.index(1) < order.index(2) < order.index(4)
        assert order.index(1) < order.index(3) < order.index(4)
        assert abs(float(kv["det.re"]) - 1.0) < 1e-12
        assert abs(float(kv["det.im"])) < 1e-12
        assert float(kv["norm.inf"]) == 2.0
        assert float(kv["norm.one"]) == 2.0
        assert float(kv["norm.fro"]) == 2.0

    def test_cyclic_report(self, tmp_path):
        path = write_spec(tmp_path, {
            "dimension": 2,
            "transfer_entries": [
                {"from": 1, "to": 2, "re": 1.0, "im": 0.0},
                {"from": 2, "to": 1, "re": 1.0, "im": 0.0},
            ],
        })
        code, out, err = run_cli(["analyze", path])
        assert code == EXIT_CYCLIC
        assert "cyclic" in err
        kv = parse_kv(out)
        assert kv["is_acyclic"] == "false"
        assert kv["witness_cycle"] == "1 2"
        assert "depth" not in kv
        assert "topological_order" not in kv

    def test_acyclic_det_is_structural(self, tmp_path, monkeypatch):
        # I - T is unit triangular in topological order: no dense matrix
        def refuse(*args, **kwargs):
            raise AssertionError("analyze formed a dense matrix")

        monkeypatch.setattr(SparseOperator, "to_dense", refuse)
        monkeypatch.setattr(np.linalg, "det", refuse)
        path = write_spec(tmp_path, diamond_doc(3.0, -2.0j, 5.5, 41.0))
        code, out, _ = run_cli(["analyze", path])
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["det.re"] == "1.0"
        assert kv["det.im"] == "0.0"

    def test_cyclic_det_of_one_block(self, tmp_path):
        # one block: det [[1, -0.5], [-0.04, 1]] = 1 - 0.02
        path = write_spec(tmp_path, TWO_LEVEL_LOOP)
        code, out, _ = run_cli(["analyze", path])
        assert code == EXIT_CYCLIC
        kv = parse_kv(out)
        npt.assert_allclose(float(kv["det.re"]), 0.98, rtol=1e-15)
        assert float(kv["det.im"]) == 0.0

    def test_cyclic_det_forms_no_dense_determinant(self, monkeypatch):
        # components [1] [2,3] [4] [5] [6,7]: the product of the blocks' determinants
        def refuse(*args, **kwargs):
            raise AssertionError("analyze called numpy.linalg.det")

        monkeypatch.setattr(np.linalg, "det", refuse)
        code, out, _ = run_cli(["analyze", str(GOLDEN / "cyclic-blocks.spec")])
        assert code == EXIT_CYCLIC
        kv = parse_kv(out)
        assert (kv["det.re"], kv["det.im"]) == ("0.9406718749999998", "0.08982187499999993")

    def test_table_appends_without_touching_kv(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc())
        _, plain, _ = run_cli(["analyze", path])
        code, tabled, _ = run_cli(["analyze", "--table", path])
        assert code == EXIT_OK
        assert tabled.startswith(plain)
        tail = tabled[len(plain):]
        assert tail.startswith("\n")
        assert "property" in tail
        assert "det(I - T)" in tail


class TestSolve:
    def test_exact_matches_library(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc())
        code, out, err = run_cli(["solve", path, "--phi", "1"])
        assert code == EXIT_OK
        assert err == ""
        kv = parse_kv(out)
        assert kv["mode"] == "exact"
        assert kv["depth"] == "2"
        assert kv["term_count"] == "3"

        system = make_system(spec_to_operator(load_spec(path)))
        expansion = solve_exact(system, basis_state(4, 1))
        for k, term in enumerate(expansion.terms):
            for state in range(4):
                z = complex(float(kv[f"term.{k}.{state + 1}.re"]),
                            float(kv[f"term.{k}.{state + 1}.im"]))
                assert z == complex(term[state])
        assert float(kv["total.4.re"]) == 2.0
        assert float(kv["total.4.im"]) == 0.0

    def test_phi_vector_file(self, tmp_path):
        spec = write_spec(tmp_path, diamond_doc())
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps([
            {"re": 0.5, "im": 0.0},
            {"re": 0.0, "im": -1.0},
            {"re": 0.0, "im": 0.0},
            {"re": 0.25, "im": 0.25},
        ]))
        code, out, _ = run_cli(["solve", spec, "--phi", str(phi_path)])
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert float(kv["phi.1.re"]) == 0.5
        assert float(kv["phi.2.im"]) == -1.0
        assert float(kv["phi.4.re"]) == 0.25

    def test_phi_index_out_of_range(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc())
        code, _, err = run_cli(["solve", path, "--phi", "9"])
        assert code == EXIT_INPUT
        assert "outside" in err

    def test_phi_file_wrong_length(self, tmp_path):
        spec = write_spec(tmp_path, diamond_doc())
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps([{"re": 1.0, "im": 0.0}]))
        code, _, err = run_cli(["solve", spec, "--phi", str(phi_path)])
        assert code == EXIT_INPUT
        assert "4 components" in err

    def test_phi_file_huge_integer_is_input_error(self, tmp_path):
        # float() of a 400-digit integer used to escape main() as OverflowError
        spec = write_spec(tmp_path, diamond_doc())
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps([{"re": 10**400, "im": 0.0}] * 4))
        code, out, err = run_cli(["solve", spec, "--phi", str(phi_path)])
        assert code == EXIT_INPUT
        assert out == ""
        assert "phi.json[0].re: value is not finite" in err

    @pytest.mark.parametrize("value", ["0.5", True])
    def test_phi_file_rejects_non_numbers(self, tmp_path, value):
        # phi components follow the spec-file rules: no strings, no booleans
        spec = write_spec(tmp_path, diamond_doc())
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps([{"re": value, "im": 0}] + [{"re": 0, "im": 0}] * 3))
        code, _, err = run_cli(["solve", spec, "--phi", str(phi_path)])
        assert code == EXIT_INPUT
        assert "phi.json[0].re: expected a number" in err

    @pytest.mark.parametrize("text, message", [
        ("[{not json", "not valid JSON"),
        ('{"re": 1.0, "im": 0.0}', 'expected a JSON array of {"re", "im"} objects'),
    ], ids=["not-json", "not-an-array"])
    def test_phi_file_must_be_a_json_array(self, tmp_path, text, message):
        spec = write_spec(tmp_path, diamond_doc())
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(text)
        code, out, err = run_cli(["solve", spec, "--phi", str(phi_path)])
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith(f"error: {phi_path}: {message}")
        assert err.count("\n") == 1

    def test_cyclic_without_order_refused(self, tmp_path):
        path = write_spec(tmp_path, TWO_LEVEL_LOOP)
        code, out, err = run_cli(["solve", path, "--phi", "1"])
        assert code == EXIT_CYCLIC
        assert "--order" in err
        assert "cycle 1 -> 2 -> 1" in err
        assert "total" not in out

    def test_truncated_on_cyclic_worked_example(self, tmp_path):
        path = write_spec(tmp_path, TWO_LEVEL_LOOP)
        code, out, err = run_cli(["solve", path, "--phi", "1", "--order", "2"])
        assert code == EXIT_OK
        assert err == ""
        kv = parse_kv(out)
        assert kv["mode"] == "truncated"
        assert kv["order"] == "2"
        assert kv["term_count"] == "3"
        assert "depth" not in kv
        assert kv["truncation.available"] == "true"
        assert float(kv["truncation.operator_norm"]) == 0.5
        assert float(kv["truncation.defect_norm"]) == 0.01
        assert float(kv["truncation.bound"]) == 0.02
        npt.assert_allclose(
            float(kv["truncation.remainder_norm"]), 8e-4 / 0.98, rtol=1e-13
        )
        assert kv["truncation.quasi_nilpotent"] == "false"
        # partial sum: e1 + T e1 + T^2 e1 = (1.02, 0.04)
        assert float(kv["total.1.re"]) == 1.02
        assert float(kv["total.2.re"]) == 0.04

    def test_one_norm_accepted(self, tmp_path):
        path = write_spec(tmp_path, TWO_LEVEL_LOOP)
        code, out, _ = run_cli(
            ["solve", "--norm", "one", path, "--phi", "1", "--order", "2"]
        )
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["truncation.norm_kind"] == "one"
        assert float(kv["truncation.operator_norm"]) == 0.5

    def test_fro_norm_rejected_for_truncation(self, tmp_path):
        path = write_spec(tmp_path, TWO_LEVEL_LOOP)
        code, _, err = run_cli(
            ["solve", "--norm", "fro", path, "--phi", "1", "--order", "2"]
        )
        assert code == EXIT_INPUT
        assert "induced" in err

    def test_fro_norm_error_comes_from_the_library(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc())
        code, out, err = run_cli(["solve", path, "--phi", "1", "--order", "1", "--norm", "fro"])
        assert (code, out) == (EXIT_INPUT, "")
        assert err.endswith("error: remainder bounds need an induced norm kind "
                            "('inf', 'one'), got 'fro'\n")

    @pytest.mark.parametrize("norm", ["inf", "fro"])
    def test_norm_without_order_is_usage_error(self, tmp_path, norm):
        path = write_spec(tmp_path, diamond_doc())
        code, out, err = run_cli(["solve", path, "--phi", "1", "--norm", norm])
        assert code == EXIT_INPUT
        assert out == ""
        assert "usage error: --norm needs --order" in err

    def test_truncation_below_depth_warns(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc())
        code, out, err = run_cli(["solve", path, "--phi", "1", "--order", "1"])
        assert code == EXIT_OK
        assert "order 1 truncates a depth-2 system" in err
        assert "order 2" in err
        kv = parse_kv(out)
        assert kv["depth"] == "2"
        # unit diamond has norm 2: the geometric bound is withheld
        assert kv["truncation.bound_withheld"] == "operator norm >= 1"
        assert "truncation.bound" not in kv
        # remainder is still exact: the omitted term reaches state 4
        assert float(kv["truncation.remainder_norm"]) == 2.0

    def test_order_at_depth_reproduces_exact_total(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc(0.5, 2.0, -1.5, 0.25))
        _, exact_out, _ = run_cli(["solve", path, "--phi", "1"])
        _, trunc_out, err = run_cli(["solve", path, "--phi", "1", "--order", "2"])
        assert "warning" not in err
        exact_kv = parse_kv(exact_out)
        trunc_kv = parse_kv(trunc_out)
        for state in range(1, 5):
            for part in ("re", "im"):
                key = f"total.{state}.{part}"
                assert trunc_kv[key] == exact_kv[key]
        assert float(trunc_kv["truncation.defect_norm"]) == 0.0
        assert float(trunc_kv["truncation.remainder_norm"]) == 0.0
        assert trunc_kv["truncation.quasi_nilpotent"] == "true"

    def test_table_lists_labeled_states(self, tmp_path):
        doc = {
            "dimension": 3,
            "basis_labels": ["ground", "excited-1", "excited-2"],
            "transfer_entries": [
                {"from": 2, "to": 1, "re": 0.8, "im": 0.1},
                {"from": 3, "to": 2, "re": 0.5, "im": -0.2},
            ],
        }
        path = write_spec(tmp_path, doc)
        code, out, _ = run_cli(["solve", "--table", path, "--phi", "3"])
        assert code == EXIT_OK
        assert "1 (ground)" in out
        assert "2 (excited-1)" in out
        kv = parse_kv(out)
        assert kv["mode"] == "exact"


class TestClassify:
    def test_constructive_diamond(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc())
        code, out, err = run_cli(["classify", path])
        assert code == EXIT_OK
        assert err == ""
        kv = parse_kv(out)
        assert kv["regime"] == "constructive"
        assert float(kv["a4.re"]) == 2.0
        assert float(kv["a4_born1.re"]) == 0.0
        assert kv["relative_error_born1"] == "1.0"
        assert kv["path.0.route"] == "1 2 4"
        assert kv["path.1.route"] == "1 3 4"
        assert float(kv["path.0.weight.re"]) == 1.0

    def test_dark_diamond_reports_undefined_error(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc(2.0, 4.0, 3.0, -1.5))
        code, out, _ = run_cli(["classify", path])
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["regime"] == "dark_state"
        assert float(kv["a4.re"]) == 0.0
        assert kv["relative_error_born1"] == "undefined (A4 = 0)"
        assert float(kv["path.0.weight.re"]) == 6.0
        assert float(kv["path.1.weight.re"]) == -6.0

    def test_generic_diamond(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc(1.0, 1.0, 1.0, 0.5))
        code, out, _ = run_cli(["classify", path])
        assert code == EXIT_OK
        assert parse_kv(out)["regime"] == "generic"

    def test_overflowing_amplitude_is_an_error(self, tmp_path):
        # the branch products 1e400 overflow: a4 = inf is no dark state
        path = write_spec(tmp_path, diamond_doc(1e200, 1e200, 1e200, 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_cli(["classify", path])
        assert result == (EXIT_INPUT, "", "error: the classification overflows: a4.re = inf\n")

    def test_underflowing_amplitude_keeps_its_regime(self, tmp_path):
        # the branch products 1e-400 underflow to 0, but they still agree
        path = write_spec(tmp_path, diamond_doc(1e-200, 1e-200, 1e-200, 1e-200))
        code, out, err = run_cli(["classify", path])
        assert (code, err) == (EXIT_OK, "")
        kv = parse_kv(out)
        assert (kv["regime"], kv["a4.re"]) == ("constructive", "0.0")

    def test_wrong_shape_is_input_error(self, tmp_path):
        path = write_spec(tmp_path, {
            "dimension": 3,
            "transfer_entries": [
                {"from": 1, "to": 2, "re": 1.0, "im": 0.0},
                {"from": 2, "to": 3, "re": 1.0, "im": 0.0},
            ],
        })
        code, _, err = run_cli(["classify", path])
        assert code == EXIT_INPUT
        assert "dimension 3" in err

    def test_cyclic_is_input_error(self, tmp_path):
        path = write_spec(tmp_path, TWO_LEVEL_LOOP)
        code, _, err = run_cli(["classify", path])
        assert code == EXIT_INPUT
        assert "not a branch-and-recombine system" in err

    def test_table_shows_routes(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc())
        code, out, _ = run_cli(["classify", "--table", path])
        assert code == EXIT_OK
        assert "1 -> 2 -> 4" in out
        assert "coherent sum (exact A4)" in out


class TestBench:
    def test_small_benchmark_agrees(self):
        code, out, err = run_cli(
            ["bench", "--dim", "12", "--density", "0.3", "--seed", "3"]
        )
        assert code == EXIT_OK
        assert err == ""
        kv = parse_kv(out)
        assert kv["dim"] == "12"
        assert int(kv["term_count"]) == int(kv["depth"]) + 1
        assert float(kv["agreement"]) <= 1e-10
        assert float(kv["born_seconds"]) > 0.0
        assert float(kv["dense_seconds"]) > 0.0

    def test_no_kept_edges(self):
        code, out, err = run_cli(["bench", "--dim", "2", "--density", "0"])
        assert code == EXIT_OK
        assert err == ""
        kv = parse_kv(out)
        assert (kv["nnz"], kv["depth"], kv["agreement"]) == ("0", "0", "0.0")

    def test_non_finite_result_is_an_error(self, monkeypatch):
        # the report refuses an inf or nan in bench as in every other command
        result = cli.run_benchmark(5, 0.3, 0)
        monkeypatch.setattr(cli, "run_benchmark", lambda *args: dataclasses.replace(
            result, speedup=math.inf, agreement=math.nan))
        code, out, err = run_cli(["bench", "--dim", "5"])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: the benchmark overflows: speedup = inf\n"

    @pytest.mark.parametrize("density", ["0.0", "0.5"])
    def test_table(self, density):
        code, out, err = run_cli(
            ["bench", "--dim", "6", "--density", density, "--seed", "1", "--table"])
        assert (code, err) == (EXIT_OK, "")
        report, table = out.split("\n\n")
        head, rule, *body = table.splitlines()
        assert head.split() == ["quantity", "value"]
        assert set(rule) == {"-", " "}
        rows = dict(line.rsplit("  ", 1) for line in body)
        rows = {name.strip(): cell for name, cell in rows.items()}
        assert list(rows) == ["dimension", "density", "entries", "depth", "finite-sum solve (s)",
                              "dense LU solve (s)", "speedup", "relative agreement"]
        kv = parse_kv(report)
        assert (rows["dimension"], rows["density"]) == ("6", density)
        assert (rows["entries"], rows["depth"]) == (kv["nnz"], kv["depth"])
        for name in ("finite-sum solve (s)", "dense LU solve (s)", "speedup"):
            assert float(rows[name]) > 0.0

    def test_dim_below_two_is_input_error(self):
        code, _, err = run_cli(["bench", "--dim", "1"])
        assert code == EXIT_INPUT
        assert "error" in err

    def test_density_outside_the_unit_interval_is_input_error(self):
        assert run_cli(["bench", "--dim", "10", "--density", "2"]) == (
            EXIT_INPUT, "", "error: density must lie in [0, 1], got 2.0\n")


class TestInputFailures:
    def test_missing_file(self, tmp_path):
        code, _, err = run_cli(["analyze", str(tmp_path / "absent.spec")])
        assert code == EXIT_INPUT
        assert "error" in err

    def test_malformed_record_names_position(self, tmp_path):
        path = write_spec(tmp_path, {
            "dimension": 2,
            "transfer_entries": [
                {"from": 1, "to": 2, "re": 1.0, "im": 0.0},
                {"from": 2, "to": 1, "re": 1.0},
            ],
        })
        code, _, err = run_cli(["analyze", path])
        assert code == EXIT_INPUT
        assert "transfer_entries[1]" in err

    def test_duplicate_record_names_the_transition(self, tmp_path):
        # the spec's record loop names the repeat, not the operator's store
        path = write_spec(tmp_path, {
            "dimension": 2,
            "transfer_entries": [
                {"from": 1, "to": 2, "re": 0.5, "im": 0.0},
                {"from": 1, "to": 2, "re": 0.25, "im": 0.0},
            ],
        })
        assert run_cli(["analyze", path]) == (
            EXIT_INPUT, "",
            "error: transfer_entries[1]: duplicate coupling for transition 1 -> 2\n")

    def test_resonant_energy_names_level(self, tmp_path):
        path = write_spec(tmp_path, {
            "dimension": 2,
            "free_hamiltonian": [0.0, 1.0],
            "potential_entries": [
                {"from": 1, "to": 2, "re": 1.0, "im": 0.0},
            ],
            "energy": {"re": 1.0, "im": 0.0},
        })
        code, _, err = run_cli(["analyze", path])
        assert code == EXIT_INPUT
        assert "level 2" in err


class TestDimensionTooLarge:
    """A dimension that cannot be indexed or allocated is an input error."""

    def test_dimension_beyond_intp(self, tmp_path):
        path = write_spec(tmp_path, {
            "dimension": 2**63,
            "transfer_entries": [
                {"from": k, "to": k + 1, "re": 1.0, "im": 0.0} for k in range(1, 61)
            ],
        })
        for argv in (["analyze", path], ["solve", path, "--phi", "1"]):
            code, out, err = run_cli(argv)
            assert code == EXIT_INPUT
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("dimension", [2**63, 2**50])
    def test_names_the_dimension(self, tmp_path, dimension):
        # beyond intp, and 16 PiB for one state vector: both refused before
        # any array of that size exists
        path = write_spec(tmp_path, {
            "dimension": dimension,
            "transfer_entries": [{"from": 1, "to": 2, "re": 1.0, "im": 0.0}],
        })
        for argv in (["analyze", path], ["solve", path, "--phi", "1"]):
            code, out, err = run_cli(argv)
            assert (code, out) == (EXIT_INPUT, "")
            assert err == (f"error: dimension: {dimension} states are too many "
                           f"to index or allocate\n")

    def test_memory_error(self, tmp_path, monkeypatch):
        def handler(args):
            raise MemoryError("Unable to allocate 8.00 PiB")

        monkeypatch.setattr(cli, "_cmd_analyze", handler)
        code, out, err = run_cli(["analyze", write_spec(tmp_path, diamond_doc())])
        assert (code, out, err) == (EXIT_INPUT, "", "error: Unable to allocate 8.00 PiB\n")


class TestUsageErrors:
    def test_unknown_command(self):
        code, _, err = run_cli(["transmogrify"])
        assert code == EXIT_INPUT
        assert "usage error" in err

    def test_no_command_prints_help(self):
        code, _, err = run_cli([])
        assert code == EXIT_INPUT
        assert "analyze" in err

    def test_negative_order(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc())
        code, _, err = run_cli(["solve", path, "--phi", "1", "--order", "-1"])
        assert code == EXIT_INPUT
        assert ">= 0" in err

    @pytest.mark.parametrize("order", ["abc", "1.5"])
    def test_non_integer_order(self, tmp_path, order):
        # the message names the option, not the parsing function
        path = write_spec(tmp_path, diamond_doc())
        code, out, err = run_cli(["solve", path, "--phi", "1", "--order", order])
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"usage error: argument --order: must be an integer, got {order!r}\n"
        assert "_nonnegative_int" not in err

    def test_missing_phi(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc())
        code, _, err = run_cli(["solve", path])
        assert code == EXIT_INPUT
        assert "--phi" in err

    @pytest.mark.parametrize("argv", [
        ["scenario", "diamond", "--table"],
        ["scenario", "diamond", "--norm", "inf"],
        ["analyze", "--norm", "inf", "SPEC"],
        ["classify", "--norm", "one", "SPEC"],
        ["bench", "--dim", "5", "--norm", "inf"],
    ], ids=["scenario-table", "scenario-norm", "analyze-norm", "classify-norm", "bench-norm"])
    def test_options_no_command_reads_are_rejected(self, tmp_path, argv):
        path = write_spec(tmp_path, diamond_doc())
        code, out, err = run_cli([path if a == "SPEC" else a for a in argv])
        assert code == EXIT_INPUT
        assert out == ""
        assert "usage error: unrecognized arguments" in err

    def test_bad_norm_choice(self, tmp_path):
        path = write_spec(tmp_path, diamond_doc())
        code, _, err = run_cli(["analyze", "--norm", "two", path])
        assert code == EXIT_INPUT
        assert "usage error" in err


_NO_SCIPY_RUN = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.modules["scipy"] = None  # every later import of scipy raises ModuleNotFoundError
from bornsolve.cli import main

spec, diamond = sys.argv[1:]
out = io.StringIO()
with redirect_stdout(out):
    codes = {"scenario": main(["scenario", "diamond"])}
with open(diamond, "w", encoding="utf-8") as handle:
    handle.write(out.getvalue())
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    codes["analyze"] = main(["analyze", spec])
    codes["solve"] = main(["solve", spec, "--phi", "1", "--order", "3"])
    codes["bench"] = main(["bench", "--dim", "50"])
    codes["classify"] = main(["classify", diamond])
print(json.dumps(codes))
"""


def test_every_command_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency; solve --order runs the dense oracle
    spec = write_spec(tmp_path, TWO_LEVEL_LOOP)
    env = dict(os.environ, PYTHONPATH=str(Path(bornsolve.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, spec, str(tmp_path / "diamond.spec")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "scenario": EXIT_OK, "analyze": EXIT_CYCLIC, "solve": EXIT_OK,
        "bench": EXIT_OK, "classify": EXIT_OK,
    }
