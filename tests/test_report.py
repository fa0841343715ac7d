"""Key-value report rendering."""

from __future__ import annotations

import enum
import math

import numpy as np
import pytest

from bornsolve.report import (
    _report_lines,
    first_non_finite,
    format_complex,
    format_scalar,
    format_table,
    kv_lines,
)


class TestFormatScalar:
    @pytest.mark.parametrize("value, text", [
        (True, "true"),
        (False, "false"),
        (3, "3"),
        (-17, "-17"),
        (0.5, "0.5"),
        (1.0, "1.0"),
        (-0.0001, "-0.0001"),
        ("hello", "hello"),
    ])
    def test_values(self, value, text):
        assert format_scalar(value) == text

    def test_float_text_round_trips(self):
        rng = np.random.default_rng(199)
        for _ in range(200):
            x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
            assert float(format_scalar(x)) == x

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            format_scalar(object())
        with pytest.raises(TypeError):
            format_scalar([1, 2])


class TestFormatComplex:
    @pytest.mark.parametrize("z, text", [
        (1 + 2j, "1.0 + 2.0j"),
        (1 - 2j, "1.0 - 2.0j"),
        (-0.5 + 0j, "-0.5 + 0.0j"),
        (0j, "0.0 + 0.0j"),
    ])
    def test_values(self, z, text):
        assert format_complex(z) == text

    def test_parts_round_trip(self):
        rng = np.random.default_rng(211)
        for _ in range(100):
            z = complex(rng.normal(), rng.normal())
            text = format_complex(z)
            real_text, _, rest = text.partition(" ")
            sign, _, imag_text = rest.partition(" ")
            imag = float(imag_text.removesuffix("j"))
            if sign == "-":
                imag = -imag
            assert complex(float(real_text), imag) == z


class TestKvLines:
    def test_flat_mapping(self):
        lines = kv_lines({"alpha": 1, "beta": "two", "ok": True})
        assert lines == ["alpha = 1", "beta = two", "ok = true"]

    def test_nested_mapping_uses_dots(self):
        lines = kv_lines({"outer": {"inner": 3, "deep": {"leaf": 0.5}}})
        assert lines == ["outer.inner = 3", "outer.deep.leaf = 0.5"]

    def test_complex_splits_into_re_im(self):
        lines = kv_lines({"amp": 1.5 - 0.25j})
        assert lines == ["amp.re = 1.5", "amp.im = -0.25"]

    def test_numpy_complex_treated_as_complex(self):
        lines = kv_lines({"amp": np.complex128(2.0 + 1.0j)})
        assert lines == ["amp.re = 2.0", "amp.im = 1.0"]

    def test_int_sequence_inlined(self):
        assert kv_lines({"order": [3, 1, 2]}) == ["order = 3 1 2"]

    def test_str_sequence_inlined(self):
        assert kv_lines({"names": ["a", "b"]}) == ["names = a b"]

    def test_subclass_sequences_inlined_as_format_scalar_prints_them(self):
        class Level(enum.IntEnum):
            GROUND = 1
            EXCITED = 2

        tree = {"order": [Level.EXCITED, np.int64(1), 3], "names": [np.str_("a"), "b"]}
        assert kv_lines(tree) == ["order = 2 1 3", "names = a b"]

    def test_bool_sequence_indexed(self):
        assert kv_lines({"flags": [1, True]}) == ["flags.0 = 1", "flags.1 = true"]

    def test_float_sequence_indexed(self):
        lines = kv_lines({"state": [0.5, 0.25]})
        assert lines == ["state.0 = 0.5", "state.1 = 0.25"]

    def test_complex_sequence_indexed_and_split(self):
        lines = kv_lines({"psi": [1 + 0j, 0 - 1j]})
        assert lines == [
            "psi.0.re = 1.0",
            "psi.0.im = 0.0",
            "psi.1.re = 0.0",
            "psi.1.im = -1.0",
        ]

    def test_vector_leaf_matches_dict_of_complex(self):
        parts = [0.0, -0.0, 5e-324, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]
        values = [complex(a, b) for a in parts for b in parts]
        vec = np.array(values)
        as_dict = {str(k): z for k, z in enumerate(values, start=1)}
        assert kv_lines({"phi": vec, "term": {"0": vec}, "n": 1}) == kv_lines(
            {"phi": as_dict, "term": {"0": as_dict}, "n": 1})
        assert kv_lines({"v": vec[:1]}) == ["v.1.re = 0.0", "v.1.im = 0.0"]

    @pytest.mark.parametrize("array", [
        np.array([1.0, 2.0]),
        np.zeros((2, 2), dtype=complex),
    ])
    def test_other_arrays_are_not_vector_leaves(self, array):
        with pytest.raises(TypeError):
            kv_lines({"a": array})

    def test_none_values_skipped(self):
        lines = kv_lines({"kept": 1, "dropped": None, "also": 2})
        assert lines == ["kept = 1", "also = 2"]

    def test_insertion_order_preserved(self):
        lines = kv_lines({"z": 1, "a": 2})
        assert lines == ["z = 1", "a = 2"]

    def test_every_line_has_single_separator(self):
        lines = kv_lines({
            "scalar": 1.0,
            "vec": [1 + 1j, 2 + 2j],
            "nest": {"x": [1, 2, 3]},
        })
        for line in lines:
            key, sep, value = line.partition(" = ")
            assert sep == " = "
            assert key and value


def first_printed_non_finite(lines):
    return next((line for line in lines if line.partition(" = ")[2] in {"inf", "-inf", "nan"}),
                None)


INF, NAN = math.inf, math.nan


class TestFirstNonFinite:
    @pytest.mark.parametrize("tree, line", [
        ({"a": 1.0, "b": {"c": 2, "d": {"e": -INF}}, "f": NAN}, "b.d.e = -inf"),
        ({"ok": True, "z": complex(1.0, NAN), "w": INF}, "z.im = nan"),
        ({"z": np.complex128(complex(-INF, 0.0))}, "z.re = -inf"),
        ({"n": 3, "v": np.array([1 + 0j, complex(0.0, INF)]), "w": INF}, "v.2.im = inf"),
        ({"term": {"0": np.ones(2, complex), "1": np.array([NAN + 0j, 1j])}}, "term.1.1.re = nan"),
        ({"order": [3, 1, 2], "state": [0.5, INF, NAN]}, "state.1 = inf"),
        ({"psi": [1 + 0j, complex(NAN, NAN)]}, "psi.1.re = nan"),
        ({"x": np.float64(-INF)}, "x = -inf"),
        ({"skipped": None, "x": 1e308, "v": np.array([1e-320 + 0j]), "r": [1, "a"]}, None),
    ])
    def test_is_the_first_printed_non_finite_line(self, tree, line):
        assert first_non_finite(tree) == first_printed_non_finite(kv_lines(tree)) == line
        assert _report_lines(tree) == (kv_lines(tree), line)

    def test_prefix_is_part_of_the_line(self):
        assert first_non_finite({"norm": INF}, "truncation.") == "truncation.norm = inf"

    def test_strings_are_not_numbers(self):
        # a string that reads inf is text, such as a spec file's name
        assert kv_lines({"spec": "inf", "names": ["nan"]}) == ["spec = inf", "names = nan"]
        assert first_non_finite({"spec": "inf", "names": ["nan"]}) is None


class TestFormatTable:
    def test_columns_aligned(self):
        text = format_table(
            ["state", "amplitude"],
            [[1, "0.5"], [22, "-1.25"]],
        )
        lines = text.splitlines()
        assert len(lines) == 4
        header, rule, row1, row2 = lines
        assert header.index("amplitude") == row1.index("0.5")
        assert set(rule) <= {"-", " "}
        assert len(rule) == len(header)

    def test_cells_use_scalar_formatting(self):
        text = format_table(["flag", "count"], [[True, 3]])
        assert "true" in text
        assert "3" in text

    def test_numbers_match_kv_rendering(self):
        value = 0.30000000000000004
        table = format_table(["v"], [[value]])
        kv = kv_lines({"v": value})[0]
        assert kv.split(" = ")[1] in table

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])
