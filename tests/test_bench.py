"""Random benchmark systems: the generator stores what the record path would."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from bornsolve.bench import random_dag_operator
from bornsolve.operators import SparseOperator


def recorded(dim: int, density: float, seed: int) -> SparseOperator:
    """The generator's draw for the seed, built from a list of record tuples."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(dim)
    pos_a, pos_b = np.triu_indices(dim, k=1)
    keep = rng.random(pos_a.shape[0]) < density
    sources = order[pos_a[keep]] + 1
    targets = order[pos_b[keep]] + 1
    radii = np.sqrt(rng.random(sources.shape[0]))
    angles = 2.0 * np.pi * rng.random(sources.shape[0])
    amplitudes = radii * np.exp(1j * angles)
    return SparseOperator(dim, list(zip(targets.tolist(), sources.tolist(),
                                        amplitudes.tolist())))


@pytest.mark.parametrize("dim", [1, 2, 50, 1000, 2000])
def test_stores_what_the_record_path_stores(dim):
    op = random_dag_operator(dim, 0.05, np.random.default_rng(dim))
    want = recorded(dim, 0.05, dim)
    for name in ("_row", "_col", "_amp"):
        got, expected = getattr(op, name), getattr(want, name)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
    assert op.dim == dim


@pytest.mark.parametrize("dim, density", [(1, 0.5), (2, 0.0), (30, 0.0)])
def test_no_kept_edges(dim, density):
    op = random_dag_operator(dim, density, np.random.default_rng(0))
    assert (op.dim, op.nnz) == (dim, 0)
    assert op == SparseOperator(dim)


@pytest.mark.parametrize("dim, density, message", [
    (0, 0.5, "dimension must be a positive integer, got 0"),
    (-3, 0.5, "dimension must be a positive integer, got -3"),
    # once a bare MemoryError from rng.permutation
    (2**40, 0.5, f"dimension: {2**40} states are too many to index or allocate"),
    (5, -0.1, "density must lie in [0, 1], got -0.1"),
    (5, 1.5, "density must lie in [0, 1], got 1.5"),
    (5, math.nan, "density must lie in [0, 1], got nan"),
])
def test_rejects_its_arguments(dim, density, message):
    # a refusal comes before any draw
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(message)):
        random_dag_operator(dim, density, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("density, error, message", [
    # an empty array once reached 0.0 <= density, which numpy below 2.2 only warns about
    (np.array([]), TypeError, "density is not a number: array([], dtype=float64)"),
    (np.array(0.5), TypeError, "density is not a number: array(0.5)"),
    ("0.5", TypeError, "density is not a number: '0.5'"),
    (True, TypeError, "density is not a number: True"),
    (np.True_, TypeError, "density is not a number: "),
    (0.5 + 0j, TypeError, "density is not a real number: (0.5+0j)"),
    (np.complex64(0.5), TypeError, "density is not a real number: "),
    (2**1024, ValueError, "density is an int beyond the float range"),
])
def test_density_passes_the_number_gate(density, error, message):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(error, match=re.escape(message)):
        random_dag_operator(5, density, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("density", [0, 1, np.int8(1), np.float32(0.25), np.float16(0.5)])
def test_real_densities_of_any_number_type(density):
    op = random_dag_operator(12, density, np.random.default_rng(7))
    assert op == random_dag_operator(12, float(density), np.random.default_rng(7))
