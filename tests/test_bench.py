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
