"""Benchmark the certified substitution solve against dense LU on random systems.

Only agreement between the two routes is ever asserted anywhere; the
wall-clock numbers are reported for inspection because they depend on the
machine, the BLAS and the draw.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .operators import SparseOperator, _checked_columns, vector_norm
from .solver import direct_solve_oracle, make_system, solve_exact


@dataclass(frozen=True)
class BenchResult:
    dim: int
    density: float
    seed: int
    nnz: int
    depth: int
    born_seconds: float
    dense_seconds: float
    agreement: float  # relative inf-norm difference between the two solutions
    speedup: float  # dense_seconds / born_seconds, reported only


def random_dag_operator(dim: int, density: float, rng) -> SparseOperator:
    """Random acyclic operator.

    Draws a random vertex order, keeps each forward edge independently
    with probability `density` and gives it an amplitude uniform on the
    complex unit disk.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    order = rng.permutation(dim)
    pos_a, pos_b = np.triu_indices(dim, k=1)
    keep = rng.random(pos_a.shape[0]) < density
    sources = order[pos_a[keep]] + 1
    targets = order[pos_b[keep]] + 1
    radii = np.sqrt(rng.random(sources.shape[0]))
    angles = 2.0 * np.pi * rng.random(sources.shape[0])
    amplitudes = radii * np.exp(1j * angles)
    # distinct forward edges within 1..dim: the check passes, and sorts them by row
    return SparseOperator._from_arrays(dim, *_checked_columns(dim, targets, sources, amplitudes))


def run_benchmark(dim: int, density: float, seed: int) -> BenchResult:
    """Time both solve routes on one random draw and compare the answers."""
    if dim < 2:
        raise ValueError(f"benchmark needs dim >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    operator = random_dag_operator(dim, density, rng)
    phi = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2.0)

    start = time.perf_counter()
    system = make_system(operator)
    born = solve_exact(system, phi).total
    born_seconds = time.perf_counter() - start

    start = time.perf_counter()
    dense = direct_solve_oracle(operator, phi)
    dense_seconds = time.perf_counter() - start

    difference = vector_norm(born - dense, "inf")
    scale = vector_norm(dense, "inf")
    agreement = difference / scale if scale > 0.0 else difference
    speedup = dense_seconds / born_seconds if born_seconds > 0.0 else float("inf")
    return BenchResult(
        dim=dim,
        density=density,
        seed=seed,
        nnz=operator.nnz,
        depth=system.depth,
        born_seconds=born_seconds,
        dense_seconds=dense_seconds,
        agreement=agreement,
        speedup=speedup,
    )
