"""Shared random-system generators for the test suite.

Everything is driven by explicitly seeded numpy Generators so failures
reproduce; no test draws from global random state.
"""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
from hypothesis import strategies as st

from bornsolve import operators
from bornsolve.operators import SparseOperator, operator_norm
from oracles import scaled

# 0, +-1, +-1/2 and +-1/4, times 1 or i: on a DAG of at most 16 states, and
# in the first five powers of any operator of at most 16 states, every
# product and sum of these, in any order, is a dyadic of at most 53
# significant bits, so no floating-point step rounds
DYADIC = [0.0, *(s * f * u for f in (1.0, 0.5, 0.25) for s in (1, -1) for u in (1, 1j))]


def assert_same_bits(got, want) -> None:
    """Equal values and equal signs, so -0.0 and 0.0 count as different."""
    npt.assert_array_equal(got, want)
    npt.assert_array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def forget() -> None:
    """Empty the pattern memory, so that nothing derived from a test operator's pattern is kept."""
    operators._memory = operators._seen = ()


def random_phase(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def random_dag(rng, dim: int, density: float = 0.35,
               min_modulus: float = 0.5, max_modulus: float = 2.0) -> SparseOperator:
    """Random acyclic operator with edge moduli bounded away from zero.

    With the default floor of 0.5 even an 11-edge path product stays near
    5e-4, far from underflow, and random phases make an exact cancellation
    vanishingly unlikely, so the sparse power pattern is exactly the walk
    pattern of the graph.
    """
    order = rng.permutation(dim)
    entries = []
    for a in range(dim):
        for b in range(a + 1, dim):
            if rng.random() < density:
                amp = rng.uniform(min_modulus, max_modulus) * random_phase(rng)
                entries.append((int(order[b]) + 1, int(order[a]) + 1, amp))
    return SparseOperator(dim, entries)


def random_operator(rng, dim: int, density: float = 0.4) -> SparseOperator:
    """Random operator with unrestricted pattern; cycles are likely."""
    entries = []
    for row in range(1, dim + 1):
        for col in range(1, dim + 1):
            if rng.random() < density:
                amp = rng.uniform(0.2, 1.0) * random_phase(rng)
                entries.append((row, col, amp))
    return SparseOperator(dim, entries)


def scaled_to_norm(op: SparseOperator, target: float, kind: str = "inf") -> SparseOperator:
    """Rescale so the chosen norm equals target up to rounding."""
    current = operator_norm(op, kind)
    if current == 0.0:
        raise ValueError("cannot rescale a zero operator")
    return scaled(op, target / current)


def random_state(rng, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def backward_error(op: SparseOperator, phi, psi) -> float:
    """max|psi - T psi - phi| / (max|T| max|psi| + max|phi|), T applied densely.

    The normwise backward error of psi as a solution of (I - T) psi = phi;
    the bare residual when the scale is zero.
    """
    t = op.to_dense()
    residual = float(np.abs(psi - t @ psi - phi).max())
    scale = float(np.abs(t).max() * np.abs(psi).max() + np.abs(phi).max())
    return residual / scale if scale > 0.0 else residual


@st.composite
def planted_blocks(draw, max_blocks: int = 6, max_size: int = 4):
    """(dim, entries, blocks): a transition graph with planted strongly connected blocks.

    Labels are shuffled.  A block of several states carries a cycle
    through all of them and some further edges among them; any state may
    have a self-loop; edges between blocks run only from an earlier block
    to a later one.  So the blocks, listed sources first, are the graph's
    strongly connected components.  Entries are (row, col, amplitude)
    with moduli in [0.25, 1].
    """
    sizes = draw(st.lists(st.integers(1, max_size), min_size=1, max_size=max_blocks))
    dim = sum(sizes)
    labels = draw(st.permutations(range(1, dim + 1)))
    starts = np.cumsum([0, *sizes]).tolist()
    blocks = [labels[a:b] for a, b in zip(starts, starts[1:])]
    edges = []
    for block in blocks:
        if len(block) > 1:
            cycle = list(zip(block, block[1:] + block[:1]))
            others = [(i, j) for i in block for j in block if i != j and (i, j) not in cycle]
            edges += cycle + draw(st.lists(st.sampled_from(others), unique=True,
                                           max_size=len(block)) if others else st.just([]))
    edges += [(v, v) for v in draw(st.lists(st.sampled_from(labels), unique=True, max_size=3))]
    downstream = [(i, j) for p, early in enumerate(blocks) for late in blocks[p + 1:]
                  for i in early for j in late]
    if downstream:
        edges += draw(st.lists(st.sampled_from(downstream), unique=True, max_size=2 * dim))
    amplitude = st.complex_numbers(min_magnitude=0.25, max_magnitude=1.0,
                                   allow_nan=False, allow_infinity=False)
    entries = [(j, i, draw(amplitude)) for i, j in edges]
    return dim, entries, [sorted(block) for block in blocks]
