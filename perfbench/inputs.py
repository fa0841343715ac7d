"""Seeded inputs for the benchmark workloads, made with numpy alone.

Nothing here imports bornsolve: the program under test only ever sees
the raw (row, col, amplitude) records, level arrays, energies and spec
files produced below.  Row j, column i holds the amplitude of the
transition i -> j, with 1-based labels, as bornsolve expects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

DEEP_DIM = 1000
DEEP_DENSITY = 0.05
DEEP_POOL = 32  # distinct draws per seed, so one unusually deep draw moves the median little

CLI_BANDS = 4
CLI_BAND_WIDTH = 500
CLI_FANOUT = 3

DIAMOND_H0 = (0.0, 1.0, 1.7, 2.6)
# (row, col, amplitude): 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 4
DIAMOND_V = ((2, 1, 0.30 + 0.10j), (3, 1, 0.25 - 0.05j),
             (4, 2, 0.40 + 0.00j), (4, 3, -0.20 + 0.30j))
DIAMOND_GRID = 4096
DIAMOND_IMAG = 0.05

RESOLVENT_DIM = 300
RESOLVENT_DENSITY = 0.05
# The DAG pattern and its reversed edges come from this fixed stream; the
# values on them (amplitudes, levels, energy, phi) come from --seed and
# change with every request.  The fill-in work of full_resolvent and
# t_matrix varies from 140k to 260k entries between random patterns, and a
# run makes only ~30 requests, so a pattern per seed moved the run median
# by 17% and a pool of 16 fixed patterns still by 8%.  This stream gives the
# median fill-in of 40 candidate patterns: 2285 couplings, depth 29.
RESOLVENT_PATTERN = 300_010
RESOLVENT_REVERSED = 5
RESOLVENT_CONTRACTION = 0.9
RESOLVENT_ORDER = 3


@dataclass(frozen=True)
class Couplings:
    """Raw sparse couplings: 1-based rows (targets), cols (sources), amplitudes."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    amps: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    def records(self) -> list[tuple[int, int, complex]]:
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.amps.tolist()))


def _random_state(rng, dim: int) -> np.ndarray:
    return (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2.0)


def _unit_disk(rng, n: int) -> np.ndarray:
    return np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def _longest_path(order_pos_src: np.ndarray, order_pos_dst: np.ndarray, dim: int) -> int:
    """Edges counted on a longest path, for edges going forward in a vertex order."""
    longest = np.zeros(dim, dtype=np.int64)
    for k in np.argsort(order_pos_dst, kind="stable"):
        a, b = order_pos_src[k], order_pos_dst[k]
        if longest[a] + 1 > longest[b]:
            longest[b] = longest[a] + 1
    return int(longest.max()) if dim else 0


@dataclass(frozen=True)
class Dag:
    couplings: Couplings
    depth: int


def random_dag(rng, dim: int, density: float, scale: float = 1.0, amp_rng=None) -> Dag:
    """Random vertex order, each forward edge kept with probability `density`.

    Amplitudes are uniform on the complex disk of radius `scale`, drawn
    from amp_rng when given (so the pattern and the values can come from
    different streams).
    """
    order = rng.permutation(dim)
    pos_a, pos_b = np.triu_indices(dim, k=1)
    keep = rng.random(pos_a.size) < density
    pos_a, pos_b = pos_a[keep], pos_b[keep]
    amps = scale * _unit_disk(rng if amp_rng is None else amp_rng, pos_a.size)
    couplings = Couplings(dim, order[pos_b] + 1, order[pos_a] + 1, amps)
    return Dag(couplings, _longest_path(pos_a, pos_b, dim))


# ---------------------------------------------------------------- deep_dag

@dataclass(frozen=True)
class DeepDagInputs:
    """Request k uses draw k mod DEEP_POOL and its own phi; each is made on demand."""

    seed: int

    def draw(self, k: int) -> Dag:
        rng = np.random.default_rng([self.seed, 1, k % DEEP_POOL])
        return random_dag(rng, DEEP_DIM, DEEP_DENSITY)

    def phi(self, k: int) -> np.ndarray:
        return _random_state(np.random.default_rng([self.seed, 5, k]), DEEP_DIM)


# ---------------------------------------------------------------- cli_spec

@dataclass(frozen=True)
class CliSpecInputs:
    couplings: Couplings
    band_order: np.ndarray  # labels (1-based) listed band by band
    depth: int
    text: str


def cli_spec_inputs(seed: int) -> CliSpecInputs:
    """Layered cascade: each state feeds CLI_FANOUT distinct states of the next band.

    State labels are shuffled so the band structure is not the label order.
    """
    rng = np.random.default_rng([seed, 2])
    width = CLI_BAND_WIDTH
    dim = CLI_BANDS * width
    label = rng.permutation(dim) + 1  # label[band * width + k]
    rows, cols = [], []
    for band in range(CLI_BANDS - 1):
        picks = np.argsort(rng.random((width, width)), axis=1)[:, :CLI_FANOUT]
        src = band * width + np.repeat(np.arange(width), CLI_FANOUT)
        dst = (band + 1) * width + picks.ravel()
        rows.append(label[dst])
        cols.append(label[src])
    rows_a, cols_a = np.concatenate(rows), np.concatenate(cols)
    amps = _unit_disk(rng, rows_a.size)
    couplings = Couplings(dim, rows_a, cols_a, amps)
    spec = {
        "dimension": dim,
        "transfer_entries": [
            {"from": int(c), "to": int(r), "re": float(a.real), "im": float(a.imag)}
            for r, c, a in zip(rows_a, cols_a, amps)
        ],
    }
    return CliSpecInputs(couplings, label, CLI_BANDS - 1, json.dumps(spec, indent=1) + "\n")


# ---------------------------------------------------------- diamond_stream

@dataclass(frozen=True)
class DiamondInputs:
    h0: np.ndarray
    potential: Couplings
    energies: np.ndarray

    def energy(self, k: int) -> complex:
        return complex(self.energies[k % self.energies.size])


def diamond_inputs(seed: int) -> DiamondInputs:
    """Fixed diamond Hamiltonian; energies on a shuffled grid with Im E = DIAMOND_IMAG."""
    rng = np.random.default_rng([seed, 3])
    lo, hi = min(DIAMOND_H0) - 1.0, max(DIAMOND_H0) + 1.0
    grid = lo + (hi - lo) * (np.arange(DIAMOND_GRID) + rng.random()) / DIAMOND_GRID
    energies = rng.permutation(grid) + 1j * DIAMOND_IMAG
    rows, cols, amps = (np.array(x) for x in zip(*DIAMOND_V))
    return DiamondInputs(np.array(DIAMOND_H0), Couplings(4, rows, cols, amps), energies)


# ---------------------------------------------------- resolvent_truncation

@dataclass(frozen=True)
class ResolventDraw:
    h0: np.ndarray
    potential: Couplings
    energy: complex
    depth: int
    cyclic: Couplings  # contraction with a few reversed edges, in transfer form
    order: int


@dataclass(frozen=True)
class ResolventInputs:
    """Request k gets its own values on the fixed pattern, and its own phi."""

    seed: int

    def draw(self, k: int) -> ResolventDraw:
        return _resolvent_draw(np.random.default_rng(RESOLVENT_PATTERN),
                               np.random.default_rng([self.seed, 4, k]))

    def phi(self, k: int) -> np.ndarray:
        return _random_state(np.random.default_rng([self.seed, 6, k]), RESOLVENT_DIM)


def _resolvent_draw(pattern_rng, rng) -> ResolventDraw:
    dag = random_dag(pattern_rng, RESOLVENT_DIM, RESOLVENT_DENSITY, scale=0.5, amp_rng=rng)
    v = dag.couplings
    flip = pattern_rng.choice(v.nnz, size=RESOLVENT_REVERSED, replace=False)
    h0 = np.sort(rng.random(RESOLVENT_DIM))
    energy = complex(rng.random(), 0.5)
    t_amps = v.amps / (energy - h0[v.rows - 1])
    rows = np.concatenate([v.rows, v.cols[flip]])
    cols = np.concatenate([v.cols, v.rows[flip]])
    amps = np.concatenate([t_amps, _unit_disk(rng, RESOLVENT_REVERSED)])
    row_sums = np.bincount(rows - 1, weights=np.abs(amps), minlength=RESOLVENT_DIM)
    amps = amps * (RESOLVENT_CONTRACTION / row_sums.max())
    cyclic = Couplings(RESOLVENT_DIM, rows, cols, amps)
    order = min(RESOLVENT_ORDER, dag.depth - 1)
    return ResolventDraw(h0, v, energy, dag.depth, cyclic, order)
