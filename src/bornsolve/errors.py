"""Exception types shared across the library."""

from __future__ import annotations


class BornsolveError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(BornsolveError):
    """Operands act on spaces of different dimensions."""


class ResonanceError(BornsolveError):
    """The probe energy sits too close to a free-Hamiltonian level."""

    def __init__(self, level: int, energy: complex, gap: float, threshold: float):
        self.level = level
        self.energy = energy
        self.gap = gap
        self.threshold = threshold
        super().__init__(
            f"energy {energy} is within {gap:.3e} of free level {level} "
            f"(threshold {threshold:.3e}); move the energy off resonance or "
            f"give it an imaginary part"
        )


class NotNilpotentError(BornsolveError):
    """The transition graph has a directed cycle, so no finite expansion closes."""

    def __init__(self, witness_cycle):
        self.witness_cycle = tuple(witness_cycle)
        loop = " -> ".join(str(v) for v in self.witness_cycle)
        super().__init__(
            f"transition graph contains the directed cycle {loop} -> "
            f"{self.witness_cycle[0]}; only truncated expansions with "
            f"remainder control are available"
        )


class SingularError(BornsolveError):
    """A dense solve met a pivot too small to trust."""


class TopologyError(BornsolveError):
    """The system does not have the shape the requested analysis assumes."""


class SpecFormatError(BornsolveError):
    """A system description file is malformed."""
