"""Exception types shared across the package.

Every error raised by the library derives from :class:`ChainBoundsError`,
so callers (and the CLI) can catch one base class for input problems.
"""

from __future__ import annotations


class ChainBoundsError(Exception):
    """Base class for all validation and computation errors."""


class DimensionMismatch(ChainBoundsError):
    """Matrix/vector shapes do not agree with each other or the state space."""


class NegativeEntry(ChainBoundsError):
    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"negative entry {value!r} at ({i}, {j})")


class RowSumViolation(ChainBoundsError):
    def __init__(self, i: int, row_sum: float, target: float):
        self.i, self.row_sum, self.target = i, row_sum, target
        super().__init__(f"row {i} sums to {row_sum!r}, expected {target}")


class NegativeOffDiagonal(ChainBoundsError):
    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"negative off-diagonal rate {value!r} at ({i}, {j})")


class InvalidDistribution(ChainBoundsError):
    """Probability vector has negative mass or does not sum to one."""


class NotIrreducible(ChainBoundsError):
    """Support graph is not strongly connected; stationary law not unique."""


class SolverFailure(ChainBoundsError):
    """A linear solve or iteration did not reach the required residual."""


class ZeroMass(ChainBoundsError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"distribution has zero mass at state index {i}")


class NotInvariant(ChainBoundsError):
    """Supplied distribution is not invariant for the operator."""


class NotAbsolutelyContinuous(ChainBoundsError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(
            f"initial distribution puts mass on state {i} where the "
            "reference distribution has none"
        )


class NotCentered(ChainBoundsError):
    """Observable mean under mu exceeds the centering tolerance."""


class DegenerateStateSpace(ChainBoundsError):
    """Gap undefined: the mean-zero subspace of a 1-state space is {0}."""


class ThetaOutOfRange(ChainBoundsError):
    def __init__(self, theta: float, limit: float):
        self.theta, self.limit = theta, limit
        super().__init__(
            f"theta = {theta!r} outside the validity interval |theta| < {limit!r}"
        )


class InvalidQuery(ChainBoundsError):
    """Bound query with out-of-domain parameters."""


class InvalidP(InvalidQuery):
    """Moment order p outside (1, inf].

    p = 1 gives q = p/(p-1) = infinity, which makes the tail-bound
    exponent vanish: the bound is vacuous. Rejected rather than guessed.
    """


class TooLarge(ChainBoundsError):
    """A computation would exceed a size cap (enumerated paths, DP cells, table indices)."""


class InvalidCounts(ChainBoundsError):
    """Invalid success/trial counts for a binomial interval."""


class Overflow(ChainBoundsError):
    """An exact MGF, or its log scale, left the representable floating-point range."""


class SchemaError(ChainBoundsError):
    """Chain JSON file violates the documented schema."""
