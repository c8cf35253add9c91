"""Validated Markov chain primitives.

Transition matrices, generator (rate) matrices, probability distributions
and bounded observables over a finite labelled state space, together with
stationary-distribution, invariance and density-norm computations. All
types are immutable after validation; every operation is a pure function
of its inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    InvalidP,
    NegativeEntry,
    NegativeOffDiagonal,
    NotAbsolutelyContinuous,
    NotCentered,
    NotInvariant,
    NotIrreducible,
    RowSumViolation,
    SchemaError,
    SolverFailure,
    ZeroMass,
)

ROW_SUM_TOLERANCE = 1e-9
CENTERING_TOLERANCE = 1e-10
INVARIANCE_TOLERANCE = 1e-9
STATIONARY_RESIDUAL_TOLERANCE = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _as_square(raw, what: str = "matrix") -> np.ndarray:
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionMismatch(f"{what} contains non-finite entries")
    return a


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite set of distinct state labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 1:
            raise DimensionMismatch("state space must contain at least one state")
        if len(set(self.labels)) != len(self.labels):
            raise DimensionMismatch("state labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    @classmethod
    def indexed(cls, n: int) -> "StateSpace":
        """State space with labels "0", "1", ..., "n-1"."""
        return cls(tuple(str(i) for i in range(n)))


def _make_space(labels, n: int) -> StateSpace:
    if labels is None:
        return StateSpace.indexed(n)
    if isinstance(labels, StateSpace):
        space = labels
    else:
        space = StateSpace(tuple(str(x) for x in labels))
    if space.size != n:
        raise DimensionMismatch(
            f"matrix is {n}x{n} but {space.size} labels were given"
        )
    return space


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix over a finite state space.

    Validated and row-renormalized; construct via
    :func:`validate_transition_matrix`.
    """

    space: StateSpace
    entries: np.ndarray

    @property
    def n_states(self) -> int:
        return self.space.size


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Rate matrix of a Markov jump process (zero row sums, units 1/time).

    Validated via :func:`validate_generator`; the diagonal is set to minus
    the off-diagonal row sum.
    """

    space: StateSpace
    entries: np.ndarray

    @property
    def n_states(self) -> int:
        return self.space.size


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over a state space, with recorded support."""

    space: StateSpace
    weights: np.ndarray
    support: tuple[int, ...]

    @property
    def n_states(self) -> int:
        return self.space.size


@dataclass(frozen=True, eq=False)
class Observable:
    """Real function on states with moments under a reference distribution.

    ``M`` is the sup-norm of the (possibly centered) values, ``sigma2`` the
    exact variance under ``mu``. ``centered`` records whether the stored
    values have mean zero under mu within the centering tolerance.
    """

    space: StateSpace
    values: np.ndarray
    mean_mu: float
    M: float
    sigma2: float
    centered: bool


ChainOperator = Union[TransitionMatrix, GeneratorMatrix]


def validate_transition_matrix(raw, labels=None) -> TransitionMatrix:
    """Validate and row-renormalize a candidate transition matrix.

    Parameters
    ----------
    raw : array_like
        Square matrix of nonnegative reals, rows summing to 1 within
        ``ROW_SUM_TOLERANCE``.
    labels : sequence of str, optional
        State labels; defaults to "0", "1", ....

    Returns
    -------
    TransitionMatrix
        Rows renormalized to sum to 1 in working precision.

    Raises
    ------
    NegativeEntry, RowSumViolation, DimensionMismatch
    """
    a = _as_square(raw, "transition matrix")
    n = a.shape[0]
    space = _make_space(labels, n)
    neg = np.argwhere(a < 0)
    if neg.size:
        i, j = map(int, neg[0])
        raise NegativeEntry(i, j, float(a[i, j]))
    sums = a.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOLERANCE)
    if bad.size:
        i = int(bad[0])
        raise RowSumViolation(i, float(sums[i]), 1.0)
    a = a / sums[:, None]
    return TransitionMatrix(space, _freeze(a))


def validate_generator(raw, labels=None) -> GeneratorMatrix:
    """Validate a candidate rate matrix.

    Off-diagonal entries must be nonnegative and each row must sum to zero
    within tolerance; the diagonal is then reset to minus the off-diagonal
    row sum so row sums are exactly zero in working precision.
    """
    a = _as_square(raw, "generator matrix").copy()
    n = a.shape[0]
    space = _make_space(labels, n)
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    neg = np.argwhere(off < 0)
    if neg.size:
        i, j = map(int, neg[0])
        raise NegativeOffDiagonal(i, j, float(a[i, j]))
    scale = max(1.0, float(np.abs(a).max()))
    sums = a.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums) > ROW_SUM_TOLERANCE * scale)
    if bad.size:
        i = int(bad[0])
        raise RowSumViolation(i, float(sums[i]), 0.0)
    np.fill_diagonal(a, -off.sum(axis=1))
    return GeneratorMatrix(space, _freeze(a))


def make_distribution(weights, space=None) -> Distribution:
    """Validate a probability vector and record its support."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise DimensionMismatch("distribution weights must be a vector")
    if space is None:
        space = StateSpace.indexed(w.size)
    elif not isinstance(space, StateSpace):
        space = _make_space(space, w.size)
    if space.size != w.size:
        raise DimensionMismatch(
            f"distribution has {w.size} weights for {space.size} states"
        )
    if (w < 0).any():
        i = int(np.argmin(w))
        raise InvalidDistribution(f"negative weight {w[i]!r} at index {i}")
    total = float(w.sum())
    if abs(total - 1.0) > ROW_SUM_TOLERANCE:
        raise InvalidDistribution(f"weights sum to {total!r}, expected 1")
    w = w / total
    support = tuple(int(i) for i in np.flatnonzero(w > 0))
    return Distribution(space, _freeze(w), support)


def _support_graph(op: ChainOperator) -> np.ndarray:
    a = op.entries > 0
    if isinstance(op, GeneratorMatrix):
        a = a.copy()
        np.fill_diagonal(a, False)
    return a


def _reaches_all(adj: np.ndarray, start: int = 0) -> bool:
    n = adj.shape[0]
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    frontier = np.array([start])
    while frontier.size:
        reachable = adj[frontier].any(axis=0) & ~visited
        frontier = np.flatnonzero(reachable)
        visited |= reachable
    return bool(visited.all())


def is_irreducible(op: ChainOperator) -> bool:
    """True iff the directed support graph is strongly connected.

    Edges are taken where entries are exactly positive (off-diagonal for
    generators); validated matrices keep exact zeros from the input.
    """
    adj = _support_graph(op)
    # strongly connected <=> node 0 reaches all nodes in both orientations
    return _reaches_all(adj) and _reaches_all(adj.T)


# States per block of the stationary solve. With one BLAS thread, dense chains
# of n = 400 / 600 / 2000 states took 0.011 / 0.023 / 0.55 s at 16, 0.012 /
# 0.021 / 0.35 s at 32 and 0.019 / 0.029 / 0.30 s at 64: small blocks make
# the trailing matmuls thin, large ones cost O(b^2) per eliminated state.
_GTH_BLOCK = 32


def _gth_solve(entries: np.ndarray) -> np.ndarray:
    """Invariant probability vector by blocked GTH elimination.

    Reads off-diagonal entries only. Each trailing block B of states is
    folded into the stochastic complement A_LL + A_LB G A_BL of the leading
    states L, G = (D_B - A_BB)^-1 with D_B the off-diagonal row sums of B
    (Meyer 1989). GTH steps (Grassmann, Taksar & Heyman 1985) on
    [[0, 0, I], [I, r, A_BB]], r the row sums of A_BL, leave G in the
    leading corner; then mu_B = mu_L A_LB G. No step subtracts.
    """
    a = np.array(entries, dtype=float)
    n = a.shape[0]
    blocks = []
    for k1 in range(n, 1, -_GTH_BLOCK):
        k0 = max(1, k1 - _GTH_BLOCK)
        b = k1 - k0
        z = np.zeros((2 * b, 2 * b + 1))
        z[:b, b + 1:] = np.eye(b)
        z[b:, :b] = np.eye(b)
        z[b:, b] = a[k0:k1, :k0].sum(axis=1)
        z[b:, b + 1:] = a[k0:k1, k0:k1]
        for j in range(b - 1, -1, -1):
            p, c = b + j, b + 1 + j
            z[:p, c] /= z[p, b:c].sum()
            z[:p, :c] += np.outer(z[:p, c], z[p, :c])
        g = z[:b, :b]
        a[:k0, :k0] += a[:k0, k0:k1] @ (g @ a[k0:k1, :k0])
        blocks.append((k0, k1, g))
    w = np.ones(n)
    for k0, k1, g in reversed(blocks):
        w[k0:k1] = (w[:k0] @ a[:k0, k0:k1]) @ g
    return w / w.sum()


def stationary_distribution(op: ChainOperator) -> Distribution:
    """Unique invariant distribution of an irreducible chain or jump process.

    One blocked GTH solve of mu P = mu (resp. mu Q = 0) serves every size and
    both time scales. It never subtracts, so every mu(i) has a small relative
    error, even where mu spans hundreds of decades. The result must be
    positive and satisfy the balance equation to max-norm residual
    1e-12 * max(1, max |entries|): the residual of an accurate mu grows with
    the rate scale of a jump process, as in :func:`check_invariant`.

    Raises
    ------
    NotIrreducible
        When the support graph is not strongly connected.
    SolverFailure
        When the residual or positivity requirement is not met, for instance
        when some mu(i) underflows.
    """
    if not is_irreducible(op):
        raise NotIrreducible("support graph is not strongly connected")
    w = _gth_solve(op.entries)
    if not w.min() > 0:  # also catches NaN from an underflowed pivot
        raise SolverFailure("stationary solve produced nonpositive mass")
    discrete = isinstance(op, TransitionMatrix)
    residual = float(np.abs(w @ op.entries - (w if discrete else 0.0)).max())
    scale = max(1.0, float(np.abs(op.entries).max()))
    if residual > STATIONARY_RESIDUAL_TOLERANCE * scale:
        raise SolverFailure(
            f"stationary residual {residual!r} above tolerance at rate scale {scale!r}"
        )
    return make_distribution(w, op.space)


def _check_mu_positive(mu: Distribution, n: int) -> np.ndarray:
    if mu.n_states != n:
        raise DimensionMismatch("distribution does not match operator dimensions")
    w = mu.weights
    zero = np.flatnonzero(w <= 0)
    if zero.size:
        raise ZeroMass(int(zero[0]))
    return w


def check_invariant(op: ChainOperator, mu: Distribution) -> None:
    """Raise NotInvariant unless mu P = mu (resp. mu Q = 0) within tolerance."""
    w = mu.weights
    if isinstance(op, TransitionMatrix):
        residual = float(np.abs(w @ op.entries - w).max())
        scale = 1.0
    else:
        residual = float(np.abs(w @ op.entries).max())
        scale = max(1.0, float(np.abs(op.entries).max()))
    if residual > INVARIANCE_TOLERANCE * scale:
        raise NotInvariant(
            f"distribution is not invariant (residual {residual!r})"
        )


def radon_nikodym_norm(nu: Distribution, mu: Distribution, p: float) -> float:
    """p-moment norm of the density d(nu)/d(mu).

    Returns ``(sum_i mu(i) (nu(i)/mu(i))^p)^(1/p)`` for finite p and
    ``max_i nu(i)/mu(i)`` for p = inf. Always >= 1, with equality iff
    nu = mu.

    Raises
    ------
    InvalidP
        For p <= 1 (the paired exponent q = p/(p-1) would make the
        tail bound vacuous at p = 1; see module docs).
    NotAbsolutelyContinuous
        When nu puts mass where mu has none.
    """
    if not p > 1:
        raise InvalidP(
            f"p = {p!r} rejected: p must lie in (1, inf]; at p = 1 the "
            "Hoelder exponent q is infinite and the tail bound is vacuous"
        )
    if nu.n_states != mu.n_states:
        raise DimensionMismatch("distributions live on different state spaces")
    wn, wm = nu.weights, mu.weights
    bad = np.flatnonzero((wn > 0) & (wm == 0))
    if bad.size:
        raise NotAbsolutelyContinuous(int(bad[0]))
    mask = wm > 0
    ratio = wn[mask] / wm[mask]
    if np.isinf(p):
        return float(ratio.max())
    return float((wm[mask] @ ratio**p) ** (1.0 / p))


def make_observable(values, mu: Distribution, auto_center: bool = True) -> Observable:
    """Build an observable with exact moments under ``mu``.

    With ``auto_center`` the values are shifted by -E_mu[values]; otherwise
    a mean beyond ``CENTERING_TOLERANCE`` raises :class:`NotCentered`.
    ``M`` is the sup-norm of the stored values and ``sigma2`` their exact
    variance under mu.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size != mu.n_states:
        raise DimensionMismatch("observable values do not match the state space")
    w = mu.weights
    mean = float(w @ v)
    if auto_center:
        v = v - mean
    elif abs(mean) > CENTERING_TOLERANCE:
        raise NotCentered(f"E_mu[f] = {mean!r} exceeds tolerance {CENTERING_TOLERANCE!r}")
    mean_stored = float(w @ v)
    m_bound = float(np.abs(v).max())
    sigma2 = max(float(w @ v**2) - mean_stored**2, 0.0)
    return Observable(
        space=mu.space,
        values=_freeze(v),
        mean_mu=mean_stored,
        M=m_bound,
        sigma2=sigma2,
        centered=abs(mean_stored) <= CENTERING_TOLERANCE,
    )


def observable_values(f) -> np.ndarray:
    """Accept an Observable or a plain vector and return the value array."""
    if isinstance(f, Observable):
        return f.values
    v = np.asarray(f, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch("observable must be a vector of reals")
    return v


# ---------------------------------------------------------------------------
# Chain JSON schema
#
# { "labels": ["a", "b", ...], "P": [[...], ...] }   discrete chain, or
# { "labels": [...], "Q": [[...], ...] }             jump process,
# plus optional "mu", "f", "nu" vectors. Unknown keys are rejected.
# ---------------------------------------------------------------------------

_CHAIN_KEYS = {"labels", "P", "Q", "mu", "f", "nu"}


@dataclass(frozen=True, eq=False)
class ChainData:
    """Parsed contents of a chain JSON document."""

    operator: ChainOperator
    mu: Distribution | None
    nu: Distribution | None
    f_values: np.ndarray | None

    @property
    def space(self) -> StateSpace:
        return self.operator.space

    @property
    def kind(self) -> str:
        return "discrete" if isinstance(self.operator, TransitionMatrix) else "continuous"


def _schema_array(obj, name: str, ndim: int, n: int | None = None) -> np.ndarray:
    """A JSON array of numbers, nested ``ndim`` deep with every side n long, as floats.

    ``n=None`` takes any length, the same on every side. numpy infers the
    kind, so numeric strings (which ``dtype=float`` would parse) and
    integers beyond 64 bits (held as objects) are refused; so are JSON
    booleans, which numpy reads as numbers next to numbers, by their type.
    """
    side = "n" if n is None else n
    shape = f"{name} must be a list of {side} " + f"lists of {side} " * (ndim - 1) + "numbers"
    try:
        a = np.asarray(obj)
    except ValueError as exc:  # a ragged nesting
        raise SchemaError(shape) from exc
    if a.ndim != ndim or len(set(a.shape)) != 1 or n not in (None, a.shape[0]):
        raise SchemaError(shape)
    rows = obj if ndim == 2 else [obj]
    if a.dtype.kind not in "iuf" or any(bool in set(map(type, row)) for row in rows):
        raise SchemaError(f"{name} must contain only numbers")
    return a.astype(float, copy=False)


def parse_chain(obj) -> ChainData:
    """Validate a decoded chain JSON object against the schema."""
    if not isinstance(obj, dict):
        raise SchemaError("chain document must be a JSON object")
    unknown = set(obj) - _CHAIN_KEYS
    if unknown:
        raise SchemaError(f"unknown keys in chain document: {sorted(unknown)}")
    if "labels" not in obj:
        raise SchemaError('chain document requires a "labels" list')
    labels = obj["labels"]
    if (
        not isinstance(labels, list)
        or not labels
        or not all(isinstance(x, str) for x in labels)
    ):
        raise SchemaError('"labels" must be a nonempty list of strings')
    n = len(labels)
    has_p, has_q = "P" in obj, "Q" in obj
    if has_p == has_q:
        raise SchemaError('chain document requires exactly one of "P" or "Q"')
    if has_p:
        op = validate_transition_matrix(_schema_array(obj["P"], '"P"', 2, n), labels)
    else:
        op = validate_generator(_schema_array(obj["Q"], '"Q"', 2, n), labels)
    mu = nu = f_values = None
    if "mu" in obj:
        mu = make_distribution(_schema_array(obj["mu"], '"mu"', 1, n), op.space)
    if "nu" in obj:
        nu = make_distribution(_schema_array(obj["nu"], '"nu"', 1, n), op.space)
    if "f" in obj:
        f_values = _freeze(_schema_array(obj["f"], '"f"', 1, n))
    return ChainData(op, mu, nu, f_values)


def _read_json(path):
    """The document of a JSON file; malformed JSON is a SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc


def load_chain(path) -> ChainData:
    """Read and validate a chain JSON file."""
    return parse_chain(_read_json(path))
