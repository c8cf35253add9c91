"""Validated Markov chain primitives.

Transition matrices, generator (rate) matrices, probability distributions
and bounded observables over a finite state space, together with
stationary-distribution, invariance and density-norm computations, and the
one check of a horizon, of a moment order p and of the state counts of a
path question that every layer shares, and the one fork helper
(``_forked``, sized by ``_workers``) of the samplers and ``gap_report``.
States are indexed 0, 1, ...; the labels of a chain file are checked and
then dropped. All types are immutable after validation; every operation is
a pure function of its inputs.
"""

from __future__ import annotations

import json
import numbers
import operator
import os
import sys
from dataclasses import dataclass
from json.decoder import JSONArray
from json.scanner import py_make_scanner
from typing import NoReturn, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    InvalidP,
    InvalidQuery,
    NegativeEntry,
    NegativeOffDiagonal,
    NotAbsolutelyContinuous,
    NotInvariant,
    NotIrreducible,
    RowSumViolation,
    SchemaError,
    SolverFailure,
    ZeroMass,
)

ROW_SUM_TOLERANCE = 1e-9
INVARIANCE_TOLERANCE = 1e-9
STATIONARY_RESIDUAL_TOLERANCE = 1e-12
_FINITE = sys.float_info.max  # the high end of a range that takes every finite value


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _as_square(raw, what: str = "matrix") -> np.ndarray:
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {a.shape}")
    if not a.size:
        raise DimensionMismatch(f"{what} must be non-empty")
    if not np.isfinite(a).all():
        raise DimensionMismatch(f"{what} contains non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix over a finite state space.

    Validated and row-renormalized; construct via
    :func:`validate_transition_matrix`.
    """

    entries: np.ndarray

    @property
    def n_states(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Rate matrix of a Markov jump process (zero row sums, units 1/time).

    Validated via :func:`validate_generator`; the diagonal is set to minus
    the off-diagonal row sum.
    """

    entries: np.ndarray

    @property
    def n_states(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over the states."""

    weights: np.ndarray

    @property
    def n_states(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class Observable:
    """Real function on states, centred under a reference distribution mu.

    ``values`` are f - E_mu[f], so their mean under mu is zero up to
    rounding; ``M`` is their sup-norm and ``sigma2`` their exact variance
    under mu. Build one with :func:`make_observable`.
    """

    values: np.ndarray
    M: float
    sigma2: float


ChainOperator = Union[TransitionMatrix, GeneratorMatrix]


def validate_transition_matrix(raw) -> TransitionMatrix:
    """Validate and row-renormalize a candidate transition matrix.

    Parameters
    ----------
    raw : array_like
        Square matrix of nonnegative reals, rows summing to 1 within
        ``ROW_SUM_TOLERANCE``.

    Returns
    -------
    TransitionMatrix
        Rows renormalized to sum to 1 in working precision.

    Raises
    ------
    NegativeEntry, RowSumViolation, DimensionMismatch
    """
    a = _as_square(raw, "transition matrix")
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
    return TransitionMatrix(_freeze(a))


def validate_generator(raw) -> GeneratorMatrix:
    """Validate a candidate rate matrix.

    Off-diagonal entries must be nonnegative and each row must sum to zero
    within tolerance; the diagonal is then reset to minus the off-diagonal
    row sum so row sums are exactly zero in working precision.
    """
    a = _as_square(raw, "generator matrix").copy()
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
    return GeneratorMatrix(_freeze(a))


def make_distribution(weights, n_states: int | None = None) -> Distribution:
    """Validate a probability vector, of ``n_states`` weights when that is given."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or not w.size:
        raise DimensionMismatch("distribution weights must be a nonempty vector")
    if n_states is not None and w.size != n_states:
        raise DimensionMismatch(f"distribution has {w.size} weights for {n_states} states")
    if not np.isfinite(w).all():
        i = int(np.argmin(np.isfinite(w)))
        raise InvalidDistribution(f"non-finite weight {w[i]!r} at index {i}")
    if (w < 0).any():
        i = int(np.argmin(w))
        raise InvalidDistribution(f"negative weight {w[i]!r} at index {i}")
    total = float(w.sum())
    if abs(total - 1.0) > ROW_SUM_TOLERANCE:
        raise InvalidDistribution(f"weights sum to {total!r}, expected 1")
    return Distribution(_freeze(w / total))


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


def _balance_residual(op: ChainOperator, w: np.ndarray) -> tuple[float, float]:
    """max |w P - w| (resp. max |w Q|) and the rate scale max(1, max |entries|).

    The scale is exactly 1 for a validated transition matrix: a row of
    nonnegative entries divided by its floating-point sum has none above 1.
    """
    balance = w @ op.entries
    if isinstance(op, TransitionMatrix):
        balance -= w
    return float(np.abs(balance).max()), max(1.0, float(np.abs(op.entries).max()))


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
    residual, scale = _balance_residual(op, w)
    if residual > STATIONARY_RESIDUAL_TOLERANCE * scale:
        raise SolverFailure(
            f"stationary residual {residual!r} above tolerance at rate scale {scale!r}"
        )
    return make_distribution(w)


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
    residual, scale = _balance_residual(op, mu.weights)
    if residual > INVARIANCE_TOLERANCE * scale:
        raise NotInvariant(
            f"distribution is not invariant (residual {residual!r})"
        )


def _check_p(p: float) -> None:
    """Refuse a moment order p outside (1, inf], NaN and non-numbers included."""
    if not (isinstance(p, numbers.Real) and p > 1):
        raise InvalidP(
            f"p = {p!r} rejected: p must lie in (1, inf]; at p = 1 the "
            "Hoelder exponent q is infinite and the tail bound is vacuous"
        )


def _refuse(name: str, kind: str, value, number: bool, low, high, strict: bool) -> NoReturn:
    # the one message of a refused scalar: its name, its range, and a value that is no number
    left, right = "()" if strict else "[]"
    span = ", ".join(repr(end).replace(repr(_FINITE), "max float") for end in (low, high))
    given = "" if number else f", got {value!r}"
    raise InvalidQuery(f"{name} must be {kind} in {left}{span}{right}{given}")


def _check_real(name: str, value, low, high, strict: bool = False) -> None:
    """Refuse all but a real number in [low, high], or in (low, high) if ``strict``.

    A bool is no number here, and NaN lies in no interval. ``high = _FINITE``
    accepts every finite value. The value is checked, never converted.
    """
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and (low < value < high if strict else low <= value <= high)):
        _refuse(name, "a real number", value, number, low, high, strict)


def _check_int(name: str, value, low, high) -> None:
    """Refuse all but an integer (numpy's too, a bool not) in [low, high]."""
    try:
        operator.index(value)
        number = not isinstance(value, bool)
    except TypeError:
        number = False
    if not (number and low <= value <= high):
        _refuse(name, "an integer", value, number, low, high, False)


def _check_horizon(kind: str, horizon) -> None:
    """Refuse a horizon that is not n >= 1 steps of a chain or a time t >= 0.

    ``kind`` is "discrete", where n must be an integer no larger than the
    largest float, as bounds and oracles count steps in doubles; or
    "continuous", where t must be a finite real number.
    """
    if kind == "discrete":
        _check_int("horizon n", horizon, 1, _FINITE)
    else:
        _check_real("horizon t", horizon, 0, _FINITE)


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
    _check_p(p)
    if nu.n_states != mu.n_states:
        raise DimensionMismatch("distributions live on different state spaces")
    wn, wm = nu.weights, mu.weights
    bad = np.flatnonzero((wn > 0) & (wm == 0))
    if bad.size:
        raise NotAbsolutelyContinuous(int(bad[0]))
    mask = wm > 0
    ratio = wn[mask] / wm[mask]
    r_max = float(ratio.max())
    if np.isinf(p):
        return r_max
    # scaled by the largest ratio, no power can overflow and the largest is 1
    return r_max * float((wm[mask] @ (ratio / r_max) ** p) ** (1.0 / p))


def _read_f(f, n_states: int) -> np.ndarray:
    """The values of f, an Observable or a vector of finite reals with one per state.

    The one reader of f: :func:`make_observable`, the exact oracles and the
    samplers all take f through it. Strings, booleans and other non-numbers
    are refused, never converted.
    """
    try:
        v = np.asarray(f.values if isinstance(f, Observable) else f)
    except ValueError:  # a ragged nesting
        v = None
    if v is None or v.ndim != 1 or v.size != n_states:
        raise DimensionMismatch("observable values do not match the state space")
    if v.dtype.kind not in "iuf" or not np.isfinite(v).all():
        raise DimensionMismatch("observable values must be finite real numbers")
    return v.astype(float, copy=False)


def make_observable(values, mu: Distribution) -> Observable:
    """Build the centred observable f - E_mu[f] with exact moments under ``mu``.

    A constant f becomes exact zeros rather than the rounding residue of its
    mean. ``M`` is the sup-norm of the stored values and ``sigma2`` their
    exact variance under mu.
    """
    v = _read_f(values, mu.n_states)
    w = mu.weights
    v = v - float(w @ v) if v.min() < v.max() else np.zeros_like(v)
    mean = float(w @ v)
    sigma2 = max(float(w @ v**2) - mean**2, 0.0)
    return Observable(values=_freeze(v), M=float(np.abs(v).max()), sigma2=sigma2)


def _check_states(op: ChainOperator, f, init: Distribution | None = None) -> np.ndarray:
    """The values of f, once f and the start law ``init`` have one entry per state of op.

    The one state-count check of a path question, shared by the exact
    oracles and the samplers.
    """
    if not isinstance(op, (TransitionMatrix, GeneratorMatrix)):
        raise DimensionMismatch(f"path questions need a chain operator, not {type(op).__name__}")
    fv = _read_f(f, op.n_states)
    if init is not None and init.n_states != op.n_states:
        raise DimensionMismatch("init distribution does not match the chain")
    return fv


# ---------------------------------------------------------------------------
# Work split across forked processes, shared by the samplers and gap_report
# ---------------------------------------------------------------------------

def _workers(pieces: int) -> int:
    """Processes that may share ``pieces`` independent pieces of work.

    One, unless the work has two pieces or more, ``os.sched_getaffinity``
    exists and the process runs one operating-system thread: a fork beside a
    live BLAS or Python thread could copy a lock that thread holds. Then one
    per usable CPU, and at most one per piece. Every caller of
    :func:`_forked` sizes its work by this rule.
    """
    if pieces < 2 or not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) != 1:
            return 1
    except OSError:
        return 1
    return min(len(os.sched_getaffinity(0)), pieces)


def _forked(here, away):
    """``here()``, run in this process while forked children run ``away``.

    ``away`` holds pairs ``(fill, out)``: ``fill()`` writes float64 results
    into ``out``, a contiguous view of an array the caller owns. Each pair
    runs in a forked child, which writes ``out``'s bytes to a pipe and leaves
    by ``os._exit``; once ``here()`` has returned, the bytes are read back
    into ``out``. A pair whose bytes come back short (its child failed, or
    no process could be forked) has ``fill()`` run again here, so an error
    surfaces as the serial run raises it. Every child is reaped, and killed
    first if the caller fails before its bytes are read. Returns what
    ``here()`` returns.
    """
    children = []  # (fill, out, pid or None, read end of the child's pipe)
    try:
        for fill, out in away:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the piece is run here
                pid = None
            if pid == 0:
                try:
                    os.close(read)
                    fill()
                    with open(write, "wb") as pipe:
                        pipe.write(out)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((fill, out, pid, open(read, "rb")))
        result = here()
        for fill, out, _, pipe in children:
            with pipe:
                got = pipe.readinto(out)
            if got != out.nbytes:
                fill()
    finally:
        for _, _, pid, pipe in children:
            if pid is not None and not pipe.closed:  # failed before its bytes were read
                import signal

                os.kill(pid, signal.SIGKILL)
            pipe.close()
            if pid is not None:
                os.waitpid(pid, 0)
    return result


# ---------------------------------------------------------------------------
# Chain JSON schema
#
# { "labels": ["a", "b", ...], "P": [[...], ...] }   discrete chain, or
# { "labels": [...], "Q": [[...], ...] }             jump process,
# plus optional "mu", "f", "nu" vectors. Unknown keys are rejected. The
# labels are distinct strings, one per state; they are checked, then dropped.
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
    def kind(self) -> str:
        return "discrete" if isinstance(self.operator, TransitionMatrix) else "continuous"


def _schema_array(obj, name: str, ndim: int, n: int | None = None) -> np.ndarray:
    """A JSON array of numbers, nested ``ndim`` deep with every side n long, as floats.

    ``n=None`` takes any length, the same on every side. Arrays of floats
    arrive from :func:`_read_json` as float64 rows, which are stacked as
    they are and need no type scan; the other arrays are lists, whose kind
    numpy infers, so numeric strings (which ``dtype=float`` would parse)
    and integers beyond 64 bits (held as objects) are refused; so are JSON
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
    if a.dtype.kind not in "iuf" or any(
        isinstance(row, list) and bool in set(map(type, row)) for row in rows
    ):
        raise SchemaError(f"{name} must contain only numbers")
    return a.astype(float, copy=False)


def _schema_vector(obj, name: str, n: int | None = None) -> np.ndarray:
    v = _schema_array(obj, name, 1, n)
    if not np.isfinite(v).all():
        raise SchemaError(f"{name} must contain only finite numbers")
    return v


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
    if len(set(labels)) != len(labels):
        raise DimensionMismatch("state labels must be distinct")
    n = len(labels)  # the labels size every array, and no output names them
    has_p, has_q = "P" in obj, "Q" in obj
    if has_p == has_q:
        raise SchemaError('chain document requires exactly one of "P" or "Q"')
    if has_p:
        op = validate_transition_matrix(_schema_array(obj["P"], '"P"', 2, n))
    else:
        op = validate_generator(_schema_array(obj["Q"], '"Q"', 2, n))

    mu = nu = f_values = None
    if "mu" in obj:
        mu = make_distribution(_schema_vector(obj["mu"], '"mu"', n))
    if "nu" in obj:
        nu = make_distribution(_schema_vector(obj["nu"], '"nu"', n))
    if "f" in obj:
        f_values = _freeze(_schema_vector(obj["f"], '"f"', n))
    return ChainData(op, mu, nu, f_values)


class _NumberArrayDecoder(json.JSONDecoder):
    """``json``'s decoder, with arrays of numbers parsed by orjson.

    CPython's correctly rounded string-to-double conversion is most of the
    time ``json`` takes on a chain file; orjson's is as exact and several
    times faster. The object walk stays ``json``'s pure-Python scanner. The
    text of each array up to its first ``]`` goes to orjson, and orjson's
    list is kept when orjson parsed it and every element lies in
    (-2**63, 2**64), where both parsers give equal numbers of equal types.
    Beyond 64 bits orjson rounds integers to floats where ``json`` keeps
    ints; -2**63 - 1 rounds to -2.0**63, hence the open lower end. A kept
    list of floats only arrives as a float64 row, with no Python float per
    number; both bounds are doubles, so the row's range check is exact.
    Every other array (nested arrays, strings, objects, ``NaN`` and
    ``Infinity`` tokens, text orjson refuses) goes to ``json``'s own array
    parser, so the document and every error message are ``json.load``'s.
    """

    def __init__(self, **kw):
        import orjson

        super().__init__(**kw)
        loads, refused = orjson.loads, orjson.JSONDecodeError
        is_float = float.__instancecheck__

        def parse_array(s_and_end, scan_once):
            s, end = s_and_end
            stop = s.find("]", end) + 1  # 0 if there is none: orjson refuses ""
            try:
                values = loads(s[end - 1 : stop])
                if values and all(map(is_float, values)):
                    row = np.array(values)
                    if -(2.0**63) < row.min() and row.max() < 2.0**64:
                        return row, stop
                elif not values or -(2**63) < min(values) and max(values) < 2**64:
                    return values, stop
            except (refused, TypeError):  # TypeError: an element is not a number
                pass
            return JSONArray(s_and_end, scan_once)

        self.parse_array = parse_array
        self.scan_once = py_make_scanner(self)


def _read_json(path):
    """The document of a JSON file, as ``json.load`` decodes it.

    Each array of floats only is a 1-D float64 array in place of the list
    ``json.load`` gives. Malformed JSON, nesting deeper than the decoder's
    recursion reaches and a file that is not UTF-8 are SchemaErrors.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, cls=_NumberArrayDecoder)
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc


def load_chain(path) -> ChainData:
    """Read and validate a chain JSON file."""
    return parse_chain(_read_json(path))
