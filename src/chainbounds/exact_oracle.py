"""Exact (non-Monte-Carlo) ground truth for moment-generating functions.

The MGF oracles take a chain P with a horizon of n steps or a jump process
Q with a horizon t, and evaluate the same tilted kernel for both. Chain MGFs
are iterated transfer-operator products
``init^T diag(e^(theta f)) (P diag(e^(theta f)))^(n-1) 1`` with running
log-rescaling, so long horizons stay inside double range. Once the rescaled
vector repeats bit for bit, the remaining transfer products are replayed from
one period; their log-scale increments are still added one at a time, in
order, so the result is bit-identical to the full iteration and the cost
stays linear in n, at a much smaller constant. Jump-process MGFs use the
Feynman-Kac matrix exponential ``exp(t (Q + theta diag(f)))``.
Small-instance tail probabilities are computed exactly by dynamic
programming on a common value grid, or by full path enumeration below a
path-count cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chain_core import (
    Distribution,
    GeneratorMatrix,
    TransitionMatrix,
    observable_values,
)
from .errors import DimensionMismatch, InvalidQuery, Overflow, TooLarge

PATH_ENUMERATION_CAP = 10**7
DP_CELL_CAP = 4_000_001
_GRID_DENOMINATOR_CAP = 10**6
# Most log increments the discrete oracle holds at once (0.5 MB of float64):
# the longest period its replay detects, and the terms per accumulate call.
_REPLAY_TERMS = 1 << 16


@dataclass(frozen=True, eq=False)
class ConditionalMgf:
    """Conditional MGF vector, one entry per starting state."""

    values: np.ndarray
    horizon: float
    theta: float


def _match(op, f) -> np.ndarray:
    fv = observable_values(f)
    if fv.size != op.n_states:
        raise DimensionMismatch("observable does not match the chain")
    return fv


def _checked(op, f, theta: float, horizon, init: Distribution | None = None) -> np.ndarray:
    # the values of f, once f, init, theta and the horizon (n >= 1 steps of a
    # chain, finite time t >= 0 of a jump process) fit the operator
    fv = _match(op, f)
    if init is not None and init.n_states != op.n_states:
        raise DimensionMismatch("init distribution does not match the chain")
    if not math.isfinite(theta):
        raise InvalidQuery("theta must be finite")
    if isinstance(op, GeneratorMatrix):
        if not math.isfinite(horizon):
            raise InvalidQuery("horizon t must be finite")
        if horizon < 0:
            raise InvalidQuery("t must be >= 0")
    elif horizon < 1:
        raise InvalidQuery("horizon n must be >= 1")
    return fv


def _feynman_kac(Q: GeneratorMatrix, fv: np.ndarray, theta: float, t: float) -> np.ndarray:
    return matrix_exponential(Q.entries + theta * np.diag(fv), t)


def _log_conditional_mgf(P: TransitionMatrix, fv: np.ndarray, theta: float, n: int):
    # returns (u, log_scale) with conditional mgf = u * exp(log_scale). The
    # rescaled step u -> P (w u) / max is a fixed map on doubles, so once u
    # repeats bit for bit, every later step replays one period. Brent's cycle
    # detection (BIT 1980) keeps one saved bit pattern of u and the log
    # increments since then; the save moves after 1, 2, 4, ... steps, and
    # every _REPLAY_TERMS steps from then on, so memory stays bounded in n.
    tf = theta * fv
    shift = float(tf.max())
    w = np.exp(tf - shift)
    u = np.ones(P.n_states)
    log_scale = shift
    saved, increments, power = u.tobytes(), [], 1
    for step in range(1, n):
        u = P.entries @ (w * u)
        m = float(u.max())
        u /= m
        increment = shift + math.log(m)
        log_scale += increment
        increments.append(increment)
        if u.tobytes() == saved:
            rest = n - 1 - step
            log_scale = _replay_sum(log_scale, np.array(increments), rest)
            for _ in range(rest % len(increments)):
                u = P.entries @ (w * u)
                u /= float(u.max())
            break
        if len(increments) == power:
            saved, increments = u.tobytes(), []
            power = min(2 * power, _REPLAY_TERMS)
    u = w * u
    m = float(u.max())
    return u / m, log_scale + math.log(m)


def _replay_sum(total: float, period: np.ndarray, count: int) -> float:
    # total plus the first `count` terms of the periodic sequence, added one
    # at a time in order: accumulate is sequential, so it equals a scalar +=
    # loop bit for bit. Each chunk starts at a period boundary.
    tile = np.tile(period, max(1, -(-min(count, _REPLAY_TERMS) // period.size)))
    buf = np.empty(tile.size + 1)
    for start in range(0, count, tile.size):
        k = min(tile.size, count - start)
        buf[0] = total
        buf[1:k + 1] = tile[:k]
        total = float(np.add.accumulate(buf[:k + 1])[-1])
    return total


def conditional_mgf(op, f, theta: float, horizon) -> ConditionalMgf:
    """E[exp(theta S) | start at z] for every state z; see :func:`exact_mgf` for S.

    ``diag(e^(theta f)) (P diag(e^(theta f)))^(n-1) 1`` for a chain, and
    ``exp(t (Q + theta diag f)) 1`` for a jump process. The mu-average of
    the values equals :func:`exact_mgf` with init = mu.
    """
    fv = _checked(op, f, theta, horizon)
    if isinstance(op, GeneratorMatrix):
        values = _feynman_kac(op, fv, theta, horizon) @ np.ones(op.n_states)
    else:
        u, log_scale = _log_conditional_mgf(op, fv, theta, horizon)
        if log_scale < 709:
            values = u * math.exp(log_scale)
        else:  # entrywise in the log domain: 0 where u is 0, inf only on overflow
            with np.errstate(divide="ignore", over="ignore"):
                values = np.exp(np.log(u) + log_scale)
    return ConditionalMgf(values, float(horizon), theta)


def exact_mgf(op, init: Distribution, f, theta: float, horizon) -> float:
    """Exact MGF ``E[exp(theta S)]`` of the additive functional S from ``init``.

    For a chain P, S = sum_{k=1}^n f(Z_k) with Z_1 drawn from init; exact
    up to floating error (relative ~1e-12 for n <= 1e4 thanks to the
    running rescale), inf past double range, and Overflow where
    :func:`exact_log_mgf` raises it. For a jump process Q,
    S = int_0^t f(Z_s) ds with Z_0 drawn from init, and the MGF is
    ``init^T exp(t (Q + theta diag(f))) 1`` (Feynman-Kac); 1 at t = 0.
    """
    if isinstance(op, GeneratorMatrix):
        fv = _checked(op, f, theta, horizon, init)
        if horizon == 0.0:
            return 1.0
        return float(init.weights @ _feynman_kac(op, fv, theta, horizon) @ np.ones(op.n_states))
    log_mgf = exact_log_mgf(op, init, f, theta, horizon)
    try:
        return math.exp(log_mgf)
    except OverflowError:
        return math.inf


def exact_log_mgf(op, init: Distribution, f, theta: float, horizon) -> float:
    """log of :func:`exact_mgf`; finite for chain horizons where that overflows.

    Raises Overflow when the computed MGF (for a chain, its rescaled value)
    underflows to 0: the true MGF is positive, and its log is lost.
    """
    if isinstance(op, GeneratorMatrix):
        mass, log_scale = exact_mgf(op, init, f, theta, horizon), 0.0
    else:
        fv = _checked(op, f, theta, horizon, init)
        u, log_scale = _log_conditional_mgf(op, fv, theta, horizon)
        mass = float(init.weights @ u)
    if not mass > 0:
        raise Overflow("the computed MGF underflowed to 0 in double precision")
    return math.log(mass) + log_scale


def _expand_paths(P: TransitionMatrix, start, n_steps: int, fv: np.ndarray):
    """Expand all paths with ``n_steps`` transitions, pruning zero mass.

    ``start`` is the initial weight vector. Returns ``(probs, totals,
    last)`` where ``totals`` sums fv over all ``n_steps + 1`` visited states
    and ``last`` is the final state of each path.
    """
    m = P.n_states
    probs = np.asarray(start, dtype=float).copy()
    last = np.arange(m, dtype=np.int64)
    totals = fv[last].astype(float)
    for _ in range(n_steps):
        probs = (probs[:, None] * P.entries[last, :]).ravel()
        totals = (totals[:, None] + fv[None, :]).ravel()
        last = np.tile(np.arange(m, dtype=np.int64), totals.size // m)
        keep = probs > 0
        if not keep.all():
            probs, totals, last = probs[keep], totals[keep], last[keep]
    return probs, totals, last


def matrix_exponential(A, t: float = 1.0) -> np.ndarray:
    """exp(t A) by scaling-and-squaring with Pade approximants (order <= 13).

    Thin wrapper over the scipy implementation of the standard algorithm;
    exp(0) is the exact identity. Raises Overflow when ||t A|| leaves the
    representable range.
    """
    a = np.asarray(A, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix exponential requires a square matrix")
    if not np.isfinite(a).all() or not math.isfinite(t):
        raise DimensionMismatch("matrix exponential requires finite entries")
    if t == 0.0 or not a.any():
        return np.eye(a.shape[0])
    import scipy.linalg

    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(t * a)
    if not np.isfinite(out).all():
        raise Overflow("exp(tA) overflowed double precision")
    return out


def _common_grid(fv: np.ndarray):
    # smallest step g with every value an integer multiple of g (up to
    # 1e-12 relative), or None when no small-denominator grid exists
    fractions = []
    for v in fv:
        frac = Fraction(v).limit_denominator(_GRID_DENOMINATOR_CAP)
        fractions.append(frac)
    denom = 1
    for frac in fractions:
        denom = denom * frac.denominator // math.gcd(denom, frac.denominator)
        if denom > _GRID_DENOMINATOR_CAP:
            return None
    multiples = []
    for v, frac in zip(fv, fractions):
        k = frac.numerator * (denom // frac.denominator)
        if abs(v - k / denom) > 1e-12 * max(1.0, abs(v)):
            return None
        multiples.append(k)
    return np.asarray(multiples, dtype=np.int64), denom


def _tail_by_dp(
    P: TransitionMatrix, init: Distribution, multiples: np.ndarray, denom: int,
    n: int, delta: float,
) -> float:
    m = P.n_states
    kmin, kmax = int(multiples.min()), int(multiples.max())
    # reachable sums after s steps lie in [s kmin, s kmax]; cover all s <= n
    lo = min(kmin, n * kmin)
    hi = max(kmax, n * kmax)
    width = hi - lo + 1
    if width * m > DP_CELL_CAP:
        raise TooLarge(f"sum grid needs {width * m} cells, above {DP_CELL_CAP}")
    offset = -lo
    dp = np.zeros((m, width))
    for i in range(m):
        dp[i, multiples[i] + offset] = init.weights[i]
    for _ in range(n - 1):
        pushed = P.entries.T @ dp
        nxt = np.zeros_like(dp)
        for j in range(m):
            k = int(multiples[j])
            if k >= 0:
                nxt[j, k:] += pushed[j, : width - k] if k else pushed[j]
            else:
                nxt[j, :k] += pushed[j, -k:]
        dp = nxt
    sums = (np.arange(width) - offset) / denom
    mask = np.abs(sums) >= n * delta - 1e-12 * max(1.0, n * delta)
    return float(dp[:, mask].sum())


def exact_tail_discrete(
    P: TransitionMatrix, init: Distribution, f, n: int, delta: float
) -> float:
    """Exact deviation probability P(|1/n sum_{k=1}^n f(Z_k)| >= delta).

    Uses dynamic programming over (state, accumulated sum) when all values
    of f sit on a common rational grid (detected up to 1e-12); otherwise
    enumerates every path, which requires |states|^n <= 1e7.

    Raises
    ------
    TooLarge
        When neither route fits its cap.
    InvalidQuery
        When delta is NaN.
    DimensionMismatch
        When P is not a transition matrix.
    """
    if not isinstance(P, TransitionMatrix):
        raise DimensionMismatch(f"exact tails need a transition matrix, not {type(P).__name__}")
    fv = _checked(P, f, 0.0, n, init)
    if math.isnan(delta):
        raise InvalidQuery("delta must not be NaN")
    if delta <= 0:
        return 1.0
    if not fv.any():
        return 0.0
    grid = _common_grid(fv)
    if grid is not None:
        multiples, denom = grid
        try:
            return _tail_by_dp(P, init, multiples, denom, n, delta)
        except TooLarge:
            pass
    m = P.n_states
    # m >= 2 passes the cap once n passes its bit length, without building m^n
    if m > 1 and n > PATH_ENUMERATION_CAP.bit_length() or m**n > PATH_ENUMERATION_CAP:
        raise TooLarge(f"{m}^{n} paths exceed the cap {PATH_ENUMERATION_CAP}")
    probs, totals, _ = _expand_paths(P, init.weights, n - 1, fv)
    mask = np.abs(totals) >= n * delta - 1e-12 * max(1.0, n * delta)
    return float(probs[mask].sum())
