"""Exact (non-Monte-Carlo) ground truth for moment-generating functions.

The MGF oracles take a chain P with a horizon of n steps or a jump process
Q with a horizon t, and read both from one kernel that returns the
conditional MGF as a vector with maximum 1 and a log scale. Chain MGFs
are iterated transfer-operator products
``init^T diag(e^(theta f)) (P diag(e^(theta f)))^(n-1) 1`` with running
log-rescaling, so long horizons stay inside double range. Once the rescaled
vector repeats bit for bit, the remaining transfer products are replayed from
one period: the vector stays bit-identical to the full iteration, and the log
scale adds whole periods as one product of the period's ``math.fsum``, so the
cost after the repeat does not grow with n. The log scale is one ``fsum`` of
per-window ``fsum`` terms: within 2 eps sum |increments| of the correctly
rounded sum of the full iteration's own log increments.
Jump-process MGFs use the Feynman-Kac matrix exponential
``exp(t (Q + theta diag(f)))``, shifted by the Perron root lam of
``Q + theta diag(f)`` (its largest real eigenvalue, as the matrix is Metzler):
``exp(t (A - lam I)) 1`` stays in range and ``t lam`` joins the log scale.
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
    _check_horizon,
    observable_values,
)
from .errors import DimensionMismatch, InvalidQuery, Overflow, TooLarge

PATH_ENUMERATION_CAP = 10**7
DP_CELL_CAP = 4_000_001
# Weighted cell-steps of the tail DP, (n - 1) x width x m x (m + _DP_SHIFT_WORK):
# each step's dense push makes m^2 x width multiply-adds, and its shifts and
# fresh grid cost about _DP_SHIFT_WORK of them per cell. At the cap, on dense
# chains with f on {0, 1}, it took 0.15-0.25 s from 1 to 1,000 states and
# 0.36 s at 2,000, where the push's operand is 25 columns wide (one BLAS
# thread). A cap of 10^8 plain cell-steps, (n - 1) x width x m, let 300
# states run 1.6 s and 2,000 run 14 s.
DP_WORK_CAP = 25 * 10**8
_DP_SHIFT_WORK = 24
_GRID_DENOMINATOR_CAP = 10**6
# Most log increments the discrete oracle holds at once (0.5 MB of float64):
# the longest period its replay detects, and the steps per closed window.
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
    # the values of f, once f, init, theta and the horizon fit the operator
    fv = _match(op, f)
    if init is not None and init.n_states != op.n_states:
        raise DimensionMismatch("init distribution does not match the chain")
    if not math.isfinite(theta):
        raise InvalidQuery("theta must be finite")
    _check_horizon("continuous" if isinstance(op, GeneratorMatrix) else "discrete", horizon)
    return fv


def _log_conditional_mgf(op, fv: np.ndarray, theta: float, horizon):
    # returns (u, log_scale) with max(u) = 1 and conditional mgf = u * exp(log_scale)
    tf = theta * fv
    if isinstance(op, GeneratorMatrix):
        # exp(t A) 1 = e^(t lam) exp(t (A - lam I)) 1 with lam the Perron root
        # of the Metzler matrix A = Q + diag(theta f), so the exponential stays
        # in range wherever the log MGF does
        import scipy.linalg

        a = op.entries + np.diag(tf)
        lam = float(np.linalg.eigvals(a).real.max())
        with np.errstate(over="ignore", invalid="ignore"):
            v = scipy.linalg.expm(horizon * (a - lam * np.eye(op.n_states))).sum(axis=1)
        log_scale = horizon * lam
    else:
        # the rescaled step u -> P (w u) / max is a fixed map on doubles, so
        # once u repeats bit for bit, every later step replays one period.
        # Brent's cycle detection (BIT 1980) keeps one saved bit pattern of u
        # and the log increments since then; the save moves after 1, 2, 4, ...
        # steps, and every _REPLAY_TERMS steps from then on. Each closed
        # window leaves one fsum term, the replay adds all its whole periods
        # as one term, and one fsum adds the terms.
        shift = float(tf.max())
        w = np.exp(tf - shift)
        u = np.ones(op.n_states)
        terms, saved, increments, power = [shift], u.tobytes(), [], 1
        for step in range(1, horizon):
            u = op.entries @ (w * u)
            m = float(u.max())
            u /= m
            increments.append(shift + math.log(m))
            if u.tobytes() == saved:
                whole, part = divmod(horizon - 1 - step, len(increments))
                terms += [(whole + 1) * math.fsum(increments), math.fsum(increments[:part])]
                increments = []
                for _ in range(part):
                    u = op.entries @ (w * u)
                    u /= float(u.max())
                break
            if len(increments) == power:
                terms.append(math.fsum(increments))
                saved, increments = u.tobytes(), []
                power = min(2 * power, _REPLAY_TERMS)
        v = w * u
        log_scale = math.fsum(terms + increments)
    m = float(v.max())
    if not 0 < m < math.inf or not math.isfinite(log_scale):
        raise Overflow("the rescaled MGF left double range")
    return v / m, log_scale + math.log(m)


def conditional_mgf(op, f, theta: float, horizon) -> ConditionalMgf:
    """E[exp(theta S) | start at z] for every state z; see :func:`exact_mgf` for S.

    ``diag(e^(theta f)) (P diag(e^(theta f)))^(n-1) 1`` for a chain, and
    ``exp(t (Q + theta diag f)) 1`` for a jump process. The mu-average of
    the values equals :func:`exact_mgf` with init = mu.
    """
    fv = _checked(op, f, theta, horizon)
    u, log_scale = _log_conditional_mgf(op, fv, theta, horizon)
    if log_scale < 709:
        values = u * math.exp(log_scale)
    else:  # entrywise in the log domain: 0 where u is 0, inf only on overflow
        with np.errstate(divide="ignore", over="ignore"):
            values = np.exp(np.log(u) + log_scale)
    return ConditionalMgf(values, float(horizon), theta)


def exact_mgf(op, init: Distribution, f, theta: float, horizon) -> float:
    """Exact MGF ``E[exp(theta S)]`` of the additive functional S from ``init``.

    For a chain P, S = sum_{k=1}^n f(Z_k) with Z_1 drawn from init; for a
    jump process Q, S = int_0^t f(Z_s) ds with Z_0 drawn from init, and the
    MGF is ``init^T exp(t (Q + theta diag(f))) 1`` (Feynman-Kac). It is
    ``exp`` of :func:`exact_log_mgf` on both time scales: exactly 1 at
    t = 0, inf past double range, and Overflow where that raises it.
    Chain values carry the rounding of every transfer step, so their error
    grows with n: 3.5e-13 relative to 40-digit mpmath on
    P = [[0.9, 0.1], [0.2, 0.8]], centred f = (1, -1), theta = 0.1,
    n = 10^4. Jump values were within 3.4e-14 of 50-digit mpmath on 100
    random generators of 2-7 states (theta in [-2, 2], t <= 7.5).
    """
    try:
        return math.exp(exact_log_mgf(op, init, f, theta, horizon))
    except OverflowError:
        return math.inf


def exact_log_mgf(op, init: Distribution, f, theta: float, horizon) -> float:
    """log of :func:`exact_mgf`; finite for horizons where that overflows.

    Raises Overflow when the rescaled MGF underflows to 0 (the true MGF is
    positive, and its log is lost) or the horizon leaves double range.
    """
    fv = _checked(op, f, theta, horizon, init)
    if horizon == 0:  # the empty integral, whatever init's weights sum to
        return 0.0
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
    work = (n - 1) * width * m * (m + _DP_SHIFT_WORK)
    if work > DP_WORK_CAP:
        raise TooLarge(f"sum DP needs {work} weighted cell-steps, above {DP_WORK_CAP}")
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
    of f sit on a common rational grid (detected up to 1e-12) and the DP
    fits ``DP_CELL_CAP`` cells and ``DP_WORK_CAP`` weighted cell-steps; otherwise
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
