"""Exact (non-Monte-Carlo) ground truth for moment-generating functions.

Finite-chain MGFs are iterated transfer-operator products
``init^T diag(e^(theta f)) (P diag(e^(theta f)))^(n-1) 1`` with running
log-rescaling, so long horizons stay inside double range. Once the rescaled
vector repeats bit for bit, the remaining steps are replayed from one period,
so the cost grows with the steps until that repeat, not with n, and the
result is bit-identical to the full iteration. Jump-process MGFs use the
Feynman-Kac matrix exponential ``exp(t (Q + theta diag(f)))``.
Small-instance tail probabilities are computed exactly by dynamic
programming on a common value grid, or by full path enumeration below a
path-count cap. The module also numerically verifies the two structural
identities behind the moment bounds (the action of P - I on conditional
MGFs, and the time derivative of the continuous MGF).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .chain_core import (
    Distribution,
    GeneratorMatrix,
    TransitionMatrix,
    observable_values,
    stationary_distribution,
)
from .errors import DimensionMismatch, Overflow, TooLarge

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


def _log_conditional_mgf(P: TransitionMatrix, fv: np.ndarray, theta: float, n: int):
    # returns (u, log_scale) with conditional mgf = u * exp(log_scale). The
    # rescaled step u -> P (w u) / max is a fixed map on doubles, so once u
    # repeats bit for bit, every later step replays one period. Brent's cycle
    # detection (BIT 1980) keeps one saved bit pattern of u and the log
    # increments since then; the save moves after 1, 2, 4, ... steps, and
    # every _REPLAY_TERMS steps from then on, so memory stays bounded in n.
    if n < 1:
        raise DimensionMismatch("horizon n must be >= 1")
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


def conditional_mgf_discrete(P: TransitionMatrix, f, theta: float, n: int) -> ConditionalMgf:
    """E[exp(theta sum_{k=1}^n f(Z_k)) | Z_1 = z] for every state z.

    Computed as ``diag(e^(theta f)) (P diag(e^(theta f)))^(n-1) 1``. The
    mu-average of the values equals :func:`exact_mgf_discrete` with
    init = mu.
    """
    fv = _match(P, f)
    u, log_scale = _log_conditional_mgf(P, fv, theta, n)
    if log_scale < 709:
        values = u * math.exp(log_scale)
    else:  # entrywise in the log domain: 0 where u is 0, inf only on overflow
        with np.errstate(divide="ignore", over="ignore"):
            values = np.exp(np.log(u) + log_scale)
    return ConditionalMgf(values, float(n), theta)


def exact_mgf_discrete(
    P: TransitionMatrix, init: Distribution, f, theta: float, n: int
) -> float:
    """Exact MGF of the n-step sum started from ``init``.

    ``E[exp(theta sum_{k=1}^n f(Z_k))]`` with Z_1 drawn from init. Exact up
    to floating error (relative ~1e-12 for n <= 1e4 thanks to the running
    rescale). The cost grows with the number of steps until the rescaled
    vector first repeats bit for bit, not with n: later steps replay one
    period, and the result is bit-identical to iterating all n - 1 steps.
    Returns inf if the value exceeds double range.
    """
    fv = _match(P, f)
    if init.n_states != P.n_states:
        raise DimensionMismatch("init distribution does not match the chain")
    u, log_scale = _log_conditional_mgf(P, fv, theta, n)
    r = float(init.weights @ u)
    try:
        return math.exp(math.log(r) + log_scale)
    except OverflowError:
        return math.inf


def exact_log_mgf_discrete(
    P: TransitionMatrix, init: Distribution, f, theta: float, n: int
) -> float:
    """log of :func:`exact_mgf_discrete`, safe for horizons where it overflows."""
    fv = _match(P, f)
    u, log_scale = _log_conditional_mgf(P, fv, theta, n)
    return math.log(float(init.weights @ u)) + log_scale


def _expand_paths(P: TransitionMatrix, start, n_steps: int, fv: np.ndarray):
    """Expand all paths with ``n_steps`` transitions, pruning zero mass.

    ``start`` is a state index or an initial weight vector. Returns
    ``(probs, totals, last)`` where ``totals`` sums fv over all
    ``n_steps + 1`` visited states and ``last`` is the final state of each
    path.
    """
    m = P.n_states
    if isinstance(start, (int, np.integer)):
        probs = np.ones(1)
        last = np.full(1, int(start), dtype=np.int64)
    else:
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


class LaplacianCheck(NamedTuple):
    lhs: float
    rhs: float
    gap: float


def verify_laplacian_identity(
    P: TransitionMatrix, f, theta: float, n: int, z: int
) -> LaplacianCheck:
    """Check the action of P - I on the conditional MGF at state z.

    The left side is ``(P G_n - G_n)(z)`` from transfer products. The right
    side enumerates all length-(n+1) paths from z and evaluates, per path,
    ``prob * theta (f(z_{n+1}) - f(z_1)) * (e^B - e^A)/(B - A)`` with
    A, B the theta-scaled sums over the first and last n states (the
    interpolation factor degenerates to e^A when B = A). The two agree to
    floating error; ``gap`` must stay below 1e-10 * max(1, |lhs|) on sane
    inputs.

    Raises
    ------
    TooLarge
        When |states|^(n+1) exceeds the enumeration cap.
    """
    fv = _match(P, f)
    m = P.n_states
    if not 0 <= z < m:
        raise DimensionMismatch(f"state index {z} out of range")
    if m ** (n + 1) > PATH_ENUMERATION_CAP:
        raise TooLarge(f"{m}^{n + 1} paths exceed the cap {PATH_ENUMERATION_CAP}")
    G = conditional_mgf_discrete(P, fv, theta, n).values
    lhs = float((P.entries @ G - G)[z])

    # totals cover z_{1:n+1}; the head sum drops the last state, the tail
    # sum drops the first (which is the fixed start z)
    probs, totals, last = _expand_paths(P, z, n, fv)
    A = theta * (totals - fv[last])
    B = theta * (totals - fv[z])
    d = B - A
    base = np.exp(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        interp = np.where(np.abs(d) > 1e-300, base * np.expm1(d) / d, base)
    rhs = float(np.sum(probs * theta * (fv[last] - fv[z]) * interp))
    return LaplacianCheck(lhs, rhs, abs(lhs - rhs))


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


def exact_mgf_continuous(
    Q: GeneratorMatrix, init: Distribution, f, theta: float, t: float
) -> float:
    """Exact MGF of the time integral, by the Feynman-Kac representation.

    ``E[exp(theta int_0^t f(Z_s) ds)] = init^T exp(t (Q + theta diag(f))) 1``
    with Z_0 drawn from init. Returns 1 at t = 0.
    """
    fv = _match(Q, f)
    if init.n_states != Q.n_states:
        raise DimensionMismatch("init distribution does not match the chain")
    if t < 0:
        raise DimensionMismatch("t must be >= 0")
    if t == 0.0:
        return 1.0
    tilted = Q.entries + theta * np.diag(fv)
    return float(init.weights @ matrix_exponential(tilted, t) @ np.ones(Q.n_states))


def conditional_mgf_continuous(Q: GeneratorMatrix, f, theta: float, t: float) -> ConditionalMgf:
    """Feynman-Kac conditional MGF vector ``exp(t (Q + theta diag f)) 1``."""
    fv = _match(Q, f)
    tilted = Q.entries + theta * np.diag(fv)
    values = matrix_exponential(tilted, t) @ np.ones(Q.n_states)
    return ConditionalMgf(values, t, theta)


class APrimeCheck(NamedTuple):
    lhs: float
    rhs: float
    gap: float


def verify_a_prime_identity(
    Q: GeneratorMatrix,
    f,
    theta: float,
    t: float,
    mu: Distribution | None = None,
) -> APrimeCheck:
    """Check d/dt of the stationary MGF against its closed form.

    With a(t) the MGF started from mu, the derivative equals
    ``sum_z mu(z) theta f(z) G_t(z)``. The left side is a central finite
    difference with step ~6e-6 max(1, t); the gap should stay below
    max(1e-6, 1e-4 |lhs|).
    """
    if t <= 0:
        raise DimensionMismatch("t must be > 0")
    fv = _match(Q, f)
    if mu is None:
        mu = stationary_distribution(Q)
    tilted = Q.entries + theta * np.diag(fv)
    ones = np.ones(Q.n_states)
    expm_t = matrix_exponential(tilted, t)
    h = 6e-6 * max(1.0, abs(t))
    step_fwd = matrix_exponential(tilted, h)
    step_bwd = matrix_exponential(tilted, -h)
    a_fwd = float(mu.weights @ (expm_t @ step_fwd) @ ones)
    a_bwd = float(mu.weights @ (expm_t @ step_bwd) @ ones)
    lhs = (a_fwd - a_bwd) / (2.0 * h)
    rhs = float(np.sum(mu.weights * theta * fv * (expm_t @ ones)))
    return APrimeCheck(lhs, rhs, abs(lhs - rhs))


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
    """
    fv = _match(P, f)
    if init.n_states != P.n_states:
        raise DimensionMismatch("init distribution does not match the chain")
    if n < 1:
        raise DimensionMismatch("horizon n must be >= 1")
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
    if m**n > PATH_ENUMERATION_CAP:
        raise TooLarge(f"{m}^{n} paths exceed the cap {PATH_ENUMERATION_CAP}")
    probs, totals, _ = _expand_paths(P, init.weights, n - 1, fv)
    mask = np.abs(totals) >= n * delta - 1e-12 * max(1.0, n * delta)
    return float(probs[mask].sum())
