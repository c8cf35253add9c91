"""Monte Carlo trajectory sampling and empirical tail/MGF estimation.

Randomness is organized as counter-based per-replica substreams: replica r
of a run seeded with s draws from ``Philox(SeedSequence(s, spawn_key=(r,)))``,
so reports are bit-reproducible, independent of evaluation order, and
stable when the replica count changes. Chain paths draw each replica's
stream in horizon blocks of a fixed total size, so memory is O(replicas x
block) whatever the horizon; jump processes are sampled by their
holding-time representation (no uniformization), which makes time
integrals of observables exact given the path. Both pick the next state by
bisection over clamped row CDFs.

``path_averages`` simulates once; ``tail_report`` thresholds its output at
one delta, so a whole delta grid (as in the CLI's ``verify``) costs one
simulation. Tail estimates carry exact Clopper-Pearson confidence
intervals; MGF estimates use a normal approximation with an honest
heavy-tail warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import betaincinv, ndtri

from .bounds import BoundResult
from .chain_core import (
    Distribution,
    GeneratorMatrix,
    Observable,
    TransitionMatrix,
    is_irreducible,
)
from .errors import InvalidCounts, InvalidQuery, NotCentered, NotIrreducible

DEFAULT_ALPHA = 0.05


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """Counter-based generator for one replica, stable across run sizes."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(replica,)))
    )


@dataclass(frozen=True)
class SimConfig:
    """Replication plan for one empirical estimate."""

    replicas: int
    seed: int
    init: Distribution
    n: int | None = None
    t: float | None = None
    delta: float | None = None
    theta: float | None = None
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.replicas < 1:
            raise InvalidQuery("replicas must be >= 1")
        if (self.n is None) == (self.t is None):
            raise InvalidQuery("exactly one horizon (n or t) must be set")
        if self.n is not None and self.n < 1:
            raise InvalidQuery("horizon n must issue at least one step")
        if self.t is not None and self.t <= 0:
            raise InvalidQuery("horizon t must be positive")
        if not 0 < self.alpha < 1:
            raise InvalidQuery("alpha must lie in (0, 1)")
        if self.delta is not None and self.delta < 0:
            raise InvalidQuery("delta must be >= 0")


@dataclass(frozen=True)
class SimReport:
    """Empirical estimate with confidence interval and optional bound check.

    ``bound_compared`` stores the theorem bound the estimate was checked
    against (a BoundResult for tails, a plain float for MGF bounds);
    ``consistent`` is bound >= ci_low. ``heavy_tail`` warns that the top 1%
    of MGF samples carried more than half of the mean.
    """

    kind: str
    estimate: float
    ci_low: float
    ci_high: float
    replicas_used: int
    seed: int
    bound_compared: Union[BoundResult, float, None] = None
    consistent: bool | None = None
    heavy_tail: bool = False

    def to_dict(self) -> dict:
        if isinstance(self.bound_compared, BoundResult):
            bound = self.bound_compared.to_dict()
        else:
            bound = self.bound_compared
        return {
            "kind": self.kind,
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "replicas_used": self.replicas_used,
            "seed": self.seed,
            "bound_compared": bound,
            "consistent": self.consistent,
            "heavy_tail": self.heavy_tail,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimReport":
        bound = d["bound_compared"]
        if isinstance(bound, dict):
            bound = BoundResult.from_dict(bound)
        return cls(
            kind=str(d["kind"]),
            estimate=float(d["estimate"]),
            ci_low=float(d["ci_low"]),
            ci_high=float(d["ci_high"]),
            replicas_used=int(d["replicas_used"]),
            seed=int(d["seed"]),
            bound_compared=bound,
            consistent=None if d["consistent"] is None else bool(d["consistent"]),
            heavy_tail=bool(d.get("heavy_tail", False)),
        )


def clopper_pearson(successes: int, trials: int, alpha: float = DEFAULT_ALPHA):
    """Exact two-sided binomial confidence interval via Beta quantiles.

    Coverage >= 1 - alpha by construction. Boundary cells use the closed
    forms (alpha/2)^(1/trials).
    """
    if trials < 1 or not 0 <= successes <= trials:
        raise InvalidCounts(f"invalid counts ({successes}, {trials})")
    if not 0 < alpha < 1:
        raise InvalidCounts(f"alpha = {alpha!r} outside (0, 1)")
    half = alpha / 2.0
    if successes == 0:
        low = 0.0
    else:
        low = float(betaincinv(successes, trials - successes + 1, half))
    if successes == trials:
        high = 1.0
    else:
        high = float(betaincinv(successes + 1, trials - successes, 1.0 - half))
    if successes == 0:
        high = 1.0 - half ** (1.0 / trials)
    if successes == trials:
        low = half ** (1.0 / trials)
    return low, high


def _cdf_rows(matrix: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(matrix, axis=1)
    cdf[:, -1] = 1.0
    return cdf


def _pick(cdf_row: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cdf_row, u, side="right")), cdf_row.size - 1)


def _pick_table(cdf: np.ndarray) -> np.ndarray:
    """Row CDFs clamped to <= 1 and padded to a power-of-two width with 2.0.

    Clamping makes every row non-decreasing (a cumsum that rounds above 1
    before its last column, which ``_cdf_rows`` resets to 1.0, would not
    be), and changes no comparison with a uniform u < 1.
    """
    states = cdf.shape[1]
    table = np.full((cdf.shape[0], 1 << (states - 1).bit_length()), 2.0)
    table[:, :states] = np.minimum(cdf, 1.0)
    return table


def _pick_rows(table: np.ndarray, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next states: ``(cdf[states] <= u).sum(axis=1)`` for u in [0, 1).

    Bisection over the rows of ``_pick_table``: log2(width) gathers per
    replica instead of a compare over every state. The last CDF column is
    1.0 > u, so the count never exceeds the last state.
    """
    width = table.shape[1]
    flat = table.ravel()
    start = states * width
    pos = start - 1  # flat index of the last entry known to be <= u
    step = width >> 1
    while step:
        pos += step * (flat[pos + step] <= u)
        step >>= 1
    return pos + 1 - start


def sample_dtmc(
    P: TransitionMatrix, init: Distribution, n: int, rng: np.random.Generator
) -> np.ndarray:
    """One chain trajectory of length n (state indices).

    Consumes exactly n uniforms: one for the initial state, one per
    transition.
    """
    if n < 1:
        raise InvalidQuery("path length n must be >= 1")
    u = rng.random(n)
    cdf = _cdf_rows(P.entries)
    init_cdf = np.cumsum(init.weights)
    init_cdf[-1] = 1.0
    path = np.empty(n, dtype=np.int64)
    path[0] = _pick(init_cdf, u[0])
    for k in range(1, n):
        path[k] = _pick(cdf[path[k - 1]], u[k])
    return path


def _ctmc_block_size(Q: GeneratorMatrix, t: float) -> int:
    lam = float(-Q.entries.diagonal().min())
    if lam <= 0:
        return 0
    expected = t * lam
    return int(math.ceil(expected + 8.0 * math.sqrt(expected) + 16.0))


def _jump_cdf(Q: GeneratorMatrix) -> np.ndarray:
    rates = -Q.entries.diagonal()
    jump = Q.entries.copy()
    np.fill_diagonal(jump, 0.0)
    safe = np.where(rates > 0, rates, 1.0)
    jump = jump / safe[:, None]
    for i in np.flatnonzero(rates <= 0):  # absorbing: self-loop, never used
        jump[i] = 0.0
        jump[i, i] = 1.0
    return _cdf_rows(jump)


def sample_ctmc(
    Q: GeneratorMatrix, init: Distribution, t: float, rng: np.random.Generator
) -> list[tuple[int, float]]:
    """One jump path truncated at total time t, as (state, holding) pairs.

    Holding times are exponential with the state's exit rate; absorbing
    states (zero rate) hold for the remaining time. Randomness is consumed
    in fixed-size blocks (one uniform for the initial state, then pairs of
    exponential/uniform blocks), so the draw pattern depends only on
    (Q, t).
    """
    if t < 0:
        raise InvalidQuery("time horizon must be >= 0")
    rates = -Q.entries.diagonal()
    jump_cdf = _jump_cdf(Q)
    init_cdf = np.cumsum(init.weights)
    init_cdf[-1] = 1.0
    state = _pick(init_cdf, rng.random())
    if t == 0:
        return [(state, 0.0)]
    block = _ctmc_block_size(Q, t)
    if block == 0:
        return [(state, t)]
    segments: list[tuple[int, float]] = []
    remaining = t
    while True:
        exps = rng.standard_exponential(block)
        jumps = rng.random(block)
        for j in range(block):
            rate = rates[state]
            hold = exps[j] / rate if rate > 0 else math.inf
            if hold >= remaining:
                segments.append((state, remaining))
                return segments
            segments.append((state, float(hold)))
            remaining -= hold
            state = _pick(jump_cdf[state], jumps[j])


# Uniforms held per horizon block, summed over replicas (8 MB of float64).
_DRAW_BUDGET = 1 << 20


def _draw_block(replicas: int) -> int:
    """Steps per horizon block of ``_dtmc_sums`` for this many replicas."""
    return max(1, _DRAW_BUDGET // replicas)


def _dtmc_sums(
    P: TransitionMatrix, init: Distribution, fv: np.ndarray,
    n: int, seed: int, replicas: int,
) -> np.ndarray:
    """Per-replica sums of f along length-n paths (matches sample_dtmc).

    Each replica's stream is drawn in horizon blocks of ``_draw_block``
    steps; consecutive ``random(k)`` calls continue one stream, so the
    sums equal those of single ``random(n)`` draws.
    """
    rngs = [replica_rng(seed, r) for r in range(replicas)]
    table = _pick_table(_cdf_rows(P.entries))
    init_cdf = np.cumsum(init.weights)
    init_cdf[-1] = 1.0
    u = np.empty((min(n, _draw_block(replicas)), replicas))
    for start in range(0, n, len(u)):
        draws = u[: n - start]
        for r, rng in enumerate(rngs):
            draws[:, r] = rng.random(len(draws))
        for k, uk in enumerate(draws, start):
            if k == 0:
                states = np.minimum(
                    np.searchsorted(init_cdf, uk, side="right"), init_cdf.size - 1
                )
                sums = fv[states].astype(float)
            else:
                states = _pick_rows(table, states, uk)
                sums += fv[states]
    return sums


def _ctmc_integrals(
    Q: GeneratorMatrix, init: Distribution, fv: np.ndarray,
    t: float, seed: int, replicas: int,
) -> np.ndarray:
    """Per-replica time integrals of f over [0, t] (matches sample_ctmc)."""
    block = _ctmc_block_size(Q, t)
    rates = -Q.entries.diagonal()
    table = _pick_table(_jump_cdf(Q))
    init_cdf = np.cumsum(init.weights)
    init_cdf[-1] = 1.0
    # replica chunks keep the (replicas x block) draw buffers bounded
    chunk = max(1, int(2e7 // max(block, 1)))
    out = np.empty(replicas)
    for start in range(0, replicas, chunk):
        stop = min(start + chunk, replicas)
        out[start:stop] = _ctmc_integrals_chunk(
            rates, table, init_cdf, fv, t, seed, range(start, stop), block
        )
    return out


def _ctmc_integrals_chunk(
    rates: np.ndarray, table: np.ndarray, init_cdf: np.ndarray, fv: np.ndarray,
    t: float, seed: int, replica_ids, block: int,
) -> np.ndarray:
    rngs = [replica_rng(seed, r) for r in replica_ids]
    replicas = len(rngs)
    u0 = np.array([rng.random() for rng in rngs])
    states = np.minimum(
        np.searchsorted(init_cdf, u0, side="right"), init_cdf.size - 1
    )
    integrals = np.zeros(replicas)
    if block == 0 or t == 0:
        return integrals + fv[states] * t
    remaining = np.full(replicas, t)
    active = np.arange(replicas)
    while active.size:
        exps = np.empty((active.size, block))
        jumps = np.empty((active.size, block))
        for row, r in enumerate(active):
            exps[row] = rngs[r].standard_exponential(block)
            jumps[row] = rngs[r].random(block)
        st = states[active]
        rem = remaining[active]
        acc = np.zeros(active.size)
        alive = np.ones(active.size, dtype=bool)
        for j in range(block):
            rate = rates[st]
            with np.errstate(divide="ignore"):
                hold = np.where(rate > 0, exps[:, j] / np.where(rate > 0, rate, 1.0), np.inf)
            ending = alive & (hold >= rem)
            cont = alive & ~ending
            acc[ending] += fv[st[ending]] * rem[ending]
            alive[ending] = False
            acc[cont] += fv[st[cont]] * hold[cont]
            rem[cont] -= hold[cont]
            if cont.any():
                st[cont] = _pick_rows(table, st[cont], jumps[cont, j])
            if not alive.any():
                break
        integrals[active] += acc
        states[active] = st
        remaining[active] = np.where(alive, rem, 0.0)
        active = active[alive]
    return integrals


def _centered_values(f: Observable) -> np.ndarray:
    if not isinstance(f, Observable):
        raise InvalidQuery("empirical estimators need an Observable")
    if not f.centered:
        raise NotCentered("empirical estimators require a centered observable")
    return f.values


def _path_functionals(config: SimConfig, op, f: Observable) -> tuple[np.ndarray, float]:
    fv = _centered_values(f)
    if isinstance(op, TransitionMatrix):
        if config.n is None:
            raise InvalidQuery("discrete chains need the step horizon n")
        sums = _dtmc_sums(op, config.init, fv, config.n, config.seed, config.replicas)
        return sums, float(config.n)
    if config.t is None:
        raise InvalidQuery("jump processes need the time horizon t")
    integrals = _ctmc_integrals(op, config.init, fv, config.t, config.seed, config.replicas)
    return integrals, float(config.t)


def path_averages(config: SimConfig, op, f: Observable) -> np.ndarray:
    """Per-replica time averages of f over the configured horizon.

    These are S_n / n for chains and (1/t) int_0^t f for jump processes.
    One simulation serves every tail threshold: ``tail_report`` turns the
    averages into the estimate for one delta.
    """
    totals, horizon = _path_functionals(config, op, f)
    return totals / horizon


def tail_report(
    averages: np.ndarray, delta: float, seed: int,
    alpha: float = DEFAULT_ALPHA, bound: BoundResult | None = None,
) -> SimReport:
    """Estimate P(|time average| >= delta) from ``path_averages`` output.

    The interval is exact Clopper-Pearson at level ``alpha``; with a
    ``bound`` the report records whether it is consistent with the data
    (bound >= lower CI limit). ``seed`` is the simulation's seed, recorded
    in the report.
    """
    replicas = int(averages.size)
    hits = int(np.count_nonzero(np.abs(averages) >= delta))
    low, high = clopper_pearson(hits, replicas, alpha)
    consistent = None
    if bound is not None:
        consistent = bool(bound.probability_bound >= low)
    return SimReport(
        kind="tail",
        estimate=hits / replicas,
        ci_low=low,
        ci_high=high,
        replicas_used=replicas,
        seed=seed,
        bound_compared=bound,
        consistent=consistent,
    )


def empirical_tail(
    config: SimConfig, op, f: Observable, bound: BoundResult | None = None
) -> SimReport:
    """Estimate P(|time average of f| >= delta) with an exact binomial CI.

    When ``bound`` is given, the report records whether the bound is
    consistent with the data (bound >= lower CI limit); jump processes must
    then be irreducible, since the bound presumes an invariant law.
    """
    if config.delta is None:
        raise InvalidQuery("tail estimation needs delta in the config")
    if bound is not None and isinstance(op, GeneratorMatrix) and not is_irreducible(op):
        raise NotIrreducible(
            "bound comparison requested for a reducible generator"
        )
    return tail_report(
        path_averages(config, op, f), config.delta, config.seed, config.alpha, bound
    )


def empirical_mgf(
    config: SimConfig, op, f: Observable, bound: float | None = None
) -> SimReport:
    """Estimate E[exp(theta * path sum)] with a normal-approximation CI.

    The MGF estimand can have very heavy tails; when the largest 1% of the
    samples carry more than half of the sample mean the report sets
    ``heavy_tail`` instead of pretending the CI is trustworthy.
    """
    if config.theta is None:
        raise InvalidQuery("MGF estimation needs theta in the config")
    totals, _ = _path_functionals(config, op, f)
    samples = np.exp(config.theta * totals)
    estimate = float(samples.mean())
    if config.replicas > 1:
        sd = float(samples.std(ddof=1))
    else:
        sd = 0.0
    z = float(ndtri(1.0 - config.alpha / 2.0))
    half_width = z * sd / math.sqrt(config.replicas)
    top = max(1, int(0.01 * config.replicas))
    top_share = float(np.sort(samples)[-top:].sum()) / max(float(samples.sum()), 1e-300)
    consistent = None
    if bound is not None:
        consistent = bool(bound >= estimate - half_width)
    return SimReport(
        kind="mgf",
        estimate=estimate,
        ci_low=estimate - half_width,
        ci_high=estimate + half_width,
        replicas_used=config.replicas,
        seed=config.seed,
        bound_compared=bound,
        consistent=consistent,
        heavy_tail=top_share > 0.5,
    )
