"""Monte Carlo trajectory sampling and empirical tail/MGF estimation.

Randomness is organized as counter-based per-replica substreams: replica r
of a run seeded with s draws from ``Philox(SeedSequence(s, spawn_key=(r,)))``,
so reports are bit-reproducible, independent of evaluation order, and
stable when the replica count changes. The Philox keys of a whole run come
from one vectorised pass that reproduces numpy's ``SeedSequence`` hash, so
no per-replica ``SeedSequence`` is built. Chain paths draw each replica's
stream in horizon blocks of a fixed total size, so memory is O(replicas x
block) whatever the horizon. Jump processes are sampled by their
holding-time representation (no uniformization), which makes time
integrals of observables exact given the path; their replicas run in
chunks whose two step-major (block x chunk) draw buffers hold at most
``_JUMP_BUDGET`` draws each, so memory does not grow with the replica
count (it still grows with the horizon once one replica's block exceeds
the budget). Both samplers pick every state, the first one included,
from an exact guide table over the steps of the clamped row CDFs: one
bucket lookup, then a bisection over the few steps inside the bucket, with
the same ``cdf <= u`` compares as a scan of the whole row.

``path_averages`` simulates once; ``tail_report`` thresholds its output at
one delta, so a whole delta grid (as in the CLI's ``verify``) costs one
simulation. Tail estimates carry exact Clopper-Pearson confidence
intervals; MGF estimates use a normal approximation with an honest
heavy-tail warning.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bounds import BoundResult
from .chain_core import (
    Distribution,
    GeneratorMatrix,
    Observable,
    TransitionMatrix,
    is_irreducible,
)
from .errors import InvalidCounts, InvalidQuery, NotCentered, NotIrreducible, TooLarge

DEFAULT_ALPHA = 0.05


# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


class _PhiloxKey(ISeedSequence):
    """Seeds a Philox with a key computed ahead, without a SeedSequence."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _replica_keys(seed: int, ids: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(r,)).generate_state(2, uint64)`` per id.

    The same hash as numpy's: the seed words are mixed into the pool once,
    as Python ints, then each id's one or two 32-bit spawn words are mixed
    in over uint64 arrays. Every product and difference is masked to 32
    bits, so both forms wrap modulo 2^32 as numpy's uint32 words do.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    pool = np.array(pool, dtype=np.uint64)[:, None].repeat(ids.size, axis=1)
    low = ids & _MASK32
    for dst in range(_POOL_SIZE):
        pool[dst] = mix(pool[dst], hashmix(low))
    # ids >= 2^32 have a second spawn word, mixed in with the next constants
    wide = np.flatnonzero(ids >> 32)
    high = ids[wide] >> 32
    for dst in range(_POOL_SIZE):
        pool[dst, wide] = mix(pool[dst, wide], hashmix(high))
    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        state.append(word ^ (word >> 16))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def _replica_rngs(seed: int, ids: np.ndarray) -> list[np.random.Generator]:
    """``replica_rng(seed, r)`` for every r of the uint64 array ``ids``."""
    seed = operator.index(seed)
    if seed < 0:
        raise InvalidQuery(f"seed must be >= 0, got {seed}")
    keys = _replica_keys(seed, ids.astype(np.uint64, copy=False))
    return [np.random.Generator(np.random.Philox(_PhiloxKey(key))) for key in keys.tolist()]


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """Counter-based generator for one replica, stable across run sizes.

    It draws exactly what ``Philox(SeedSequence(seed, spawn_key=(replica,)))``
    draws. The key comes from the vectorised pass that seeds whole runs
    (``_replica_rngs``), of which this is the one-replica case.
    """
    replica = operator.index(replica)
    if not 0 <= replica < 1 << 64:
        raise InvalidQuery(f"replica ids lie in [0, 2**64), got {replica}")
    return _replica_rngs(seed, np.array([replica], dtype=np.uint64))[0]


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
        if self.seed < 0:
            raise InvalidQuery(f"seed must be >= 0, got {self.seed}")
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
    from scipy.special import betaincinv

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


class _PickTable(NamedTuple):
    """Guide table over the steps of clamped row CDFs (see ``_pick_table``)."""

    guide: np.ndarray  # rows x buckets, flat: index of the first candidate step
    values: np.ndarray  # step CDF values, row after row, each row padded with 2.0
    columns: np.ndarray  # the column of each step
    buckets: int  # K, a power of two
    levels: int  # bisection levels after the guide lookup


# Most guide entries (rows x buckets) a table holds, unless it has more rows:
# 128 KB of int32.
_GUIDE_CAP = 1 << 15
# CDF entries clamped at a time while a table is built, so that the build
# holds little more than the table itself.
_BUILD_BLOCK = 1 << 18


def _row_steps(cdf: np.ndarray):
    """Yield (first row, steps per row, value, int32 column, int32 row) by row blocks.

    A step is column 0 or a column where the clamped row strictly rises.
    """
    rows, states = cdf.shape
    per = max(1, _BUILD_BLOCK // states)
    for lo in range(0, rows, per):
        clamped = np.minimum(cdf[lo:lo + per], 1.0)
        rising = np.empty(clamped.shape, dtype=bool)
        rising[:, 0] = True
        np.greater(clamped[:, 1:], clamped[:, :-1], out=rising[:, 1:])
        row = np.arange(lo, lo + len(clamped), dtype=np.int32)[:, None]
        column = np.arange(states, dtype=np.int32)
        yield (
            lo, rising.sum(axis=1), clamped[rising],
            np.broadcast_to(column, rising.shape)[rising],
            np.broadcast_to(row, rising.shape)[rising],
        )


def _pick_table(cdf: np.ndarray) -> _PickTable:
    """Exact guide table (Chen & Asau 1974) for picks from row CDFs.

    Each row is clamped to <= 1, which makes it non-decreasing (a cumsum
    that rounds above 1 before its last column, which ``_cdf_rows`` resets
    to 1.0, would not be) and changes no comparison with a uniform u < 1.
    A pick is the first column whose value exceeds u, which is always a
    step: column 0 or a column where the row strictly rises. Only the steps
    are kept, so their values rise strictly and the last is 1.0. Guide
    entry (i, b) of K buckets points at the first step of row i whose value
    exceeds b/K. K is the smallest power of two from about twice the most
    steps in a row that leaves at most one step strictly inside any bucket,
    unless the guide would outgrow ``_GUIDE_CAP``; crowded buckets then cost
    extra bisection levels, at worst as many as a bisection over the row.
    The rows are read in blocks of ``_BUILD_BLOCK`` entries, once per pass.
    """
    rows = cdf.shape[0]
    steps = np.concatenate([block[1] for block in _row_steps(cdf)])
    widest = 1 << max(1, _GUIDE_CAP // rows).bit_length() - 1
    buckets = min(1 << int(2 * steps.max() - 1).bit_length(), widest)
    while True:
        crowd = 0
        for _, _, value, _, row in _row_steps(cdf):
            # value * buckets is exact: a power-of-two scale of a value in
            # [0, 1]; row * buckets + bucket < max(_GUIDE_CAP, rows) fits int32
            scaled = value * buckets
            bucket = scaled.astype(np.int32)
            inside = scaled != bucket
            key = (row * buckets + bucket)[inside]
            crowd = max(crowd, int(np.bincount(key, minlength=1).max()))
        if crowd <= 1 or buckets == widest:
            break
        buckets *= 2
    levels = crowd.bit_length()
    # a bisection level reads position pos + step - 1 with pos at most the
    # answer, itself at most the row's last step, and step <= 2^(levels-1);
    # so 2^(levels-1) - 1 entries of 2.0 (above every u) after each row keep
    # every read inside the row or its padding
    pad = max(0, (1 << levels >> 1) - 1)
    first = np.cumsum(steps + pad) - (steps + pad)  # flat index of each row's step 0
    size = int(first[-1] + steps[-1] + pad)
    if size > np.iinfo(np.int32).max:
        raise TooLarge(f"{size} pick-table entries exceed int32 indexing")
    values = np.full(size, 2.0)
    columns = np.zeros(size, dtype=np.int32)
    guide = np.empty((rows, buckets), dtype=np.int32)
    for lo, block_steps, value, column, row in _row_steps(cdf):
        hi = lo + block_steps.size
        rank = np.arange(value.size) - np.repeat(np.cumsum(block_steps) - block_steps, block_steps)
        where = first[row] + rank
        values[where] = value
        columns[where] = column
        # #{step values <= b/K} = #{steps with ceil(value K) <= b}
        below = np.bincount(
            (row - lo) * (buckets + 1) + np.ceil(value * buckets).astype(np.int32),
            minlength=(hi - lo) * (buckets + 1),
        ).reshape(hi - lo, buckets + 1)[:, :buckets]
        np.cumsum(below, axis=1, out=guide[lo:hi])
        guide[lo:hi] += first[lo:hi, None].astype(np.int32)
    return _PickTable(guide.ravel(), values, columns, buckets, levels)


def _pick_rows(table: _PickTable, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next states: ``(cdf[states] <= u).sum(axis=1)`` for u in [0, 1).

    One guide lookup, ``table.levels`` bisection levels and one column
    gather per replica, each over the running replicas; ``take`` gathers
    with the table's int32 indices without converting them.
    """
    guide, values, columns, buckets, levels = table
    # Exact: b = floor(u K) needs no rounding (u K scales u by a power of
    # two), and b/K <= u < (b+1)/K. The guide entry counts the steps whose
    # values are <= b/K; any other step value <= u lies strictly inside
    # bucket b, which holds fewer than 2^levels of them. So the first step
    # above u lies in the window of 2^levels positions from the entry, and
    # the bisection finds it with the same ``<= u`` compare as a full scan.
    pos = guide.take(states * buckets + (u * buckets).astype(guide.dtype))
    step = 1 << levels >> 1
    while step > 1:
        pos += step * (values[step - 1:].take(pos) <= u)
        step >>= 1
    if step:
        pos += values.take(pos) <= u
    return columns.take(pos)


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


# Replicas drawn row-major into a stage, then copied step-major in one
# transposed copy: 64 rows keep the copy's source cache lines in L1.
_DRAW_TILE = 64


def _stage_draws(rngs: list, draw, out: np.ndarray, stage: np.ndarray) -> None:
    """Fill column k of the step-major ``out`` with ``len(out)`` draws of rngs[k].

    ``draw`` is a ``Generator`` method such as ``Generator.random``; each
    tile of ``len(stage)`` replicas draws into the rows of ``stage`` and
    reaches ``out`` in one transposed copy.
    """
    for k in range(0, len(rngs), len(stage)):
        tile = rngs[k:k + len(stage)]
        rows = stage[:len(tile), :len(out)]
        for rng, row in zip(tile, rows):
            draw(rng, out=row)
        out[:, k:k + len(tile)] = rows.T


def _dtmc_sums(
    P: TransitionMatrix, init: Distribution, fv: np.ndarray,
    n: int, seed: int, replicas: int,
) -> np.ndarray:
    """Per-replica sums of f along length-n paths (matches sample_dtmc).

    Each replica's stream is drawn in horizon blocks of ``_draw_block``
    steps; consecutive ``random(k)`` calls continue one stream, so the
    sums equal those of single ``random(n)`` draws.
    """
    rngs = _replica_rngs(seed, np.arange(replicas))
    table = _pick_table(_cdf_rows(P.entries))
    first = _pick_table(_cdf_rows(init.weights[None, :]))
    u = np.empty((min(n, _draw_block(replicas)), replicas))
    stage = np.empty((min(_DRAW_TILE, replicas), len(u)))
    for start in range(0, n, len(u)):
        draws = u[: n - start]
        _stage_draws(rngs, np.random.Generator.random, draws, stage)
        for k, uk in enumerate(draws, start):
            if k == 0:
                states = _pick_rows(first, np.zeros(replicas, dtype=np.int32), uk)
                sums = fv.take(states).astype(float)
            else:
                states = _pick_rows(table, states, uk)
                sums += fv.take(states)
    return sums


# Draws held per jump-sampler buffer (at most 32 MB of float64). Each step
# issues about 17 numpy calls per chunk, so narrower chunks save memory but
# cost time: on 10^4 replicas of block 1269 with a one-level guide-table
# pick, budgets 2^20, 2^21, 2^22 and 2^23 took 1.03, 0.79, 0.74 and 0.82 s
# (best of three; the last two differ by less than the host's noise), with
# tracemalloc peaks of 16, 30, 53 and 105 MB (2-vCPU VM, numpy 2.4).
_JUMP_BUDGET = 1 << 22


def _ctmc_integrals(
    Q: GeneratorMatrix, init: Distribution, fv: np.ndarray,
    t: float, seed: int, replicas: int,
) -> np.ndarray:
    """Per-replica time integrals of f over [0, t] (matches sample_ctmc).

    Replicas run in equal chunks of at most ``max(1, _JUMP_BUDGET // block)``;
    two step-major (block x chunk) draw buffers are allocated once and reused
    by every chunk and draw round, so memory is O(_JUMP_BUDGET) whatever the
    replica count.
    """
    block = _ctmc_block_size(Q, t)
    # +0.0 at absorbing states, whatever the sign of zero on the diagonal:
    # a draw over it is inf, or nan for a zero draw, and either ends the path
    # like the scalar sampler's infinite hold (-inf would never end it)
    rates = -Q.entries.diagonal()
    rates = np.where(rates > 0, rates, 0.0)
    table = _pick_table(_jump_cdf(Q))
    first = _pick_table(_cdf_rows(init.weights[None, :]))
    widest = max(1, _JUMP_BUDGET // max(block, 1))
    chunk = -(-replicas // -(-replicas // widest))  # equal chunks, none wider
    exps = np.empty((block, chunk))
    jumps = np.empty((block, chunk))
    out = np.empty(replicas)
    for start in range(0, replicas, chunk):
        rngs = _replica_rngs(seed, np.arange(start, min(start + chunk, replicas)))
        out[start:start + len(rngs)] = _ctmc_integrals_chunk(
            rngs, first, rates, table, fv, t, exps, jumps
        )
    return out


def _ctmc_integrals_chunk(
    rngs: list, first: _PickTable, rates: np.ndarray, table: _PickTable,
    fv: np.ndarray, t: float, exps: np.ndarray, jumps: np.ndarray,
) -> np.ndarray:
    """Integrals of one chunk of replicas, one draw round at a time.

    A round draws ``block`` holding times and jump uniforms for every
    replica still running, into column k of the step-major buffers for the
    k-th of them, so step j reads row j; the draws reach the buffers through
    a row-major stage of ``_DRAW_TILE`` replicas. The running replicas'
    index, state, remaining time and round accumulator are compacted only at
    steps where some path ends; a path ends where ``hold < rem`` fails,
    which an infinite or nan hold (zero exit rate) does.
    """
    u0 = np.array([rng.random() for rng in rngs])
    st = _pick_rows(first, np.zeros(len(rngs), dtype=np.int32), u0)
    integrals = np.zeros(len(rngs))
    if len(exps) == 0 or t == 0:
        return integrals + fv[st] * t
    ids = np.arange(len(rngs))
    rem = np.full(len(rngs), t)
    stage = np.empty((min(_DRAW_TILE, len(rngs)), len(exps)))
    with np.errstate(divide="ignore", invalid="ignore"):
        while ids.size:
            running = [rngs[r] for r in ids.tolist()]
            _stage_draws(running, np.random.Generator.standard_exponential, exps, stage)
            _stage_draws(running, np.random.Generator.random, jumps, stage)
            col = np.arange(ids.size)
            acc = np.zeros(ids.size)
            for exps_j, jumps_j in zip(exps, jumps):
                hold = exps_j[col] / rates.take(st)
                going = hold < rem
                if not going.all():
                    ending = ~going
                    integrals[ids[ending]] += acc[ending] + fv[st[ending]] * rem[ending]
                    ids, col, st, rem, acc, hold = (
                        ids[going], col[going], st[going], rem[going], acc[going], hold[going]
                    )
                    if not ids.size:
                        break
                acc += fv.take(st) * hold
                rem -= hold
                st = _pick_rows(table, st, jumps_j[col])
            integrals[ids] += acc
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
    from scipy.special import ndtri

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
