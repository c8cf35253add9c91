"""Monte Carlo trajectory sampling and empirical tail/MGF estimation.

Randomness is organized as counter-based per-replica substreams: replica r
of a run seeded with s draws from ``Philox(SeedSequence(s, spawn_key=(r,)))``,
so reports are bit-reproducible, independent of evaluation order, and
stable when the replica count changes. The Philox keys of a whole run come
from one vectorised pass that reproduces numpy's ``SeedSequence`` hash, so
no per-replica ``SeedSequence`` is built, and no per-replica generator
either: a counter-based stream (Salmon et al., SC 2011) at draw 4c of
``Generator.random`` is just the state (key, counter c), so one generator
per replica range is re-pointed at each replica's stream (``_Repointed``).
A draw round is one call, ``_Repointed.fill``: it fills a step-major
buffer, one column per replica, with several replicas' streams from one
position, staged row-major in tiles of ``_DRAW_TILE`` replicas. Both
samplers draw only fixed-width ``random`` uniforms, in rounds that start at
multiples of 4, and run their replicas in chunks (``_chunked``) with a
draw budget each. Chain paths are drawn in horizon blocks of a multiple of
4 steps, in replica chunks that hold ``_DRAW_BUDGET`` uniforms. Jump
processes are sampled by their holding-time representation (no
uniformization), which makes time integrals of observables exact given the
path: rounds of at most ``_CHAIN_BLOCK`` jump steps, each a hold
``-log1p(-u) / rate`` and a jump uniform, in replica chunks that hold
``_JUMP_BUDGET`` draws (16 MB). A step reads its hold and jump rows as
they are until some path of the round ends, and through a column index of
the running paths after that. So neither sampler's memory grows with the
horizon or the replica count. Both samplers pick each next state from an
exact guide table over the steps of the clamped row CDFs: one bucket
lookup, then a bisection over the few steps inside the bucket, with the
same ``cdf <= u`` compares as a scan of the whole row. The first state is
one ``searchsorted`` over the start law's clamped CDF, with those compares.

A run's replicas split into contiguous ranges, one per worker process: the
calling process runs the first range and forked children the others, each
sending its results' bytes back through a pipe. A run forks only when it
has two chunks or more, ``os.sched_getaffinity`` exists and the process
runs one operating-system thread, so never beside a live BLAS or Python
thread; it then takes one worker per usable CPU, at most one per chunk
(``_workers``). A replica's result depends only on its own stream, so the
bits do not depend on the number of workers. Each worker holds at most one
draw budget, so a run holds at most workers x budget draws, still bounded
in the horizon and the replica count.

``empirical_tail`` simulates once and thresholds the same path averages at
every delta of its grid, so a whole grid (as in the CLI's ``verify``) costs
one simulation. Tail estimates carry exact Clopper-Pearson confidence
intervals; MGF estimates use a normal approximation with an honest
heavy-tail warning.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .bounds import BoundResult
from .chain_core import (
    Distribution,
    GeneratorMatrix,
    TransitionMatrix,
    _FINITE,
    _check_horizon,
    _check_int,
    _check_real,
    _check_states,
    is_irreducible,
)
from .errors import InvalidQuery, NotIrreducible

DEFAULT_ALPHA = 0.05


# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _replica_keys(seed: int, ids: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(r,)).generate_state(2, uint64)`` per id.

    The same hash as numpy's: the seed words are mixed into the pool once,
    as Python ints, then each id's one or two 32-bit spawn words are mixed
    in over uint64 arrays. Every product and difference is masked to 32
    bits, so both forms wrap modulo 2^32 as numpy's uint32 words do.
    """
    _check_int("seed", seed, 0, math.inf)
    seed = int(seed)
    ids = ids.astype(np.uint64, copy=False)
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


class _Repointed:
    """One Philox generator that ``fill`` re-points to replica streams.

    numpy's Philox steps its counter before each block of four 64-bit
    words, so after 4c words of the stream with key ``key`` its state is
    (counter c, key) with the block used up. ``Generator.random`` takes one
    word per double, so draw position 4c of a replica's stream of
    ``random`` draws is that state, which a state assignment sets without a
    generator per replica. The streams are drawn row-major into ``stage``,
    one replica per row, and each tile of ``len(stage)`` replicas reaches
    the step-major output in one transposed copy.
    """

    def __init__(self, stage: np.ndarray):
        self.stage = stage
        self.rng = np.random.Generator(np.random.Philox(key=0))
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def fill(self, keys: list, position: int, out: np.ndarray) -> None:
        """Fill column k of the step-major ``out`` with keys[k]'s stream from ``position``.

        ``position`` is a multiple of 4, and ``out`` has at most as many rows
        as the stage has columns.
        """
        state, bit_generator, random = self._state, self.rng.bit_generator, self.rng.random
        inner, stage = state["state"], self.stage
        inner["counter"][0] = position >> 2
        tile = len(stage)
        for k in range(0, len(keys), tile):
            rows = stage[:min(tile, len(keys) - k), :len(out)]
            for key, row in zip(keys[k:k + tile], rows):
                inner["key"] = key
                bit_generator.state = state
                random(out=row)
            out[:, k:k + len(rows)] = rows.T


@dataclass(frozen=True)
class SimConfig:
    """Replication plan for one empirical estimate."""

    replicas: int
    seed: int
    init: Distribution
    n: int | None = None
    t: float | None = None
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        _check_int("replicas", self.replicas, 1, math.inf)
        _check_int("seed", self.seed, 0, math.inf)
        if (self.n is None) == (self.t is None):
            raise InvalidQuery("exactly one horizon (n or t) must be set")
        if self.n is None:
            _check_horizon("continuous", self.t)
            if self.t == 0:  # the tail estimate divides by t
                raise InvalidQuery("horizon t must be positive")
        else:
            _check_horizon("discrete", self.n)
        _check_real("alpha", self.alpha, 0, 1, strict=True)


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


def clopper_pearson(successes: int, trials: int, alpha: float = DEFAULT_ALPHA):
    """Exact two-sided binomial confidence interval via Beta quantiles.

    Coverage >= 1 - alpha by construction. Boundary cells use the closed
    forms (alpha/2)^(1/trials).
    """
    _check_int("trials", trials, 1, math.inf)
    _check_int("successes", successes, 0, trials)
    _check_real("alpha", alpha, 0, 1, strict=True)
    half = alpha / 2.0
    if successes == 0:
        return 0.0, 1.0 - half ** (1.0 / trials)
    if successes == trials:
        return half ** (1.0 / trials), 1.0
    from scipy.special import betaincinv

    low = float(betaincinv(successes, trials - successes + 1, half))
    return low, float(betaincinv(successes + 1, trials - successes, 1.0 - half))


def _cdf_rows(matrix: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(matrix, axis=1)
    cdf[:, -1] = 1.0
    return cdf


class _PickTable(NamedTuple):
    """Guide table over the steps of clamped row CDFs (see ``_pick_table``)."""

    guide: np.ndarray  # rows x buckets, flat: index of the first candidate step
    values: np.ndarray  # step CDF values times K, row after row, each padded with 2K
    columns: np.ndarray  # the column of each step
    buckets: int  # K, a power of two
    levels: int  # bisection levels after the guide lookup


# Most guide entries (rows x buckets) a table holds, unless it has more rows:
# 256 KB of 64-bit indices.
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
    are kept, so their values rise strictly and the last is 1.0; the table
    holds them times K (exact, K being a power of two), so that a pick
    compares them with u K, which also finds the bucket. Guide
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
    # so 2^(levels-1) - 1 entries of 2K (above every u K) after each row keep
    # every read inside the row or its padding
    pad = max(0, (1 << levels >> 1) - 1)
    first = np.cumsum(steps + pad) - (steps + pad)  # flat index of each row's step 0
    size = int(first[-1] + steps[-1] + pad)
    values = np.full(size, 2.0 * buckets)
    columns = np.zeros(size, dtype=np.intp)
    guide = np.empty((rows, buckets), dtype=np.intp)
    for lo, block_steps, value, column, row in _row_steps(cdf):
        hi = lo + block_steps.size
        rank = np.arange(value.size) - np.repeat(np.cumsum(block_steps) - block_steps, block_steps)
        where = first[row] + rank
        values[where] = value * buckets
        columns[where] = column
        # #{step values <= b/K} = #{steps with ceil(value K) <= b}
        below = np.bincount(
            (row - lo) * (buckets + 1) + np.ceil(value * buckets).astype(np.int32),
            minlength=(hi - lo) * (buckets + 1),
        ).reshape(hi - lo, buckets + 1)[:, :buckets]
        np.cumsum(below, axis=1, out=guide[lo:hi])
        guide[lo:hi] += first[lo:hi, None]
    return _PickTable(guide.ravel(), values, columns, buckets, levels)


def _pick_steps(table: _PickTable, offsets, scaled: np.ndarray) -> np.ndarray:
    """Table positions of the picks from rows ``offsets // K`` at u = ``scaled / K``.

    ``offsets`` are rows times K and ``scaled`` is u K for u in [0, 1), so
    a caller that keeps both scaled saves a product per pick. One guide
    lookup, ``table.levels`` bisection levels, each over the running
    replicas; the table's indices are ``intp``, which ``take`` uses as they
    are (it converts any other index type on every call).
    """
    guide, values, _, _, levels = table
    # Exact: b = floor(u K) needs no rounding, and b/K <= u < (b+1)/K. The
    # guide entry counts the steps whose values are <= b/K; any other step
    # value <= u lies strictly inside bucket b, which holds fewer than
    # 2^levels of them. So the first step above u lies in the window of
    # 2^levels positions from the entry, and the bisection finds it with the
    # same ``<= u`` compare as a full scan, scaled by K on both sides.
    pos = guide.take(offsets + scaled.astype(np.intp))
    step = 1 << levels >> 1
    while step > 1:
        pos += step * (values[step - 1:].take(pos) <= scaled)
        step >>= 1
    if step:
        pos += values.take(pos) <= scaled
    return pos


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


# Uniforms held per chain draw buffer, summed over replicas (8 MB of float64).
_DRAW_BUDGET = 1 << 20

# Steps per chain draw block once the replicas are too many for longer
# blocks to fit the budget; a multiple of 4, so that every block starts at a
# draw position the re-pointed generator can reach. Each block costs one
# ``random`` call per replica and each chunk about 9 numpy calls per step, so
# it trades those calls against chunks: on the verify-dtmc chain (n = 1000,
# 10^4 replicas), 256, 384, 512 and 1024 (blocks of 252, 336, 500 and 1000
# steps) took medians of 0.231, 0.228, 0.213 and 0.228 s over 12
# interleaved runs (2-vCPU VM, numpy 2.4, one BLAS thread).
_CHAIN_BLOCK = 512

# Draws held per jump-sampler chunk (16 MB of float64): a chunk of replicas
# shares one step-major buffer of 4 + 2B rows, B jump steps per round. Each
# step makes about 15 numpy calls per chunk until a path of the round ends
# and 17 after it, so narrower chunks save memory but cost time: on the
# mgf-oracle jump input (20 states, t = 100, 10^4 replicas, B = 512, chunks
# of 2,000 replicas at 2^21), budgets 2^20, 2^21, 2^22 and 2^23 took medians
# of 0.50, 0.42, 0.40 and 0.41 s of CPU over 9 interleaved runs, with
# tracemalloc peaks of 9, 18, 29 and 43 MB (2-vCPU VM, numpy 2.4, one BLAS
# thread).
_JUMP_BUDGET = 1 << 21

# Rows of the stage a ``_Repointed`` stream owns: ``fill`` draws this many
# replicas row-major into it, then copies them step-major in one transposed
# copy; 64 rows keep the copy's source cache lines in L1.
_DRAW_TILE = 64


def _workers(chunks: int) -> int:
    """Processes that share a run of ``chunks`` replica chunks.

    One, unless the run has two chunks or more, ``os.sched_getaffinity``
    exists and the process runs one operating-system thread: a fork beside a
    live BLAS or Python thread could copy a lock that thread holds. Then one
    per usable CPU, and at most one per chunk.
    """
    if chunks < 2 or not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) != 1:
            return 1
    except OSError:
        return 1
    return min(len(os.sched_getaffinity(0)), chunks)


def _chunked(seed: int, replicas: int, block: int, budget: int, run) -> np.ndarray:
    """Per-replica results of ``run(stream, keys, draws)``, chunk by chunk.

    The replicas split into ``_workers(chunks)`` contiguous ranges of nearly
    equal size. The calling process runs the first range; each other range
    runs in a forked child, which writes its results' float64 bytes to a
    pipe and leaves by ``os._exit``. A child whose bytes come back short (it
    failed, or no process could be forked) has its range run again here, so
    an error surfaces as the serial run raises it. Every child is reaped,
    and killed first if the run fails before its bytes are read.

    A range runs in equal chunks of at most ``max(1, budget // block)``
    replicas; ``keys`` are the chunk's Philox keys and ``stream`` one
    ``_Repointed`` generator for the range, which owns the range's
    ``_DRAW_TILE``-row stage. The stage and one step-major (block x chunk)
    draw buffer are allocated once per range; ``run`` gets the buffer cut
    to its chunk's width. So each process holds at most one budget of draws
    and a run at most ``workers`` budgets, whatever the horizon and the
    replica count.
    """
    widest = max(1, budget // max(block, 1))
    out = np.empty(replicas)
    workers = _workers(-(-replicas // widest))
    cuts = [replicas * w // workers for w in range(workers + 1)]

    def run_range(lo: int, hi: int) -> None:
        chunk = -(-(hi - lo) // -(-(hi - lo) // widest))  # equal chunks, none wider
        draws = np.empty((block, chunk))
        stream = _Repointed(np.empty((min(_DRAW_TILE, chunk), block)))
        for start in range(lo, hi, chunk):
            keys = _replica_keys(seed, np.arange(start, min(start + chunk, hi))).tolist()
            out[start:start + len(keys)] = run(stream, keys, draws[:, :len(keys)])
            del keys  # freed before the next chunk's keys are built

    children = []  # (lo, hi, pid or None, read end of the child's pipe)
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the range is run here
                pid = None
            if pid == 0:
                try:
                    os.close(read)
                    run_range(lo, hi)
                    with open(write, "wb") as pipe:
                        pipe.write(out[lo:hi])
                finally:
                    os._exit(0)
            os.close(write)
            children.append((lo, hi, pid, open(read, "rb")))
        run_range(cuts[0], cuts[1])
        for lo, hi, _, pipe in children:
            with pipe:
                got = pipe.readinto(out[lo:hi])
            if got != out[lo:hi].nbytes:
                run_range(lo, hi)
    finally:
        for _, _, pid, pipe in children:
            if pid is not None and not pipe.closed:  # failed before its bytes were read
                import signal

                os.kill(pid, signal.SIGKILL)
            pipe.close()
            if pid is not None:
                os.waitpid(pid, 0)
    return out


def _chain_block(n: int, replicas: int) -> int:
    """Steps per chain draw block: all n, or balanced blocks of a multiple of 4.

    A block may hold ``_DRAW_BUDGET // replicas`` steps, or ``_CHAIN_BLOCK``
    if that is more, which splits the replicas into chunks; a horizon
    beyond it is cut into that many blocks of nearly equal length.
    """
    steps = max(_CHAIN_BLOCK, _DRAW_BUDGET // replicas // 4 * 4)
    if n <= steps:
        return n
    blocks = -(-n // steps)
    return 4 * -(-n // (4 * blocks))


def _dtmc_sums(
    P: TransitionMatrix, init: Distribution, fv: np.ndarray,
    n: int, seed: int, replicas: int,
) -> np.ndarray:
    """Per-replica sums of f along length-n paths.

    Replica r's path takes n uniforms of its stream, one for the initial
    state and one per transition, in horizon blocks of ``_chain_block``
    steps; each block re-points the run's generator at the block's first
    draw position, so the sums equal those of single ``random(n)`` draws.
    The replicas' rows are kept as guide offsets (row times K) and the
    draws of a block are scaled by K once; a pick's table position gives
    the next offset and the next f value directly.
    """
    table = _pick_table(_cdf_rows(P.entries))
    start_cdf = np.minimum(_cdf_rows(init.weights[None, :])[0], 1.0)
    offset_at, f_at = table.columns * table.buckets, fv.take(table.columns)

    def run(stream, keys, u):
        for start in range(0, n, len(u)):
            draws = u[: n - start]
            stream.fill(keys, start, draws)
            if start == 0:
                first = np.searchsorted(start_cdf, draws[0], side="right")
                offsets, sums = first * table.buckets, fv.take(first)
                draws = draws[1:]
            draws *= table.buckets
            for scaled in draws:
                pos = _pick_steps(table, offsets, scaled)
                offset_at.take(pos, out=offsets)
                sums += f_at.take(pos)
        return sums

    return _chunked(seed, replicas, _chain_block(n, replicas), _DRAW_BUDGET, run)


def _ctmc_block_size(Q: GeneratorMatrix, t: float) -> int:
    """Jump steps per draw round: even, at most ``_CHAIN_BLOCK``, 0 if nothing jumps.

    Below the cap, a round holds the expected jumps at the top exit rate
    plus 8 standard deviations and 16, so most paths end in one round.
    """
    lam = float(-Q.entries.diagonal().min())
    if lam <= 0:
        return 0
    expected = t * lam
    steps = math.ceil(min(expected + 8.0 * math.sqrt(expected) + 16.0, _CHAIN_BLOCK))
    return steps + steps % 2


def _ctmc_integrals(
    Q: GeneratorMatrix, init: Distribution, fv: np.ndarray,
    t: float, seed: int, replicas: int,
) -> np.ndarray:
    """Per-replica time integrals of f over [0, t].

    Replica r's stream is laid out in rounds of B = ``_ctmc_block_size``
    jump steps. Draw 0 picks the initial state and draws 1-3 go unused;
    round k takes draws [4 + 2Bk, 4 + 2B(k + 1)): B holding-time uniforms u,
    each a hold ``-log1p(-u) / rate``, then B jump uniforms. B is even, so
    every round starts at a multiple of 4, where the run's generator is
    re-pointed once per running replica; round 0 and draw 0 come from one
    fill from position 0. A chunk's replicas share one step-major buffer of
    4 + 2B rows and B is at most ``_CHAIN_BLOCK``, so memory grows with
    neither t nor the replica count. The running replicas' index, guide
    offset (row times K), exit rate, f value, remaining time and round
    accumulator are compacted only at steps where some path ends; a path
    ends where ``hold < rem`` fails, which an infinite or nan hold (zero
    exit rate) does. Until the first ending of a round, running path i owns
    column i of the round's rows, which are used as they are; from then on
    the steps gather the running paths' columns. The holds use numpy's
    ``log1p``, whose SIMD kernel and libm fallback can differ in the last
    bit, so the integrals repeat bit for bit on one machine and numpy build.
    """
    # +0.0 at absorbing states, whatever the sign of zero on the diagonal:
    # a hold over it is inf, or nan for a zero draw, and either ends the path
    # like an infinite hold (-inf would never end it)
    rates = -Q.entries.diagonal()
    rates = np.where(rates > 0, rates, 0.0)
    block = _ctmc_block_size(Q, t)
    table = _pick_table(_jump_cdf(Q))
    start_cdf = np.minimum(_cdf_rows(init.weights[None, :])[0], 1.0)
    offset_at = table.columns * table.buckets
    rate_at, f_at = rates.take(table.columns), fv.take(table.columns)

    def run(stream, keys, draws):
        stream.fill(keys, 0, draws)  # draw 0 and round 0
        first = np.searchsorted(start_cdf, draws[0], side="right")
        offsets, rate, f = first * table.buckets, rates.take(first), fv.take(first)
        integrals = np.zeros(len(keys))
        if not block:
            return integrals + f * t
        ids, rem, position = np.arange(len(keys)), np.full(len(keys), t), 4
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                holds, jumps = draws[4:4 + block, :ids.size], draws[4 + block:, :ids.size]
                np.log1p(np.negative(holds, out=holds), out=holds)
                np.negative(holds, out=holds)
                jumps *= table.buckets
                # None while running path i still owns column i
                col, acc = None, np.zeros(ids.size)
                for exp_row, scaled in zip(holds, jumps):
                    hold = exp_row / rate if col is None else exp_row.take(col) / rate
                    going = hold < rem
                    if not going.all():
                        ending = ~going
                        integrals[ids[ending]] += acc[ending] + f[ending] * rem[ending]
                        col = np.flatnonzero(going) if col is None else col[going]
                        ids, offsets, rate, f, rem, acc, hold = (
                            a[going] for a in (ids, offsets, rate, f, rem, acc, hold)
                        )
                        if not ids.size:
                            return integrals
                    acc += f * hold
                    rem -= hold
                    pos = _pick_steps(table, offsets, scaled if col is None else scaled.take(col))
                    offsets, rate, f = offset_at.take(pos), rate_at.take(pos), f_at.take(pos)
                integrals[ids] += acc
                position += 2 * block
                stream.fill([keys[i] for i in ids.tolist()], position, draws[4:, :ids.size])

    return _chunked(seed, replicas, 4 + 2 * block, _JUMP_BUDGET, run)


def _path_functionals(config: SimConfig, op, f) -> np.ndarray:
    """Per-replica sums of f over n steps, or time integrals of f over [0, t]."""
    fv = _check_states(op, f, config.init)
    if isinstance(op, TransitionMatrix):
        if config.n is None:
            raise InvalidQuery("discrete chains need the step horizon n")
        return _dtmc_sums(op, config.init, fv, config.n, config.seed, config.replicas)
    if config.t is None:
        raise InvalidQuery("jump processes need the time horizon t")
    return _ctmc_integrals(op, config.init, fv, config.t, config.seed, config.replicas)


def empirical_tail(
    config: SimConfig, op, f, deltas: Sequence[float],
    bounds: Sequence[BoundResult] | None = None,
) -> list[SimReport]:
    """Estimate P(|time average of f| >= delta) at each delta, with exact binomial CIs.

    One simulation serves the whole grid: each delta thresholds the same
    per-replica time averages, S_n / n for chains and (1/t) int_0^t f for
    jump processes. ``bounds``, one BoundResult per delta, makes each
    report record whether its bound is consistent with the data (bound >=
    lower CI limit); jump processes must then be irreducible, since the
    bounds presume an invariant law.
    """
    for delta in deltas:
        _check_real("delta", delta, 0, math.inf)
    if bounds is None:
        bounds = [None] * len(deltas)
    elif len(bounds) != len(deltas):
        raise InvalidQuery("bounds must hold one BoundResult per delta")
    elif isinstance(op, GeneratorMatrix) and not is_irreducible(op):
        raise NotIrreducible("bound comparison requested for a reducible generator")
    averages = _path_functionals(config, op, f) / (config.t if config.n is None else config.n)
    reports = []
    for delta, bound in zip(deltas, bounds):
        hits = int(np.count_nonzero(np.abs(averages) >= delta))
        low, high = clopper_pearson(hits, config.replicas, config.alpha)
        reports.append(SimReport(
            kind="tail",
            estimate=hits / config.replicas,
            ci_low=low,
            ci_high=high,
            replicas_used=config.replicas,
            seed=config.seed,
            bound_compared=bound,
            consistent=None if bound is None else bool(bound.probability_bound >= low),
        ))
    return reports


def empirical_mgf(
    config: SimConfig, op, f, theta: float, bound: float | None = None
) -> SimReport:
    """Estimate E[exp(theta * path sum)] with a normal-approximation CI.

    The MGF estimand can have very heavy tails; when the largest 1% of the
    samples carry more than half of the sample mean, or the sample mean
    overflows, the report sets ``heavy_tail`` instead of pretending the CI
    is trustworthy.
    """
    _check_real("theta", theta, -_FINITE, _FINITE)
    sums = _path_functionals(config, op, f)
    # exp(theta S) overflows to inf for large |theta S|; the estimate then
    # reads inf and its spread nan, which the report says by heavy_tail
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.exp(theta * sums)
        estimate = float(samples.mean())
        sd = float(samples.std(ddof=1)) if config.replicas > 1 else 0.0
        top = max(1, int(0.01 * config.replicas))
        top_share = float(np.sort(samples)[-top:].sum()) / max(float(samples.sum()), 1e-300)
    from scipy.special import ndtri

    z = float(ndtri(1.0 - config.alpha / 2.0))
    half_width = z * sd / math.sqrt(config.replicas)
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
        heavy_tail=top_share > 0.5 or not math.isfinite(estimate),
    )
