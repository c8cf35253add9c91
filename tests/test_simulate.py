import dataclasses
import errno
import json
import math
import operator
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import chainbounds as cb
from chainbounds import cli, errors, simulate
from chainbounds.chain_core import Distribution, GeneratorMatrix, TransitionMatrix
from chainbounds.errors import InvalidQuery
from chainbounds.examples import zero_absolute_gap_chain
from chainbounds.simulate import (
    _cdf_rows,
    _ctmc_block_size,
    _ctmc_integrals,
    _dtmc_sums,
    _jump_cdf,
    _pick_steps,
    _pick_table,
    _replica_keys,
)
from conftest import (
    _MUST_FORK,
    _cpus,
    _no_children,
    _one_thread,
    random_generator,
    random_transition,
)


def _uniform(n):
    return cb.make_distribution(np.full(n, 1.0 / n))


# The scalar samplers: one replica's path from its own generator. They are
# the reference for the per-replica stream layout of the vectorised ones.


def _pick_rows(table, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next states: ``(cdf[states] <= u).sum(axis=1)`` for u in [0, 1)."""
    return table.columns.take(_pick_steps(table, states * table.buckets, u * table.buckets))


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
    table = _pick_table(_cdf_rows(P.entries))
    first = _pick_table(_cdf_rows(init.weights[None, :]))
    path = np.empty(n, dtype=np.int64)
    path[:1] = _pick_rows(first, np.zeros(1, dtype=np.int32), u[:1])
    for k in range(1, n):
        path[k:k + 1] = _pick_rows(table, path[k - 1:k], u[k:k + 1])
    return path


def sample_ctmc(
    Q: GeneratorMatrix, init: Distribution, t: float, rng: np.random.Generator
) -> list[tuple[int, float]]:
    """One jump path truncated at total time t, as (state, holding) pairs.

    Holding times are ``-log1p(-u) / rate`` for the state's exit rate;
    absorbing states (zero rate) hold for the remaining time. The stream is
    read in the vectorised sampler's layout: draw 0 picks the initial state
    and draws 1-3 go unused, then each round of B = ``_ctmc_block_size(Q, t)``
    steps takes B holding-time uniforms and B jump uniforms.
    """
    if t < 0:
        raise InvalidQuery("time horizon must be >= 0")
    rates = -Q.entries.diagonal()
    table = _pick_table(_jump_cdf(Q))
    first = _pick_table(_cdf_rows(init.weights[None, :]))
    state = int(_pick_rows(first, np.zeros(1, dtype=np.intp), rng.random(4)[:1])[0])
    if t == 0:
        return [(state, 0.0)]
    block = _ctmc_block_size(Q, t)
    if block == 0:
        return [(state, t)]
    segments: list[tuple[int, float]] = []
    remaining = t
    while True:
        holds = -np.log1p(-rng.random(block))
        jumps = rng.random(block)
        for j in range(block):
            rate = rates[state]
            hold = holds[j] / rate if rate > 0 else math.inf
            if hold >= remaining:
                segments.append((state, remaining))
                return segments
            segments.append((state, float(hold)))
            remaining -= hold
            state = int(_pick_rows(table, np.array([state]), jumps[j:j + 1])[0])


class TestSamplers:
    def test_identity_chain_constant_path(self):
        P = cb.validate_transition_matrix(np.eye(3))
        init = cb.make_distribution([0, 1, 0])
        for state in range(3):
            sums = _dtmc_sums(P, init, np.eye(3)[state], 5, seed=0, replicas=8)
            assert (sums == (5.0 if state == 1 else 0.0)).all()

    def test_flip_chain_alternates(self):
        # the visits to each state over every prefix pin the path 0, 1, 0, 1, ...
        P = cb.validate_transition_matrix([[0, 1], [1, 0]])
        init = cb.make_distribution([1.0, 0.0])
        for n in range(1, 7):
            for state, visits in ((0, (n + 1) // 2), (1, n // 2)):
                sums = _dtmc_sums(P, init, np.eye(2)[state], n, seed=0, replicas=8)
                assert (sums == visits).all()

    def test_one_step_frequencies(self):
        rng = np.random.default_rng(13)
        P = random_transition(rng, 3)
        init = cb.make_distribution([1.0, 0.0, 0.0])
        counts = np.zeros(3)
        samples = 100_000
        sums = _dtmc_sums(P, init, np.array([0.0, 1.0, 0.0]), 2, seed=99, replicas=samples)
        # sums here = indicator of landing in state 1 after one step
        counts1 = sums.sum()
        p_hat = counts1 / samples
        se = math.sqrt(P.entries[0, 1] * (1 - P.entries[0, 1]) / samples)
        assert abs(p_hat - P.entries[0, 1]) <= 3 * se

    def test_ctmc_zero_generator_single_segment(self):
        # every path holds its initial state for the whole horizon
        Q = cb.validate_generator(np.zeros((2, 2)))
        fv = np.array([1.0, -2.0])
        ints = _ctmc_integrals(Q, _uniform(2), fv, 7.5, seed=1, replicas=64)
        assert set(ints.tolist()) == {7.5, -15.0}

    def test_ctmc_durations_sum_to_horizon(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        total = _ctmc_integrals(Q, mu, np.ones(2), 13.0, seed=2, replicas=50)
        assert total == pytest.approx(np.full(50, 13.0), abs=1e-9)
        for state in range(2):
            occupation = _ctmc_integrals(Q, mu, np.eye(2)[state], 13.0, seed=2, replicas=50)
            assert ((occupation >= 0) & (occupation <= 13.0 + 1e-9)).all()

    def test_ctmc_occupation_fraction(self):
        # long-run fraction of time in state 0 should approach 2/3
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        time0 = _ctmc_integrals(Q, mu, np.array([1.0, 0.0]), 1000.0, seed=3, replicas=20)
        frac = float(time0.mean()) / 1000.0
        # asymptotic variance heuristic: 3 sigma with sigma ~ sqrt(var/t)
        assert abs(frac - 2 / 3) <= 0.02

    def test_ctmc_mean_holding_time(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        segs = sample_ctmc(Q, mu, 10_000.0, replica_rng(4, 0))
        holds0 = [d for s, d in segs[:-1] if s == 0]  # full (untruncated) holds
        mean = float(np.mean(holds0))
        se = float(np.std(holds0, ddof=1)) / math.sqrt(len(holds0))
        assert abs(mean - 1.0) <= 3 * se

    def test_batch_matches_sampler_paths(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        fv = np.array([1.0, 0.0, 0.0, -1.0])
        sums = _dtmc_sums(P, mu, fv, 30, seed=5, replicas=12)
        for r in range(12):
            path = sample_dtmc(P, mu, 30, replica_rng(5, r))
            assert fv[path].sum() == sums[r]
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        muq = cb.stationary_distribution(Q)
        fq = np.array([1.0, -1.0])
        ints = _ctmc_integrals(Q, muq, fq, 20.0, seed=6, replicas=12)
        for r in range(12):
            segs = sample_ctmc(Q, muq, 20.0, replica_rng(6, r))
            manual = sum(fq[s] * d for s, d in segs)
            assert manual == pytest.approx(ints[r], abs=1e-12)
        # horizons on both sides of the draw-block boundaries (two chunks from
        # block - 1 on)
        replicas = 4096
        block = simulate._CHAIN_BLOCK
        assert simulate._chain_block(block + 1, replicas) < block
        for n in (1, block - 1, block, block + 1, 2 * block + 3):
            sums = _dtmc_sums(P, mu, fv, n, seed=8, replicas=replicas)
            for r in (0, 1, replicas // 2, replicas - 1):
                path = sample_dtmc(P, mu, n, replica_rng(8, r))
                assert fv[path].sum() == sums[r]

    def test_replica_counts_around_the_chunk(self, monkeypatch):
        # a budget of 24 draws and 8-step blocks: a block holds
        # 24 // replicas steps rounded down to a multiple of 4, or 8 if that
        # is more, and horizons beyond it split into balanced blocks
        rng = np.random.default_rng(17)
        P = random_transition(rng, 5, sparsify=0.4)
        mu = cb.stationary_distribution(P)
        fv = rng.normal(size=5)
        chunks = []
        keys = simulate._replica_keys

        def recording(seed, ids):
            chunks.append(ids.size)
            return keys(seed, ids)

        monkeypatch.setattr(simulate, "_replica_keys", recording)
        monkeypatch.setattr(simulate, "_DRAW_BUDGET", 24)
        monkeypatch.setattr(simulate, "_CHAIN_BLOCK", 8)
        # one CPU: the chunks all run in this process, where they are counted
        _cpus(monkeypatch, 1)

        def check(n, replicas):
            chunks.clear()
            got = _dtmc_sums(P, mu, fv, n, 3, replicas)
            # summed step by step, as the sampler adds
            want = np.array([
                np.cumsum(fv[sample_dtmc(P, mu, n, _reference_rng(3, r))])[-1]
                for r in range(replicas)
            ])
            assert _same_bits(got, want), (n, replicas)
            return list(chunks)

        # n = 1, 2, 3 (mod 4) below and above one, two and three 8-step
        # blocks, in one chunk and in several
        for replicas in (1, 2, 3, 5, 12, 13, 27):
            for n in (1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 17, 26, 27):
                check(n, replicas)
        blocks = {(n, r): simulate._chain_block(n, r) for n, r in
                  ((27, 1), (13, 2), (10, 2), (27, 13), (5, 13), (9, 27))}
        assert blocks == {(27, 1): 16, (13, 2): 8, (10, 2): 10, (27, 13): 8,
                          (5, 13): 5, (9, 27): 8}
        assert check(27, 1) == [1] and check(10, 2) == [2]
        assert check(5, 13) == [4, 4, 4, 1] and check(27, 13) == [3, 3, 3, 3, 1]
        assert check(9, 27) == [3] * 9
        # draw stages narrower than a chunk, and one replica wide
        for tile in (1, 3):
            monkeypatch.setattr(simulate, "_DRAW_TILE", tile)
            check(4, 27)
            check(13, 1)
            check(27, 13)

    @pytest.mark.parametrize("kind", ["chain", "jump"])
    def test_memory_bounded_in_horizon(self, kind):
        # a tenfold horizon leaves the peak within 10%: both samplers size
        # their draw buffers by the budget and the replicas, not the horizon
        replicas = 2000
        if kind == "chain":
            P = zero_absolute_gap_chain()
            fv = np.array([1.0, 0.0, 0.0, -1.0])
            horizons = (500, 5000)

            def run(n):
                _dtmc_sums(P, _uniform(4), fv, n, seed=1, replicas=replicas)
        else:
            # about 10 t jumps a path, in rounds of B = _CHAIN_BLOCK from t = 100 on
            Q = cb.validate_generator([[-10.0, 10.0], [10.0, -10.0]])
            horizons = (100.0, 1000.0)
            assert simulate._ctmc_block_size(Q, horizons[0]) == simulate._CHAIN_BLOCK

            def run(t):
                _ctmc_integrals(Q, _uniform(2), np.array([1.0, -1.0]), t, seed=1,
                                replicas=replicas)
        peaks = []
        for horizon in horizons:
            tracemalloc.start()
            try:
                run(horizon)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks
        if kind == "chain":  # far below holding every draw of the run
            assert peaks[1] < replicas * horizons[1] * 8 / 4

    def test_replica_streams_stable_under_run_size(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        fv = np.array([1.0, 0.0, 0.0, -1.0])
        small = _dtmc_sums(P, mu, fv, 10, seed=7, replicas=50)
        large = _dtmc_sums(P, mu, fv, 10, seed=7, replicas=120)
        assert (small == large[:50]).all()


def _reference_rng(seed, replica):
    # numpy's own derivation, which the vectorised key pass reproduces
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(replica,)))
    )


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """Counter-based generator for one replica, stable across run sizes.

    It draws exactly what ``Philox(SeedSequence(seed, spawn_key=(replica,)))``
    draws. The key comes from the vectorised pass that keys whole runs
    (``_replica_keys``).
    """
    replica = operator.index(replica)
    if not 0 <= replica < 1 << 64:
        raise InvalidQuery(f"replica ids lie in [0, 2**64), got {replica}")
    # a uint64 key: Philox reads a list of Python ints through float64
    key = _replica_keys(seed, np.array([replica], dtype=np.uint64))[0]
    return np.random.Generator(np.random.Philox(key=key))


class TestReplicaKeys:
    SEEDS = (0, 1, 2**31 - 1, 2**32, 2**64 + 3, 2**130 + 9)
    IDS = [*range(300), 2**16, 2**31, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1]

    def test_keys_equal_seed_sequence_state(self):
        ids = np.array(self.IDS, dtype=np.uint64)
        for seed in self.SEEDS:
            keys = _replica_keys(seed, ids)
            assert keys.dtype == np.uint64 and keys.shape == (ids.size, 2)
            for r, key in zip(self.IDS, keys):
                reference = np.random.SeedSequence(entropy=seed, spawn_key=(r,))
                assert (key == reference.generate_state(2, np.uint64)).all(), (seed, r)

    def test_first_draws_equal_reference_streams(self):
        ids = np.array(self.IDS, dtype=np.uint64)
        stream = simulate._Repointed(np.empty((simulate._DRAW_TILE, 1)))
        first = np.empty((1, ids.size))
        for seed in self.SEEDS:
            stream.fill(_replica_keys(seed, ids).tolist(), 0, first)
            for u, r in zip(first[0], self.IDS):
                assert u == _reference_rng(seed, r).random() == replica_rng(seed, r).random()

    def test_out_of_range_ids_and_seeds_rejected(self):
        for seed, replica in ((0, -1), (0, 2**64), (-1, 0)):
            with pytest.raises(errors.InvalidQuery):
                replica_rng(seed, replica)
        assert _replica_keys(0, np.arange(0)).shape == (0, 2)

    def test_runs_build_no_seed_sequence(self, monkeypatch):
        built = []

        class Counting(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", Counting)
        P = zero_absolute_gap_chain()
        _dtmc_sums(P, _uniform(4), np.array([1.0, 0.0, 0.0, -1.0]), 3, seed=2, replicas=1000)
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        _ctmc_integrals(Q, _uniform(2), np.array([1.0, -1.0]), 2.0, seed=2, replicas=1000)
        assert built == []
        assert not isinstance(replica_rng(2, 5).bit_generator.seed_seq, np.random.SeedSequence)

    def test_repointed_generator_continues_replica_streams(self):
        # Philox steps its counter once per four words and random() takes one
        # word per double, so position 4c of a stream is (counter c, key).
        # A 3-row stage for 8 streams fills them in two full tiles and a
        # partial one
        ids = [0, 1, 5, 2**32 - 1, 2**32, 2**40 + 5, 2**63, 2**64 - 1]
        m, k = 6, 7
        stream = simulate._Repointed(np.empty((3, k)))
        steps = np.empty((k, len(ids)))
        for seed in (0, 7, 2**40):
            keys = _replica_keys(seed, np.array(ids, dtype=np.uint64)).tolist()
            references = [replica_rng(seed, r).random(4 * m + k) for r in ids]
            for pos in range(0, 4 * m + 1, 4):
                stream.fill(keys, pos, steps)
                for r, got, reference in zip(ids, steps.T, references):
                    assert (got == reference[pos:pos + k]).all(), (seed, r, pos)
            stream.fill(keys, 2**42, steps)
            for r, got in zip(ids, steps.T):
                far = replica_rng(seed, r)
                far.bit_generator.advance(2**40)  # 2^40 blocks of four words
                assert (got == far.random(k)).all(), (seed, r)

    def test_chain_runs_build_one_generator(self, monkeypatch):
        built = []

        class Counting(np.random.Generator):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Counting)
        P = zero_absolute_gap_chain()
        fv = np.array([1.0, 0.0, 0.0, -1.0])
        # one chunk, several chunks, and several blocks per chunk
        for n, replicas in ((3, 1), (3, 1000), (1000, 5000), (2000, 3)):
            built.clear()
            _dtmc_sums(P, _uniform(4), fv, n, seed=2, replicas=replicas)
            assert len(built) <= 1, (n, replicas)
        # jump paths of about 2,000 jumps: four rounds of B = _CHAIN_BLOCK
        Q = cb.validate_generator([[-10.0, 10.0], [10.0, -10.0]])
        t = 200.0
        assert 10 * t > 3 * simulate._ctmc_block_size(Q, t)
        for replicas in (1, 50):
            built.clear()
            _ctmc_integrals(Q, _uniform(2), np.array([1.0, -1.0]), t, seed=2, replicas=replicas)
            assert len(built) <= 1, replicas


def _reference_ctmc_integrals(Q, init, fv, t, seed, replicas):
    # the masked-loop jump sampler on numpy's own per-replica streams, read
    # in the stream layout: draw 0 picks the initial state and draws 1-3 go
    # unused, then each round takes B holding-time uniforms and B jump uniforms
    block = simulate._ctmc_block_size(Q, t)
    rates = -Q.entries.diagonal()
    cdf = _jump_cdf(Q)
    init_cdf = np.cumsum(init.weights)
    init_cdf[-1] = 1.0
    rngs = [_reference_rng(seed, r) for r in range(replicas)]
    u0 = np.array([rng.random(4)[0] for rng in rngs])
    states = np.minimum(
        np.searchsorted(init_cdf, u0, side="right"), init_cdf.size - 1
    )
    integrals = np.zeros(replicas)
    if block == 0:
        return integrals + fv[states] * t
    remaining = np.full(replicas, t)
    active = np.arange(replicas)
    while active.size:
        holds = np.empty((active.size, block))
        jumps = np.empty((active.size, block))
        for row, r in enumerate(active):
            holds[row] = -np.log1p(-rngs[r].random(block))
            jumps[row] = rngs[r].random(block)
        st = states[active]
        rem = remaining[active]
        acc = np.zeros(active.size)
        alive = np.ones(active.size, dtype=bool)
        for j in range(block):
            rate = rates[st]
            with np.errstate(divide="ignore"):
                hold = np.where(rate > 0, holds[:, j] / np.where(rate > 0, rate, 1.0), np.inf)
            ending = alive & (hold >= rem)
            cont = alive & ~ending
            acc[ending] += fv[st[ending]] * rem[ending]
            alive[ending] = False
            acc[cont] += fv[st[cont]] * hold[cont]
            rem[cont] -= hold[cont]
            if cont.any():
                st[cont] = _reference_pick(cdf, st[cont], jumps[cont, j])
            if not alive.any():
                break
        integrals[active] += acc
        states[active] = st
        remaining[active] = np.where(alive, rem, 0.0)
        active = active[alive]
    return integrals


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestJumpSamplerParity:
    def _check(self, Q, init, fv, t, seed, replicas):
        got = _ctmc_integrals(Q, init, fv, t, seed, replicas)
        assert _same_bits(got, _reference_ctmc_integrals(Q, init, fv, t, seed, replicas))

    def _process(self):
        rng = np.random.default_rng(31)
        rates = rng.uniform(0.1, 3.0, size=(5, 5)) * (rng.random((5, 5)) < 0.7)
        np.fill_diagonal(rates, 0.0)
        rates[np.arange(5), (np.arange(5) + 1) % 5] += 0.5
        Q = cb.validate_generator(rates - np.diag(rates.sum(axis=1)))
        return Q, cb.stationary_distribution(Q), rng.normal(size=5)

    def test_replica_counts_around_the_chunk(self, monkeypatch):
        Q, mu, fv = self._process()
        t = 4.0
        rows = 4 + 2 * simulate._ctmc_block_size(Q, t)
        monkeypatch.setattr(simulate, "_JUMP_BUDGET", 7 * rows + 3)
        chunk = 7
        for replicas in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3, 60):
            self._check(Q, mu, fv, t, 3, replicas)
        # draw stages narrower than a chunk, and one replica wide
        for tile in (1, 3):
            monkeypatch.setattr(simulate, "_DRAW_TILE", tile)
            self._check(Q, mu, fv, t, 3, 2 * chunk + 3)

    def test_absorbing_states(self):
        rows = np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                         [2.0, 1.0, -4.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        Q = cb.validate_generator(rows)
        # validation leaves -0.0 on the absorbing diagonals; a matrix built
        # directly can hold +0.0, a rate of -0.0, and must end paths alike
        plus_zero = cb.GeneratorMatrix(Q.entries + 0.0)
        assert np.signbit(-plus_zero.entries.diagonal()[[1, 3]]).all()
        init = cb.make_distribution([0.4, 0.1, 0.3, 0.2])
        fv = np.array([1.0, -2.0, 0.5, 3.0])
        for t in (0.5, 6.0):
            self._check(Q, init, fv, t, 11, 300)
            self._check(plus_zero, init, fv, t, 11, 300)

    def test_zero_generator_and_tiny_horizon(self):
        Q0 = cb.validate_generator(np.zeros((3, 3)))
        assert simulate._ctmc_block_size(Q0, 5.0) == 0
        self._check(Q0, _uniform(3), np.array([1.0, -0.0, -1.0]), 5.0, 4, 50)
        Q, mu, fv = self._process()
        self._check(Q, mu, fv, 1e-9, 5, 200)
        self._check(Q, mu, fv, 0.05, 5, 200)

    def test_several_draw_rounds(self, monkeypatch):
        # rounds at the cap, B = _CHAIN_BLOCK rounded up to even: paths of
        # about 20 jumps take at least three rounds, each read from its own
        # draw position, in one chunk and in several
        Q, mu, fv = self._process()
        positions, budget = [], simulate._JUMP_BUDGET
        fill = simulate._Repointed.fill

        def recording(stream, keys, position, out):
            positions.append(position)
            fill(stream, keys, position, out)

        monkeypatch.setattr(simulate._Repointed, "fill", recording)
        for cap in (1, 2, 4, 6):
            monkeypatch.setattr(simulate, "_CHAIN_BLOCK", cap)
            block = simulate._ctmc_block_size(Q, 6.0)
            assert block == cap + cap % 2
            positions.clear()
            self._check(Q, mu, fv, 6.0, 9, 150)
            assert sorted(set(positions))[:3] == [0, 4 + 2 * block, 4 + 4 * block]
            monkeypatch.setattr(simulate, "_JUMP_BUDGET", 4 * (4 + 2 * block))
            self._check(Q, mu, fv, 6.0, 9, 41)
            monkeypatch.setattr(simulate, "_JUMP_BUDGET", budget)

    def test_first_ending_on_the_first_step_of_round_one(self, monkeypatch):
        # every state leaves at rate 5, so path r's clock after j steps is its
        # first j holds over 5, whatever it visits. t lies above every clock
        # after a full round of B = _CHAIN_BLOCK steps and at or below the
        # largest clock one step later: no path ends in round 0, and the
        # first ending is on the first step of round 1
        jumps = np.array([[0.0, 0.3, 0.7], [0.5, 0.0, 0.5], [0.9, 0.1, 0.0]])
        Q = cb.validate_generator(5.0 * (jumps - np.eye(3)))
        init, fv = cb.make_distribution([0.2, 0.5, 0.3]), np.array([1.0, -2.0, 0.5])
        seed, replicas, block = 13, 600, simulate._CHAIN_BLOCK
        clocks = []
        for r in range(replicas):
            u = _reference_rng(seed, r).random(4 + 2 * block + 1)
            holds = -np.log1p(-np.append(u[4:4 + block], u[4 + 2 * block])) / 5.0
            clocks.append((holds[:block].sum(), holds.sum()))
        round_zero, one_more = np.array(clocks).T
        t = (round_zero.max() + one_more.max()) / 2
        assert simulate._ctmc_block_size(Q, t) == block
        assert round_zero.max() < t < one_more.max()
        want = _reference_ctmc_integrals(Q, init, fv, t, seed, replicas)
        # budgets of 2^18, 2^21 and 2^22 draws run these replicas in 3, 1 and 1 chunks
        for budget in (1 << 18, 1 << 21, 1 << 22):
            monkeypatch.setattr(simulate, "_JUMP_BUDGET", budget)
            assert _same_bits(_ctmc_integrals(Q, init, fv, t, seed, replicas), want)

    def test_jump_buffer_within_budget(self):
        # 4,000 replicas at B = 512 need 32.9 MB of draws: the budget cuts
        # them into two chunks of 16.4 MB, and the peak stays near one chunk's
        # buffer; on top of it come the 0.5 MB draw stage and one chunk's key
        # list of 0.3 MB
        Q = cb.validate_generator([[-10.0, 10.0], [10.0, -10.0]])
        t, replicas = 100.0, 4_000
        rows = 4 + 2 * simulate._ctmc_block_size(Q, t)
        assert rows == 1028
        tracemalloc.start()
        try:
            _ctmc_integrals(Q, _uniform(2), np.array([1.0, -1.0]), t, seed=1, replicas=replicas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.06 * 8 * (1 << 21), peak

    def test_jump_memory_bounded_in_replicas(self):
        Q = cb.validate_generator([[-10.0, 10.0], [10.0, -10.0]])
        fv = np.array([1.0, -1.0])
        t, replicas = 100.0, 22_000
        rows = 4 + 2 * simulate._ctmc_block_size(Q, t)
        assert replicas * rows > 5 * simulate._JUMP_BUDGET  # six chunks or more
        tracemalloc.start()
        try:
            _ctmc_integrals(Q, _uniform(2), fv, t, seed=1, replicas=replicas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < replicas * rows * 8 / 4


class TestWorkers:
    """Replica ranges in forked workers (``_workers``, ``_chunked``).

    Where BLAS threads are alive (unpinned OpenBLAS on several CPUs) no run
    forks, and these tests check the serial path;
    ``test_worker_tests_in_a_one_thread_interpreter`` runs them again where
    runs fork.
    """

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids that called ``os.fork``, and the number each run should make."""
        if os.environ.get(_MUST_FORK):
            assert _one_thread()
        calls, fork = [], os.fork

        def counting():
            calls.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting)

        def expected(chunks, cpus):
            return min(chunks, cpus) - 1 if _one_thread() else 0

        return calls, expected

    def _chain(self):
        rng = np.random.default_rng(17)
        P = random_transition(rng, 5, sparsify=0.4)
        return P, cb.stationary_distribution(P), rng.normal(size=5)

    def test_worker_rule(self, monkeypatch):
        _cpus(monkeypatch, 3)
        many = 3 if _one_thread() else 1
        assert [simulate._workers(c) for c in (1, 2, 3, 9)] == [1, min(2, many), many, many]
        _cpus(monkeypatch, 1)
        assert simulate._workers(9) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert simulate._workers(9) == 1

    def test_bits_do_not_depend_on_the_workers(self, monkeypatch, forks):
        calls, expected = forks
        P, mu, fv = self._chain()
        Q, muq, fq = TestJumpSamplerParity()._process()
        monkeypatch.setattr(simulate, "_DRAW_BUDGET", 24)
        monkeypatch.setattr(simulate, "_CHAIN_BLOCK", 8)
        t = 4.0
        rows = 4 + 2 * simulate._ctmc_block_size(Q, t)
        monkeypatch.setattr(simulate, "_JUMP_BUDGET", 7 * rows + 3)

        def chain(n, replicas):
            return _dtmc_sums(P, mu, fv, n, 3, replicas)

        def jump(t, replicas):
            return _ctmc_integrals(Q, muq, fq, t, 3, replicas)

        # replica counts just below, at and above one to four chunks, and 60:
        # ranges of one chunk, of several, and of a partial last chunk
        runs = [(chain, 9, 3 * k + d) for k in (1, 2, 3, 4) for d in (-1, 0, 1)]
        runs += [(jump, t, 7 * k + d) for k in (1, 2, 3, 4) for d in (-1, 0, 1)]
        runs += [(chain, 9, 60), (jump, t, 60)]
        # ranges of 10,000 results (80 KB), more than a pipe holds at once
        runs += [(chain, 2, 30_000)]
        widths = {chain: lambda n, r: simulate._DRAW_BUDGET // simulate._chain_block(n, r),
                  jump: lambda t, r: simulate._JUMP_BUDGET // rows}
        for sampler, horizon, replicas in runs:
            if replicas == 30_000:
                monkeypatch.setattr(simulate, "_DRAW_BUDGET", 1 << 14)
            chunks = -(-replicas // widths[sampler](horizon, replicas))
            _cpus(monkeypatch, 1)
            serial = sampler(horizon, replicas)
            _cpus(monkeypatch, 3)
            calls.clear()
            got = sampler(horizon, replicas)
            assert _same_bits(got, serial), (sampler.__name__, horizon, replicas)
            assert calls == [os.getpid()] * expected(chunks, 3), (sampler.__name__, replicas)
            _no_children()
        assert chunks == 4

    def _failing(self, monkeypatch, fails, error):
        def replica_keys(seed, ids):
            if fails(ids):
                raise error
            return _replica_keys(seed, ids)

        monkeypatch.setattr(simulate, "_replica_keys", replica_keys)

    def test_failures_in_a_range(self, monkeypatch, forks):
        # 27 replicas in chunks of 3 over 3 CPUs: ranges [0, 9), [9, 18), [18, 27)
        calls, expected = forks
        P, mu, fv = self._chain()
        monkeypatch.setattr(simulate, "_DRAW_BUDGET", 24)
        monkeypatch.setattr(simulate, "_CHAIN_BLOCK", 8)
        assert simulate._chain_block(9, 27) == 8
        _cpus(monkeypatch, 1)
        serial = _dtmc_sums(P, mu, fv, 9, 3, 27)
        _cpus(monkeypatch, 3)
        here = os.getpid()
        # children that fail alone: their ranges run again here, bit for bit
        self._failing(monkeypatch, lambda ids: os.getpid() != here, MemoryError("child"))
        assert _same_bits(_dtmc_sums(P, mu, fv, 9, 3, 27), serial)
        assert len(calls) == expected(9, 3)
        _no_children()
        # an error in a child's range reaches the caller as the serial run raises it
        self._failing(monkeypatch, lambda ids: ids[0] >= 18, InvalidQuery("range [18, 27)"))
        with pytest.raises(InvalidQuery, match=r"range \[18, 27\)"):
            _dtmc_sums(P, mu, fv, 9, 3, 27)
        _no_children()
        # an error in this process's range: the children, stalled here, are
        # killed rather than waited for
        def fails(ids):
            if os.getpid() != here:
                time.sleep(60)
            return ids[0] == 0

        self._failing(monkeypatch, fails, InvalidQuery("range [0, 9)"))
        calls.clear()
        start = time.monotonic()
        with pytest.raises(InvalidQuery, match=r"range \[0, 9\)"):
            _dtmc_sums(P, mu, fv, 9, 3, 27)
        assert time.monotonic() - start < 30
        assert len(calls) == expected(9, 3)
        _no_children()
        # no process to spare: every range runs here
        monkeypatch.setattr(simulate, "_replica_keys", _replica_keys)

        def refusing():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refusing)
        assert _same_bits(_dtmc_sums(P, mu, fv, 9, 3, 27), serial)
        _no_children()

    def test_memory_error_in_a_child_range_exits_two(self, monkeypatch, tmp_path, capsys, forks):
        calls, expected = forks
        P, _, fv = self._chain()
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"labels": list("abcde"), "P": P.entries.tolist(),
                                    "f": fv.tolist()}))
        monkeypatch.setattr(simulate, "_DRAW_BUDGET", 24)
        monkeypatch.setattr(simulate, "_CHAIN_BLOCK", 8)
        _cpus(monkeypatch, 3)
        self._failing(monkeypatch, lambda ids: ids[0] >= 18, MemoryError("no room past 18"))
        rc = cli.main(["verify", str(path), "--n", "9", "--delta-grid", "0.1",
                          "--replicas", "27", "--seed", "3"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"error": "MemoryError", "message": "no room past 18"}
        assert len(calls) == expected(9, 3)
        _no_children()

    def test_no_fork_beside_a_live_thread(self, monkeypatch):
        P, mu, fv = self._chain()
        monkeypatch.setattr(simulate, "_DRAW_BUDGET", 24)
        monkeypatch.setattr(simulate, "_CHAIN_BLOCK", 8)
        _cpus(monkeypatch, 1)
        serial = _dtmc_sums(P, mu, fv, 9, 3, 27)

        def no_fork():
            raise AssertionError("forked beside a live thread")

        monkeypatch.setattr(os, "fork", no_fork)
        _cpus(monkeypatch, 3)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            got = _dtmc_sums(P, mu, fv, 9, 3, 27)
        finally:
            release.set()
            thread.join()
        assert _same_bits(got, serial)

    def test_chunk_boundary_within_the_chunk_peak(self, monkeypatch):
        # the run of test_jump_buffer_within_budget, in this process alone: two
        # chunks of 2,000 replicas. Between the chunks' runs, where the first
        # chunk's key list is freed and the second's built, the traced memory
        # stays within its peak inside a run
        _cpus(monkeypatch, 1)
        Q = cb.validate_generator([[-10.0, 10.0], [10.0, -10.0]])
        chunked, between, inside = simulate._chunked, [], []

        def peak(into):
            into.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

        def recording(seed, replicas, block, budget, run):
            def traced(*args):
                peak(between)
                result = run(*args)
                peak(inside)
                return result

            return chunked(seed, replicas, block, budget, traced)

        monkeypatch.setattr(simulate, "_chunked", recording)
        tracemalloc.start()
        try:
            _ctmc_integrals(Q, _uniform(2), np.array([1.0, -1.0]), 100.0, seed=1, replicas=4_000)
        finally:
            tracemalloc.stop()
        assert len(inside) == 2
        assert between[1] <= min(inside), (between, inside)


def test_worker_tests_in_a_one_thread_interpreter(tmp_path):
    # BLAS pinned to one thread, as the benchmark pins it: every run of
    # TestWorkers with two chunks or more forks there
    src = str(Path(cb.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env[_MUST_FORK] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::TestWorkers"],
        env=env, cwd=tmp_path, timeout=300, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _reference_pick(cdf, states, u):
    # the O(states) compare-and-sum pick that the guide table replaced
    idx = (cdf[states] <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cdf.shape[1] - 1)


@st.composite
def sparse_stochastic_matrices(draw):
    n = draw(st.integers(1, 64))
    weights = draw(hnp.arrays(float, (n, n), elements=st.sampled_from(
        [0.0, 0.0, 0.0, 1e-300, 1e-17, 1e-9, 0.1, 0.3, 1.0, 7.0]
    )))
    weights[np.arange(n), draw(hnp.arrays(np.intp, n, elements=st.integers(0, n - 1)))] += 1.0
    return weights / weights.sum(axis=1)[:, None]


class TestPick:
    def _check(self, cdf, states, u):
        got = _pick_rows(_pick_table(cdf), states, u)
        assert (got == _reference_pick(cdf, states, u)).all()

    def _check_all_rows(self, cdf, rng):
        rows = cdf.shape[0]
        states = np.repeat(np.arange(rows), 200)
        self._check(cdf, states, rng.random(states.size))
        # ties: u equal to each entry below 1, and u = 0
        ties = [(i, v) for i in range(rows) for v in cdf[i] if v < 1.0]
        ties += [(i, 0.0) for i in range(rows)]
        self._check(
            cdf, np.array([i for i, _ in ties]), np.array([v for _, v in ties])
        )
        self._check_edges(cdf)

    def _check_edges(self, cdf):
        # u at every bucket edge b/K, just below every edge and each entry of
        # the row, at 0 and at 1 - 2^-53
        buckets = _pick_table(cdf).buckets
        edges = np.arange(buckets) / buckets
        edges = np.concatenate([edges, np.nextafter(edges[1:], 0.0), [np.nextafter(1.0, 0.0)]])
        states, u = [], []
        for i, row in enumerate(np.minimum(cdf, 1.0)):
            row_u = np.concatenate([edges, np.nextafter(row[row > 0.0], 0.0), row[row < 1.0]])
            states.append(np.full(row_u.size, i))
            u.append(row_u)
        self._check(cdf, np.concatenate(states), np.concatenate(u))

    def test_random_sizes_with_zero_columns(self):
        rng = np.random.default_rng(21)
        for size in (1, 2, 3, 5, 7, 8, 9, 16, 33):
            m = rng.random((size, size)) * (rng.random((size, size)) < 0.6)
            m[np.arange(size), rng.integers(size, size=size)] += 0.1
            m /= m.sum(axis=1)[:, None]
            self._check_all_rows(_cdf_rows(m), rng)

    def test_single_state(self):
        cdf = _cdf_rows(np.ones((1, 1)))
        self._check(cdf, np.zeros(50, dtype=np.int64), np.random.default_rng(0).random(50))

    def test_cumsum_above_one_before_trailing_zeros(self):
        w = [0.06608543566714709, 0.15129268322537182,
             0.34649597022454254, 0.43612591088293867]
        m = np.array([w + [0.0, 0.0], [0.0, 0.0] + w, [0.0] + w + [0.0]])
        cdf = _cdf_rows(m)
        assert cdf[0, 3] > 1.0 and cdf[0, -1] == 1.0
        self._check_all_rows(cdf, np.random.default_rng(1))
        u = np.nextafter(1.0, 0.0)
        self._check(cdf, np.arange(3), np.full(3, u))

    def test_absorbing_self_loop_rows(self):
        Q = cb.validate_generator(
            [[-1, 1, 0, 0, 0], [0, 0, 0, 0, 0], [2, 1, -4, 1, 0],
             [0, 0, 0, 0, 0], [0, 0, 0, 3, -3]]
        )
        cdf = _jump_cdf(Q)
        assert cdf[1].tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]
        self._check_all_rows(cdf, np.random.default_rng(2))

    def test_steps_finer_than_the_buckets(self):
        # 200 steps inside one bucket of a one-row table at the cap, and 64
        # dense rows whose 2^15 guide entries still leave crowded buckets
        row = np.full(202, 1e-12)
        row[0], row[-1] = 0.5, 0.5 - 200e-12
        clustered = _cdf_rows(row[None, :])
        table = _pick_table(clustered)
        assert table.buckets == simulate._GUIDE_CAP and table.levels == 8
        self._check_all_rows(clustered, np.random.default_rng(3))
        u = 0.5 + np.arange(-2, 205) * 1e-12
        self._check(clustered, np.zeros(u.size, dtype=np.intp), u)
        dense = _cdf_rows(random_transition(np.random.default_rng(4), 64).entries)
        table = _pick_table(dense)
        assert table.guide.size == simulate._GUIDE_CAP and table.levels > 1
        self._check_all_rows(dense, np.random.default_rng(5))

    def test_all_mass_on_one_state(self):
        for size, target in ((1, 0), (3, 0), (5, 2), (6, 5), (9, 8)):
            row = np.zeros(size)
            row[target] = 1.0
            cdf = _cdf_rows(np.vstack([row, np.full(size, 1.0 / size)]))
            table = _pick_table(cdf)
            assert table.levels <= 1
            self._check_all_rows(cdf, np.random.default_rng(size))
            u = np.random.default_rng(6).random(100)
            assert (_pick_rows(table, np.zeros(100, dtype=np.intp), u) == target).all()

    def test_sparse_rows_with_long_flat_runs(self):
        rng = np.random.default_rng(7)
        m = np.zeros((40, 300))
        for i in range(40):
            m[i, rng.choice(300, size=rng.integers(1, 5), replace=False)] = rng.random()
            m[i] /= m[i].sum()
        cdf = _cdf_rows(m)
        table = _pick_table(cdf)
        # the table keeps steps, not columns, so flat runs add no level
        assert table.values.size < 40 * 10 and table.levels == 1
        self._check_all_rows(cdf, rng)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(sparse_stochastic_matrices())
    def test_matches_full_scan(self, m):
        cdf = _cdf_rows(m)
        self._check_edges(cdf)
        u = np.random.default_rng(m.shape[0]).random(50 * m.shape[0])
        self._check(cdf, np.arange(u.size) % m.shape[0], u)

    def test_rows_read_in_blocks(self, monkeypatch):
        # the table does not depend on how many rows each build pass reads
        rng = np.random.default_rng(9)
        cdfs = [
            _cdf_rows(random_transition(rng, 40, sparsify=0.7).entries),
            _cdf_rows(random_transition(rng, 64).entries),  # padded rows
        ]
        whole = [_pick_table(cdf) for cdf in cdfs]
        assert whole[1].levels > 1
        for block in (1, 39, 100, 4096):
            monkeypatch.setattr(simulate, "_BUILD_BLOCK", block)
            for cdf, expected in zip(cdfs, whole):
                got = _pick_table(cdf)
                assert (got.buckets, got.levels) == (expected.buckets, expected.levels)
                for name in ("guide", "values", "columns"):
                    assert np.array_equal(getattr(got, name), getattr(expected, name))

    def test_guide_bounded_on_a_dense_chain(self):
        rng = np.random.default_rng(8)
        cdf = _cdf_rows(random_transition(rng, 2000).entries)
        tracemalloc.start()
        try:
            table = _pick_table(cdf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the build reads the rows in blocks, so it holds little beyond the table
        assert peak < 1.5 * sum(a.nbytes for a in (table.guide, table.values, table.columns))
        assert table.guide.size <= simulate._GUIDE_CAP
        assert table.guide.dtype == table.columns.dtype == np.intp
        # never deeper than a bisection over the row
        assert table.levels <= (cdf.shape[1] - 1).bit_length()
        states = rng.integers(2000, size=5000)
        self._check(cdf, states, rng.random(states.size))


class TestClopperPearson:
    def test_boundary_closed_forms(self):
        low, high = cb.clopper_pearson(0, 100, 0.05)
        assert low == 0.0
        assert high == pytest.approx(1 - 0.025 ** (1 / 100), rel=1e-12)
        low, high = cb.clopper_pearson(100, 100, 0.05)
        assert high == 1.0
        assert low == pytest.approx(0.025 ** (1 / 100), rel=1e-12)

    def test_reference_value(self):
        low, high = cb.clopper_pearson(5, 100, 0.05)
        assert low == pytest.approx(0.0164, abs=1e-3)
        assert high == pytest.approx(0.1128, abs=1e-3)

    def test_matches_scipy_stats_beta_quantiles(self):
        from scipy.stats import beta

        def reference(successes, trials, alpha):
            half = alpha / 2.0
            low = 0.0 if successes == 0 else float(
                beta.ppf(half, successes, trials - successes + 1))
            high = 1.0 if successes == trials else float(
                beta.ppf(1.0 - half, successes + 1, trials - successes))
            if successes == 0:
                high = 1.0 - half ** (1.0 / trials)
            if successes == trials:
                low = half ** (1.0 / trials)
            return low, high

        cells = 0
        for trials in np.unique(np.logspace(0, 5, 40).astype(int)).tolist():
            for successes in {0, 1, 2, trials // 3, trials // 2, trials - 1, trials}:
                if not 0 <= successes <= trials:
                    continue
                for alpha in (0.01, 0.05, 0.1, 0.3):
                    got = cb.clopper_pearson(successes, trials, alpha)
                    assert got == reference(successes, trials, alpha)
                    cells += 1
        assert cells > 500

    def test_cli_import_skips_scipy_stats(self):
        src = str(Path(cb.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, chainbounds.cli; sys.exit('scipy.stats' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert done.returncode == 0

    def test_invalid_counts(self):
        # counts are integers (a bool is none), alpha lies in the open (0, 1)
        for successes, trials, alpha, message in [
            (5, 4, 0.05, r"successes must be an integer in \[0, 4\]$"),
            (-1, 4, 0.05, r"successes must be an integer in \[0, 4\]$"),
            (1.5, 10, 0.05, r"successes must be an integer in \[0, 10\], got 1.5$"),
            (True, 10, 0.05, r"successes must be an integer in \[0, 10\], got True$"),
            (0, 0, 0.05, r"trials must be an integer in \[1, inf\]$"),
            (1, 4, 1.5, r"alpha must be a real number in \(0, 1\)$"),
            (1, 4, 0.0, r"alpha must be a real number in \(0, 1\)$"),
        ]:
            with pytest.raises(errors.InvalidQuery, match="^" + message):
                cb.clopper_pearson(successes, trials, alpha)


class TestEmpiricalTail:
    def test_delta_zero_certain(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        cfg = cb.SimConfig(replicas=200, seed=0, init=mu, n=10)
        (rep,) = cb.empirical_tail(cfg, P, f, [0.0])
        assert rep.estimate == 1.0
        assert rep.ci_high == 1.0

    def test_delta_above_sup_impossible(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        cfg = cb.SimConfig(replicas=100, seed=0, init=mu, n=10)
        (rep,) = cb.empirical_tail(cfg, P, f, [1.5])
        assert rep.estimate == 0.0
        assert rep.ci_low == 0.0
        assert rep.ci_high == pytest.approx(1 - 0.025 ** (1 / 100), rel=1e-12)

    def test_deterministic_reports(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        cfg = cb.SimConfig(replicas=500, seed=42, init=mu, n=25)
        assert cb.empirical_tail(cfg, P, f, [0.2]) == cb.empirical_tail(cfg, P, f, [0.2])

    @pytest.mark.parametrize("kind", ["discrete", "continuous"])
    def test_grid_equals_one_delta_calls(self, kind):
        # one simulation thresholded at each delta gives the single-delta reports
        rng = np.random.default_rng(31)
        if kind == "discrete":
            op = random_transition(rng, 4)
            horizon = {"n": 40}
        else:
            op = random_generator(rng, 4)
            horizon = {"t": 8.0}
        mu = cb.stationary_distribution(op)
        f = cb.make_observable(rng.normal(size=4), mu)
        eta = cb.ip_gap(op, mu)
        deltas = [0.05 * f.M, 0.2 * f.M, 0.5 * f.M]
        bounds = [
            cb.tail_bound(cb.BoundQuery(mode=kind, delta=delta, M=f.M, sigma2=f.sigma2,
                                        eta_p=eta, **horizon))
            for delta in deltas
        ]
        cfg = cb.SimConfig(replicas=300, seed=5, init=mu, **horizon)
        grid = cb.empirical_tail(cfg, op, f, deltas, bounds)
        singles = [
            cb.empirical_tail(cfg, op, f, [delta], [bound])[0]
            for delta, bound in zip(deltas, bounds)
        ]
        assert len(grid) == 3
        for whole, single in zip(grid, singles):
            for field in dataclasses.fields(whole):
                assert getattr(whole, field.name) == getattr(single, field.name), field.name

    @pytest.mark.parametrize("delta", [math.nan, -0.1])
    def test_invalid_delta_refused_before_simulating(self, delta, monkeypatch):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        monkeypatch.setattr(simulate, "_dtmc_sums", None)  # any simulation would fail
        cfg = cb.SimConfig(replicas=10, seed=0, init=mu, n=5)
        with pytest.raises(errors.InvalidQuery,
                           match=r"^delta must be a real number in \[0, inf\]$"):
            cb.empirical_tail(cfg, P, f, [0.1, delta])

    def test_one_bound_per_delta(self, monkeypatch):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        bound = cb.tail_bound(
            cb.BoundQuery(mode="discrete", n=5, delta=0.1, M=1.0, sigma2=0.5, eta_p=0.6)
        )
        monkeypatch.setattr(simulate, "_dtmc_sums", None)  # any simulation would fail
        cfg = cb.SimConfig(replicas=10, seed=0, init=mu, n=5)
        with pytest.raises(errors.InvalidQuery, match="one BoundResult per delta"):
            cb.empirical_tail(cfg, P, f, [0.1, 0.2], [bound])

    def test_bound_comparison_consistency(self):
        rng = np.random.default_rng(50)
        P = random_transition(rng, 4)
        mu = cb.stationary_distribution(P)
        f = cb.make_observable(rng.normal(size=4), mu)
        eta = cb.ip_gap(P, mu)
        query = cb.BoundQuery(
            mode="discrete", n=60, delta=0.3 * f.M, M=f.M, sigma2=f.sigma2, eta_p=eta
        )
        bound = cb.tail_bound(query)
        cfg = cb.SimConfig(replicas=3000, seed=11, init=mu, n=60)
        (rep,) = cb.empirical_tail(cfg, P, f, [query.delta], [bound])
        assert rep.consistent is True
        assert rep.bound_compared is bound

    def test_reducible_generator_refused_with_bound(self):
        Q = cb.validate_generator(np.zeros((2, 2)))
        mu = _uniform(2)
        f = cb.make_observable([1.0, -1.0], mu)
        bound = cb.tail_bound(
            cb.BoundQuery(mode="continuous", t=5.0, delta=0.1, M=1.0, sigma2=0.5, eta_p=1.0)
        )
        cfg = cb.SimConfig(replicas=10, seed=0, init=mu, t=5.0)
        with pytest.raises(errors.NotIrreducible):
            cb.empirical_tail(cfg, Q, f, [0.1], [bound])
        # without a bound the sampler itself is fine
        (rep,) = cb.empirical_tail(cfg, Q, f, [0.1])
        assert rep.consistent is None

    def test_agreement_with_exact_tail(self):
        # CP interval covers the exact probability for nearly all seeds
        rng = np.random.default_rng(77)
        P = random_transition(rng, 3)
        mu = cb.stationary_distribution(P)
        f = cb.make_observable([0.5, -0.25, 0.0], mu)
        n, delta = 8, 0.15
        exact = cb.exact_tail_discrete(P, mu, f, n, delta)
        covered = 0
        for seed in range(20):
            cfg = cb.SimConfig(replicas=400, seed=seed, init=mu, n=n)
            (rep,) = cb.empirical_tail(cfg, P, f, [delta])
            covered += rep.ci_low <= exact <= rep.ci_high
        assert covered >= 17


class TestEmpiricalMgf:
    def test_theta_zero_exact_one(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        cfg = cb.SimConfig(replicas=50, seed=0, init=mu, n=10)
        rep = cb.empirical_mgf(cfg, P, f, 0.0)
        assert rep.estimate == 1.0
        assert rep.ci_low == rep.ci_high == 1.0
        assert not rep.heavy_tail

    def test_flip_chain_deterministic_samples(self):
        P = cb.validate_transition_matrix([[0, 1], [1, 0]])
        mu = _uniform(2)
        f = cb.make_observable([1.0, -1.0], mu)
        cfg = cb.SimConfig(replicas=64, seed=3, init=mu, n=2)
        rep = cb.empirical_mgf(cfg, P, f, 0.8)
        assert rep.estimate == pytest.approx(1.0, rel=1e-14)
        assert rep.ci_high - rep.ci_low <= 1e-14

    def test_covers_exact_mgf(self):
        rng = np.random.default_rng(90)
        P = random_transition(rng, 3)
        mu = cb.stationary_distribution(P)
        f = cb.make_observable(rng.normal(size=3), mu)
        theta, n = 0.3, 10
        exact = cb.exact_mgf(P, mu, f, theta, n)
        cfg = cb.SimConfig(replicas=20_000, seed=8, init=mu, n=n)
        rep = cb.empirical_mgf(cfg, P, f, theta, bound=None)
        assert rep.ci_low <= exact <= rep.ci_high

    @pytest.mark.parametrize("case", ["two-state", "spread-rates", "three-rounds"])
    def test_ctmc_mgf_covers_exact(self, case):
        # a slow two-state process; a stiff 20-state generator with exit
        # rates from 1 to 1000; paths of about 1,200 jumps, which take three
        # rounds of B = _CHAIN_BLOCK
        rng = np.random.default_rng(41)
        theta, replicas = 0.3, 4000
        if case == "two-state":
            Q, t, replicas = cb.validate_generator([[-1, 1], [1, -1]]), 2.0, 20_000
            values = [1.0, -1.0]
        elif case == "spread-rates":
            exits = 10.0 ** rng.uniform(0.0, 3.0, size=20)
            exits[:2] = 1.0, 1000.0
            weights = rng.random((20, 20))
            np.fill_diagonal(weights, 0.0)
            rows = exits[:, None] * weights / weights.sum(axis=1)[:, None]
            Q, t = cb.validate_generator(rows - np.diag(rows.sum(axis=1))), 5.0
            values = rng.normal(size=20)
        else:
            Q, t = cb.validate_generator([[-10.0, 10.0], [10.0, -10.0]]), 120.0
            assert 10 * t > 2 * simulate._ctmc_block_size(Q, t)
            values = [1.0, -1.0]
        mu = cb.stationary_distribution(Q)
        f = cb.make_observable(values, mu)
        exact = cb.exact_mgf(Q, mu, f, theta, t)
        cfg = cb.SimConfig(replicas=replicas, seed=9, init=mu, t=t)
        rep = cb.empirical_mgf(cfg, Q, f, theta)
        assert rep.ci_low <= exact <= rep.ci_high

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_refused_before_simulating(self, theta, monkeypatch):
        def unreachable(*args):
            raise AssertionError("simulated a query it should refuse")

        monkeypatch.setattr(simulate, "_path_functionals", unreachable)
        P = cb.validate_transition_matrix([[0.9, 0.1], [0.2, 0.8]])
        mu = cb.stationary_distribution(P)
        cfg = cb.SimConfig(replicas=10, seed=0, init=mu, n=5)
        with pytest.raises(errors.InvalidQuery,
                           match=r"^theta must be a real number in \[-max float, max float\]$"):
            cb.empirical_mgf(cfg, P, cb.make_observable([1.0, -1.0], mu), theta)

    def test_heavy_tail_flagged(self):
        # rare state carries an enormous weight: a handful of samples
        # dominate the mean and the normal CI is not trustworthy
        P = cb.validate_transition_matrix([[0.99, 0.01], [0.99, 0.01]])
        mu = cb.stationary_distribution(P)
        f = cb.make_observable([0.0, 30.0], mu)
        cfg = cb.SimConfig(replicas=400, seed=12, init=mu, n=1)
        rep = cb.empirical_mgf(cfg, P, f, 1.0)
        assert rep.heavy_tail

    def test_report_roundtrip(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        bound = cb.tail_bound(
            cb.BoundQuery(mode="discrete", n=10, delta=0.2, M=1.0, sigma2=0.5, eta_p=0.6)
        )
        cfg = cb.SimConfig(replicas=100, seed=1, init=mu, n=10)
        (rep,) = cb.empirical_tail(cfg, P, f, [0.2], [bound])
        blob = json.dumps(dataclasses.asdict(rep))
        assert json.loads(blob) == dataclasses.asdict(rep)

    def test_config_validation(self):
        mu = _uniform(2)
        with pytest.raises(errors.InvalidQuery):
            cb.SimConfig(replicas=0, seed=0, init=mu, n=5)
        with pytest.raises(errors.InvalidQuery):
            cb.SimConfig(replicas=5, seed=0, init=mu)
        with pytest.raises(errors.InvalidQuery):
            cb.SimConfig(replicas=5, seed=0, init=mu, n=5, t=1.0)
        with pytest.raises(errors.InvalidQuery):
            cb.SimConfig(replicas=5, seed=0, init=mu, n=5, alpha=1.2)
        for t in (math.nan, math.inf):
            with pytest.raises(errors.InvalidQuery,
                               match=r"^horizon t must be a real number in \[0, max float\]$"):
                cb.SimConfig(replicas=5, seed=0, init=mu, t=t)
        # a horizon or alpha that is not a number fails typed, not with TypeError
        for horizon in ({"t": "1"}, {"t": 1j}, {"n": "5"}):
            with pytest.raises(errors.InvalidQuery, match="must be a"):
                cb.SimConfig(replicas=5, seed=0, init=mu, **horizon)
        for alpha in ("0.1", None, True, 1j, math.nan, 0.0, 1.0):
            with pytest.raises(errors.InvalidQuery,
                               match=r"^alpha must be a real number in \(0, 1\)"):
                cb.SimConfig(replicas=5, seed=0, init=mu, n=5, alpha=alpha)
        with pytest.raises(errors.InvalidQuery, match="^horizon t must be positive$"):
            cb.SimConfig(replicas=5, seed=0, init=mu, t=0.0)
        # counts must be integers, numpy's included and bools not, and fail typed otherwise
        for name, value in (("replicas", 10.5), ("seed", 1.5), ("n", 5.5), ("seed", None),
                            ("replicas", "10"), ("n", np.float64(5.0)), ("replicas", True),
                            ("seed", True), ("n", True), ("seed", False)):
            counts = {"replicas": 10, "seed": 1, "n": 5, name: value}
            label = "horizon n" if name == "n" else name
            with pytest.raises(errors.InvalidQuery,
                               match=f"^{label} must be an integer in .*, got "):
                cb.SimConfig(init=mu, **counts)
        config = cb.SimConfig(replicas=np.int64(3), seed=np.uint32(2), init=mu, n=np.int32(5))
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        report, = cb.empirical_tail(config, P, cb.make_observable([1.0, -1.0], mu), [0.5])
        assert report.replicas_used == 3


class TestPathQuestionStates:
    """f and the start law need one entry per state, checked as for the exact oracles."""

    P = cb.validate_transition_matrix([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
    Q = cb.validate_generator([[-1.0, 0.5, 0.5], [0.2, -0.4, 0.2], [1.0, 1.0, -2.0]])

    def _estimate(self, estimator, op, f, init):
        horizon = {"n": 4} if isinstance(op, TransitionMatrix) else {"t": 1.5}
        config = cb.SimConfig(replicas=50, seed=1, init=init, **horizon)
        if estimator == "tail":
            return cb.empirical_tail(config, op, f, [0.1])[0]
        return cb.empirical_mgf(config, op, f, 0.2)

    @pytest.mark.parametrize("estimator", ["tail", "mgf"])
    @pytest.mark.parametrize("time_scale", ["chain", "jump"])
    @pytest.mark.parametrize("states", [2, 4])
    def test_wrong_sized_f_or_start_law_refused(self, estimator, time_scale, states):
        # unchecked, the samplers ignored f's extra values and answered for a
        # short start law, or raised a bare IndexError for a short f or a long
        # start law
        op = self.P if time_scale == "chain" else self.Q
        mu, other = _uniform(3), _uniform(states)
        f = cb.make_observable([1.0, -1.0, 0.5], mu)
        wrong_f = cb.make_observable(np.linspace(-1.0, 1.0, states), other)
        with pytest.raises(errors.DimensionMismatch,
                           match="^observable values do not match the state space$"):
            self._estimate(estimator, op, wrong_f, mu)
        with pytest.raises(errors.DimensionMismatch,
                           match="^init distribution does not match the chain$"):
            self._estimate(estimator, op, f, other)

    @pytest.mark.parametrize("estimator", ["tail", "mgf"])
    def test_raw_matrix_refused_typed(self, estimator):
        # not an AttributeError from reading its state count
        mu, rows = _uniform(3), self.P.entries.tolist()
        f = cb.make_observable([1, 0, -1], mu)
        with pytest.raises(errors.DimensionMismatch,
                           match="^path questions need a chain operator, not list$"):
            self._estimate(estimator, rows, f, mu)
        with pytest.raises(errors.DimensionMismatch, match="not list$"):
            cb.exact_mgf(rows, mu, f, 0.2, 4)

    @pytest.mark.parametrize("scale", [1e6, 1e8, 1e10])
    def test_large_observable_simulates(self, scale):
        # a centred f of any size simulates: a fixed centring tolerance of
        # 1e-10 refused f past about 1e6, whose rounding residue outgrew it
        mu = cb.stationary_distribution(self.P)
        f = cb.make_observable(scale * np.array([0.3, -0.7, 0.1]), mu)
        config = cb.SimConfig(replicas=100, seed=1, init=mu, n=50)
        (tail,) = cb.empirical_tail(config, self.P, f, [0.1 * scale])
        assert 0.0 <= tail.estimate <= 1.0
        assert cb.empirical_mgf(config, self.P, f, 1e-3 / scale).estimate > 0

    @pytest.mark.parametrize("time_scale", ["chain", "jump"])
    def test_plain_vector_samples_as_observable(self, time_scale):
        # the samplers read f as the oracles do: the values of an Observable,
        # or a plain vector of reals, give the same per-replica bits
        op = self.P if time_scale == "chain" else self.Q
        mu = cb.stationary_distribution(op)
        f = cb.make_observable([2.0, -1.0, 0.5], mu)
        horizon = {"n": 40} if time_scale == "chain" else {"t": 6.0}
        config = cb.SimConfig(replicas=300, seed=7, init=mu, **horizon)
        want = simulate._path_functionals(config, op, f)
        for plain in (f.values, f.values.tolist()):
            got = simulate._path_functionals(config, op, plain)
            assert got.tobytes() == want.tobytes()
        assert cb.empirical_mgf(config, op, f.values.tolist(), 0.3) == cb.empirical_mgf(
            config, op, f, 0.3)
