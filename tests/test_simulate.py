import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chainbounds as cb
from chainbounds import errors
from chainbounds.examples import zero_absolute_gap_chain
from chainbounds.simulate import (
    _cdf_rows,
    _ctmc_integrals,
    _draw_block,
    _dtmc_sums,
    _jump_cdf,
    _pick_rows,
    _pick_table,
    replica_rng,
)
from conftest import random_transition


def _uniform(n):
    return cb.make_distribution(np.full(n, 1.0 / n))


class TestSamplers:
    def test_identity_chain_constant_path(self):
        P = cb.validate_transition_matrix(np.eye(3))
        init = cb.make_distribution([0, 1, 0])
        path = cb.sample_dtmc(P, init, 5, replica_rng(0, 0))
        assert (path == 1).all()

    def test_flip_chain_alternates(self):
        P = cb.validate_transition_matrix([[0, 1], [1, 0]])
        init = cb.make_distribution([1.0, 0.0])
        path = cb.sample_dtmc(P, init, 6, replica_rng(0, 0))
        assert (path == np.array([0, 1, 0, 1, 0, 1])).all()

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
        Q = cb.validate_generator(np.zeros((2, 2)))
        segs = cb.sample_ctmc(Q, _uniform(2), 7.5, replica_rng(1, 0))
        assert len(segs) == 1 and segs[0][1] == 7.5

    def test_ctmc_durations_sum_to_horizon(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        for r in range(5):
            segs = cb.sample_ctmc(Q, mu, 13.0, replica_rng(2, r))
            assert sum(d for _, d in segs) == pytest.approx(13.0, abs=1e-9)
            assert all(d >= 0 for _, d in segs)

    def test_ctmc_occupation_fraction(self):
        # long-run fraction of time in state 0 should approach 2/3
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        segs = cb.sample_ctmc(Q, mu, 10_000.0, replica_rng(3, 0))
        time0 = sum(d for s, d in segs if s == 0)
        frac = time0 / 10_000.0
        # asymptotic variance heuristic: 3 sigma with sigma ~ sqrt(var/t)
        assert abs(frac - 2 / 3) <= 0.02

    def test_ctmc_mean_holding_time(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        segs = cb.sample_ctmc(Q, mu, 10_000.0, replica_rng(4, 0))
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
            path = cb.sample_dtmc(P, mu, 30, replica_rng(5, r))
            assert fv[path].sum() == sums[r]
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        muq = cb.stationary_distribution(Q)
        fq = np.array([1.0, -1.0])
        ints = _ctmc_integrals(Q, muq, fq, 20.0, seed=6, replicas=12)
        for r in range(12):
            segs = cb.sample_ctmc(Q, muq, 20.0, replica_rng(6, r))
            manual = sum(fq[s] * d for s, d in segs)
            assert manual == pytest.approx(ints[r], abs=1e-12)
        # horizons on both sides of the draw-block boundaries
        replicas = 4096
        block = _draw_block(replicas)
        assert block > 2
        for n in (1, block - 1, block, block + 1, 2 * block + 3):
            sums = _dtmc_sums(P, mu, fv, n, seed=8, replicas=replicas)
            for r in (0, 1, replicas // 2, replicas - 1):
                path = cb.sample_dtmc(P, mu, n, replica_rng(8, r))
                assert fv[path].sum() == sums[r]

    def test_dtmc_memory_bounded_in_horizon(self):
        P = zero_absolute_gap_chain()
        fv = np.array([1.0, 0.0, 0.0, -1.0])
        replicas, n = 2000, 5000
        tracemalloc.start()
        try:
            _dtmc_sums(P, _uniform(4), fv, n, seed=1, replicas=replicas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < replicas * n * 8 / 4

    def test_replica_streams_stable_under_run_size(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        fv = np.array([1.0, 0.0, 0.0, -1.0])
        small = _dtmc_sums(P, mu, fv, 10, seed=7, replicas=50)
        large = _dtmc_sums(P, mu, fv, 10, seed=7, replicas=120)
        assert (small == large[:50]).all()


def _reference_pick(cdf, states, u):
    # the O(states) compare-and-sum pick that the bisection replaced
    idx = (cdf[states] <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cdf.shape[1] - 1)


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
        with pytest.raises(errors.InvalidCounts):
            cb.clopper_pearson(5, 4, 0.05)
        with pytest.raises(errors.InvalidCounts):
            cb.clopper_pearson(-1, 4, 0.05)
        with pytest.raises(errors.InvalidCounts):
            cb.clopper_pearson(0, 0, 0.05)
        with pytest.raises(errors.InvalidCounts):
            cb.clopper_pearson(1, 4, 1.5)


class TestEmpiricalTail:
    def test_delta_zero_certain(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        cfg = cb.SimConfig(replicas=200, seed=0, init=mu, n=10, delta=0.0)
        rep = cb.empirical_tail(cfg, P, f)
        assert rep.estimate == 1.0
        assert rep.ci_high == 1.0

    def test_delta_above_sup_impossible(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        cfg = cb.SimConfig(replicas=100, seed=0, init=mu, n=10, delta=1.5)
        rep = cb.empirical_tail(cfg, P, f)
        assert rep.estimate == 0.0
        assert rep.ci_low == 0.0
        assert rep.ci_high == pytest.approx(1 - 0.025 ** (1 / 100), rel=1e-12)

    def test_deterministic_reports(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        cfg = cb.SimConfig(replicas=500, seed=42, init=mu, n=25, delta=0.2)
        assert cb.empirical_tail(cfg, P, f) == cb.empirical_tail(cfg, P, f)

    def test_bound_comparison_consistency(self):
        rng = np.random.default_rng(50)
        P = random_transition(rng, 4)
        mu = cb.stationary_distribution(P)
        f = cb.make_observable(rng.normal(size=4), mu)
        eta = cb.ip_gap(P, mu)
        query = cb.BoundQuery(
            mode="discrete", n=60, delta=0.3 * f.M, M=f.M, sigma2=f.sigma2, eta_p=eta
        )
        bound = cb.tail_bound_discrete(query)
        cfg = cb.SimConfig(replicas=3000, seed=11, init=mu, n=60, delta=query.delta)
        rep = cb.empirical_tail(cfg, P, f, bound=bound)
        assert rep.consistent is True
        assert rep.bound_compared is bound

    def test_reducible_generator_refused_with_bound(self):
        Q = cb.validate_generator(np.zeros((2, 2)))
        mu = _uniform(2)
        f = cb.make_observable([1.0, -1.0], mu)
        bound = cb.tail_bound_continuous(
            cb.BoundQuery(mode="continuous", t=5.0, delta=0.1, M=1.0, sigma2=0.5, eta_p=1.0)
        )
        cfg = cb.SimConfig(replicas=10, seed=0, init=mu, t=5.0, delta=0.1)
        with pytest.raises(errors.NotIrreducible):
            cb.empirical_tail(cfg, Q, f, bound=bound)
        # without a bound the sampler itself is fine
        rep = cb.empirical_tail(cfg, Q, f)
        assert rep.consistent is None

    def test_uncentered_observable_refused(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        cfg = cb.SimConfig(replicas=10, seed=0, init=mu, n=5, delta=0.1)
        with pytest.raises(errors.InvalidQuery):
            cb.empirical_tail(cfg, P, np.array([1.0, 0, 0, -1.0]))

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
            cfg = cb.SimConfig(replicas=400, seed=seed, init=mu, n=n, delta=delta)
            rep = cb.empirical_tail(cfg, P, f)
            covered += rep.ci_low <= exact <= rep.ci_high
        assert covered >= 17


class TestEmpiricalMgf:
    def test_theta_zero_exact_one(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        cfg = cb.SimConfig(replicas=50, seed=0, init=mu, n=10, theta=0.0)
        rep = cb.empirical_mgf(cfg, P, f)
        assert rep.estimate == 1.0
        assert rep.ci_low == rep.ci_high == 1.0
        assert not rep.heavy_tail

    def test_flip_chain_deterministic_samples(self):
        P = cb.validate_transition_matrix([[0, 1], [1, 0]])
        mu = _uniform(2)
        f = cb.make_observable([1.0, -1.0], mu)
        cfg = cb.SimConfig(replicas=64, seed=3, init=mu, n=2, theta=0.8)
        rep = cb.empirical_mgf(cfg, P, f)
        assert rep.estimate == pytest.approx(1.0, rel=1e-14)
        assert rep.ci_high - rep.ci_low <= 1e-14

    def test_covers_exact_mgf(self):
        rng = np.random.default_rng(90)
        P = random_transition(rng, 3)
        mu = cb.stationary_distribution(P)
        f = cb.make_observable(rng.normal(size=3), mu)
        theta, n = 0.3, 10
        exact = cb.exact_mgf_discrete(P, mu, f, theta, n)
        cfg = cb.SimConfig(replicas=20_000, seed=8, init=mu, n=n, theta=theta)
        rep = cb.empirical_mgf(cfg, P, f, bound=None)
        assert rep.ci_low <= exact <= rep.ci_high

    def test_ctmc_mgf_covers_exact(self):
        Q = cb.validate_generator([[-1, 1], [1, -1]])
        mu = cb.stationary_distribution(Q)
        f = cb.make_observable([1.0, -1.0], mu)
        theta, t = 0.3, 2.0
        exact = cb.exact_mgf_continuous(Q, mu, f, theta, t)
        cfg = cb.SimConfig(replicas=20_000, seed=9, init=mu, t=t, theta=theta)
        rep = cb.empirical_mgf(cfg, Q, f)
        assert rep.ci_low <= exact <= rep.ci_high

    def test_heavy_tail_flagged(self):
        # rare state carries an enormous weight: a handful of samples
        # dominate the mean and the normal CI is not trustworthy
        P = cb.validate_transition_matrix([[0.99, 0.01], [0.99, 0.01]])
        mu = cb.stationary_distribution(P)
        f = cb.make_observable([0.0, 30.0], mu, auto_center=True)
        cfg = cb.SimConfig(replicas=400, seed=12, init=mu, n=1, theta=1.0)
        rep = cb.empirical_mgf(cfg, P, f)
        assert rep.heavy_tail

    def test_report_roundtrip(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        bound = cb.tail_bound_discrete(
            cb.BoundQuery(mode="discrete", n=10, delta=0.2, M=1.0, sigma2=0.5, eta_p=0.6)
        )
        cfg = cb.SimConfig(replicas=100, seed=1, init=mu, n=10, delta=0.2)
        rep = cb.empirical_tail(cfg, P, f, bound=bound)
        again = cb.SimReport.from_dict(rep.to_dict())
        assert again == rep

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
