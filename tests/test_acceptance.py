"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``
or in failure output) and asserts its runtime budget.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

import chainbounds as cb
from chainbounds import cli
from chainbounds.examples import ZERO_ABSOLUTE_GAP_ROWS, zero_absolute_gap_chain
from conftest import random_centered_observable, random_generator, random_transition
from test_exact_oracle import verify_a_prime_identity, verify_laplacian_identity
from test_spectral import ip_gap_minimizer, verify_iterated_poincare


@contextlib.contextmanager
def criterion(num: int, limit_s: float, description: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    elapsed = time.monotonic() - t0
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.1f}s (limit {limit_s}s)"
    print(f"[PASS] criterion {num}: {description} ({elapsed:.2f}s < {limit_s:.0f}s)")


def test_criterion_1_four_state_golden():
    with criterion(1, 1.0, "4-state golden facts (mu, eta_a = 0, ordering)"):
        P = zero_absolute_gap_chain()
        mu = cb.stationary_distribution(P)
        assert np.abs(mu.weights - 0.25).max() <= 1e-12
        report = cb.gap_report(P, mu, k_max=None)
        eta_p, eta_s, eta_a = report.eta_p, report.eta_s, report.eta_a
        assert abs(eta_a) <= 1e-10
        assert eta_s > 0.4
        assert eta_p > 0.4
        assert eta_p >= eta_s >= eta_a


def test_criterion_2_gap_ordering_fuzz():
    with criterion(2, 30.0, "gap ordering/caps on 1000 random chains (2-20 states)"):
        rng = np.random.default_rng(2024)
        for i in range(1000):
            n = int(rng.integers(2, 21))
            P = random_transition(rng, n, sparsify=0.4 if i % 2 else 0.0)
            report = cb.gap_report(P, cb.stationary_distribution(P), k_max=None)
            eta_p, eta_s, eta_a = report.eta_p, report.eta_s, report.eta_a
            assert eta_p >= eta_s - 1e-9
            assert eta_s - 1e-9 >= eta_a - 2e-9
            assert eta_p > 0
            assert eta_p <= 2.0 + 1e-12
            assert 1.0 - eta_a <= 1.0 + 1e-12  # lambda_a cap


def test_criterion_3_iterated_poincare():
    with criterion(3, 30.0, "variance inequality on 100 chains x 100 h, equality at minimizer"):
        rng = np.random.default_rng(303)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            P = random_transition(rng, n)
            mu = cb.stationary_distribution(P)
            w = mu.weights
            eta_p, h_min = ip_gap_minimizer(P, mu)
            # vectorized batch of 100 random h
            H = rng.normal(size=(n, 100))
            means = w @ H
            lhs = w @ H**2 - means**2
            LH = P.entries @ H - H
            rhs = (w @ LH**2) / eta_p**2
            assert (lhs <= rhs * (1 + 1e-9) + 1e-15).all()
            chk = verify_iterated_poincare(P, mu, h_min, eta_p=eta_p)
            assert chk.holds
            assert abs(chk.lhs - chk.rhs) <= 1e-8 * max(1.0, chk.rhs)


def test_criterion_4_discrete_mgf_dominance():
    with criterion(4, 60.0, "exact transfer MGF below closed-form bound (50 chains)"):
        rng = np.random.default_rng(404)
        for _ in range(50):
            n_states = int(rng.integers(2, 7))
            P = random_transition(rng, n_states)
            mu = cb.stationary_distribution(P)
            f = random_centered_observable(rng, mu)
            eta_p = cb.ip_gap(P, mu)
            sigma = math.sqrt(f.sigma2)
            theta_cap = eta_p / (2.0 * f.M)
            for theta in np.linspace(-0.95 * theta_cap, 0.95 * theta_cap, 11):
                for n in (1, 5, 20, 50):
                    exact = cb.exact_mgf(P, mu, f, float(theta), n)
                    bound = cb.mgf_bound("discrete", float(theta), n, f.M, sigma, eta_p)
                    assert exact <= bound * (1 + 1e-9)


def _doubly_stochastic(rng, n):
    # convex combination of permutation matrices; uniform mu exactly
    while True:
        a = np.zeros((n, n))
        for w in rng.dirichlet(np.ones(4)):
            a += w * np.eye(n)[rng.permutation(n)]
        P = cb.validate_transition_matrix(a)
        if cb.is_irreducible(P):
            return P


def test_criterion_5_discrete_tail_dominance_exact():
    with criterion(5, 120.0, "exact small-chain tails below the tail bound"):
        rng = np.random.default_rng(505)
        cases = []
        for n_states, horizon in [(2, 12), (3, 12), (4, 11)]:
            P = random_transition(rng, n_states)
            mu = cb.stationary_distribution(P)
            f = random_centered_observable(rng, mu)
            cases.append((P, mu, f, horizon))
        for _ in range(3):
            # 4-state, n = 12 via the value-grid DP: uniform mu makes an
            # integer-valued f exactly centered after the shift
            P = _doubly_stochastic(rng, 4)
            mu = cb.stationary_distribution(P)
            v = rng.integers(-3, 4, size=4).astype(float)
            v[0] += -v.sum() % 4  # total divisible by 4: exact centering
            f = cb.make_observable(v, mu)
            cases.append((P, mu, f, 12))
        for P, mu, f, horizon in cases:
            eta_p = cb.ip_gap(P, mu)
            if f.M == 0:
                continue
            deltas = np.linspace(f.M / 8, f.M, 8)
            for n in {3, horizon // 2, horizon}:
                for delta in deltas:
                    exact = cb.exact_tail_discrete(P, mu, f, n, float(delta))
                    query = cb.BoundQuery(
                        mode="discrete", n=n, delta=float(delta), M=f.M,
                        sigma2=f.sigma2, eta_p=eta_p,
                    )
                    bound = cb.tail_bound(query).probability_bound
                    assert exact <= bound * (1 + 1e-12)


def test_criterion_6_discrete_tail_dominance_monte_carlo(tmp_path, capsys):
    with criterion(6, 60.0, "verify CLI: 4-state chain, n=200, 1e4 replicas, exit 0"):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({
            "labels": ["a", "b", "c", "d"],
            "P": ZERO_ABSOLUTE_GAP_ROWS,
            "f": [1, 0, 0, -1],
        }))
        rc = cli.main([
            "verify", str(path), "--n", "200", "--delta-grid", "0.1,0.2,0.3",
            "--replicas", "10000", "--seed", "606",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == cli.VERIFY_CSV_HEADER
        assert len(lines) == 4
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[4]) >= float(fields[2])  # bound >= ci_low
            assert fields[5] == "true"
    print(out.strip())


def test_criterion_7_continuous_dominance():
    with criterion(7, 120.0, "Feynman-Kac MGF and CTMC Monte Carlo below continuous bounds"):
        rng = np.random.default_rng(707)
        generators = [cb.validate_generator([[-1.0, 1.0], [2.0, -2.0]]), random_generator(rng, 4)]
        for Q in generators:
            mu = cb.stationary_distribution(Q)
            f = random_centered_observable(rng, mu)
            eta_p = cb.ip_gap(Q, mu)
            sigma = math.sqrt(f.sigma2)
            theta_cap = eta_p / (2.0 * f.M)
            for theta in np.linspace(-0.9 * theta_cap, 0.9 * theta_cap, 7):
                for t in (0.5, 2.0, 10.0):
                    exact = cb.exact_mgf(Q, mu, f, float(theta), t)
                    bound = cb.mgf_bound("continuous", float(theta), t, f.M, sigma, eta_p)
                    assert exact <= bound * (1 + 1e-9)
            # Monte Carlo tail at t = 100 against the continuous theorem, one
            # simulation for both deltas
            deltas = [0.1 * f.M, 0.3 * f.M]
            bounds = [
                cb.tail_bound(cb.BoundQuery(
                    mode="continuous", t=100.0, delta=delta, M=f.M,
                    sigma2=f.sigma2, eta_p=eta_p,
                ))
                for delta in deltas
            ]
            cfg = cb.SimConfig(replicas=10_000, seed=7070, init=mu, t=100.0)
            for report in cb.empirical_tail(cfg, Q, f, deltas, bounds):
                assert report.consistent is True


def test_criterion_8_structural_identities():
    with criterion(8, 30.0, "conditional-MGF and derivative identities on random instances"):
        rng = np.random.default_rng(808)
        for _ in range(20):
            P = random_transition(rng, 3)
            fv = rng.normal(size=3)
            theta = float(rng.uniform(-1.0, 1.0))
            n = int(rng.integers(1, 5))
            z = int(rng.integers(3))
            chk = verify_laplacian_identity(P, fv, theta, n, z)
            assert chk.gap <= 1e-10 * max(1.0, abs(chk.lhs))
        for _ in range(20):
            Q = random_generator(rng, int(rng.integers(2, 5)))
            mu = cb.stationary_distribution(Q)
            f = random_centered_observable(rng, mu)
            theta = float(rng.uniform(-0.5, 0.5))
            t = float(rng.uniform(0.2, 2.0))
            chk = verify_a_prime_identity(Q, f, theta, t, mu)
            assert chk.gap <= 1e-6


def test_criterion_9_numerical_radius():
    with criterion(9, 60.0, "real-space power-inequality failure; complex inequality on 200 matrices"):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert cb.numerical_radius_real(skew) == 0.0
        assert cb.numerical_radius_real(skew @ skew) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(909)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            B = rng.normal(size=(n, n))
            w = cb.numerical_radius_complex(B)
            assert cb.numerical_radius_complex(B @ B) <= w**2 * (1 + 1e-12)


def test_criterion_10_initial_distribution_handling(capsys):
    with criterion(10, 30.0, "density-norm factors and the p = 1 rejection"):
        P = zero_absolute_gap_chain()
        mu = cb.stationary_distribution(P)
        for p in (1.5, 2.0, 7.0, math.inf):
            assert cb.radon_nikodym_norm(mu, mu, p) == pytest.approx(1.0, abs=1e-14)
        point = cb.make_distribution([1.0, 0.0, 0.0, 0.0], mu.n_states)
        norm_inf = cb.radon_nikodym_norm(point, mu, math.inf)
        assert norm_inf == pytest.approx(4.0, abs=1e-13)
        base = dict(mode="discrete", n=200, delta=0.2, M=1.0, sigma2=0.5,
                    eta_p=0.6, p=math.inf)
        b1 = cb.tail_bound(cb.BoundQuery(nu_norm=1.0, **base))
        b4 = cb.tail_bound(cb.BoundQuery(nu_norm=norm_inf, **base))
        assert b4.probability_bound == pytest.approx(
            4.0 * b1.probability_bound, rel=1e-12
        )
        assert b4.exponent == b1.exponent
        with pytest.raises(cb.ChainBoundsError, match="vacuous"):
            cb.radon_nikodym_norm(point, mu, 1.0)
        with pytest.raises(cb.ChainBoundsError, match="vacuous"):
            cb.BoundQuery(nu_norm=1.0, **{**base, "p": 1.0})
        rc = cli.main([
            "bound", "--mode", "discrete", "--n", "100", "--delta", "0.1",
            "--M", "1", "--sigma2", "0.1", "--eta-p", "1", "--p", "1",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "vacuous" in json.loads(err)["message"]
