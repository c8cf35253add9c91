import dataclasses
import json
import math
import tracemalloc
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

import chainbounds as cb
from chainbounds import errors, spectral
from chainbounds.chain_core import TransitionMatrix, _read_f
from chainbounds.examples import flip_chain, skew_matrix, zero_absolute_gap_chain
from conftest import random_generator, random_reversible, random_transition

GOLDEN_IP_GAP = math.sqrt((3.0 - math.sqrt(5.0)) / 2.0)  # 4-state example


def _uniform(n):
    return cb.make_distribution(np.full(n, 1.0 / n))


class TestEmbedWeighted:
    def test_uniform_mu_passthrough(self):
        P = cb.validate_transition_matrix([[0.7, 0.3], [0.3, 0.7]])
        W = cb.embed_weighted(P, _uniform(2))
        assert np.abs(W.matrix - P.entries).max() <= 1e-15
        assert np.abs(W.generator - (P.entries - np.eye(2))).max() <= 1e-15

    def test_generator_embedding_hand_value(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        W = cb.embed_weighted(Q, mu)
        expected = np.array([[-1.0, math.sqrt(2.0)], [math.sqrt(2.0), -2.0]])
        assert np.abs(W.generator - expected).max() <= 1e-12
        assert W.matrix is None

    def test_sqrt_mu_relations(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            P = random_transition(rng, int(rng.integers(2, 9)))
            mu = cb.stationary_distribution(P)
            s = np.sqrt(mu.weights)
            W = cb.embed_weighted(P, mu)
            # formed from P - I itself; matrix - I would round differently
            L = P.entries - np.eye(P.n_states)
            assert np.array_equal(W.generator, (s[:, None] * L) / s[None, :])
            assert np.abs(W.matrix @ s - s).max() <= 1e-10
            assert np.abs(W.generator @ s).max() <= 1e-10
            assert np.abs(s @ W.generator).max() <= 1e-10  # range orthogonality

    def test_in_place_scaling_matches_the_formula(self):
        # the scaled copies are bit for bit (s_i a_ij) / s_j of P, P - I and
        # Q, and the operator's own entries are left as they were
        rng = np.random.default_rng(12)
        for op in (random_transition(rng, 9), random_transition(rng, 9, sparsify=0.7),
                   random_generator(rng, 7)):
            before = op.entries.copy()
            mu = cb.stationary_distribution(op)
            s = np.sqrt(mu.weights)
            W = cb.embed_weighted(op, mu)

            def similar(a):
                return (s[:, None] * a) / s[None, :]

            if W.matrix is None:
                assert np.array_equal(W.generator, similar(op.entries))
            else:
                assert np.array_equal(W.matrix, similar(op.entries))
                assert np.array_equal(W.generator, similar(op.entries - np.eye(op.n_states)))
            assert np.array_equal(op.entries, before)

    def test_laplacian_requires_invariant_mu(self):
        P = cb.validate_transition_matrix([[0.9, 0.1], [0.5, 0.5]])
        with pytest.raises(errors.NotInvariant):
            cb.embed_weighted(P, _uniform(2))

    def test_zero_mass_rejected(self):
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        mu = cb.make_distribution([1.0, 0.0])
        for call in (cb.embed_weighted, cb.gap_report):
            with pytest.raises(errors.ZeroMass):
                call(P, mu)

    def test_not_invariant_rejected(self):
        P = cb.validate_transition_matrix([[0.9, 0.1], [0.5, 0.5]])
        with pytest.raises(errors.NotInvariant):
            cb.gap_report(P, cb.make_distribution([0.5, 0.5]))


class TestIpGap:
    def test_flip_chain_attains_cap(self):
        P = cb.validate_transition_matrix([[0, 1], [1, 0]])
        assert cb.ip_gap(P, _uniform(2)) == pytest.approx(2.0, abs=1e-12)

    def test_identity_chain_zero(self):
        # reducible inputs with an invariant mu: the second null direction
        # must read exactly 0, not as rounding noise above it
        block = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        zero = np.zeros((3, 3))
        cases = [
            (cb.validate_transition_matrix(np.eye(2)), _uniform(2)),
            # two closed doubly stochastic blocks
            (cb.validate_transition_matrix(np.block([[block, zero], [zero, block[::-1]]])),
             _uniform(6)),
            # two closed classes of a jump process, mixed half and half
            (cb.validate_generator([[-1, 1, 0, 0], [1, -1, 0, 0], [0, 0, -1, 1], [0, 0, 3, -3]]),
             cb.make_distribution([0.25, 0.25, 0.375, 0.125])),
        ]
        for op, mu in cases:
            assert cb.ip_gap(op, mu) == 0.0

    def test_four_state_golden(self):
        P = zero_absolute_gap_chain()
        assert cb.ip_gap(P, _uniform(4)) == pytest.approx(GOLDEN_IP_GAP, abs=1e-12)

    def test_degenerate_space(self):
        P = cb.validate_transition_matrix([[1.0]])
        with pytest.raises(errors.DegenerateStateSpace):
            cb.ip_gap(P, cb.make_distribution([1.0]))

    def test_matches_explicit_basis_oracle(self):
        # independent route: restrict to an explicit orthonormal basis of
        # the complement of sqrt(mu) and take the full SVD there
        rng = np.random.default_rng(8)
        for _ in range(20):
            P = random_transition(rng, int(rng.integers(2, 12)))
            mu = cb.stationary_distribution(P)
            s = np.sqrt(mu.weights)
            M = cb.embed_weighted(P, mu).generator
            basis = np.linalg.svd(np.eye(s.size) - np.outer(s, s))[0][:, : s.size - 1]
            oracle = np.linalg.svd(basis.T @ M @ basis, compute_uv=False).min()
            assert cb.ip_gap(P, mu) == pytest.approx(oracle, abs=1e-11)


class TestIpGapGenerator:
    def test_two_state_rates_sum(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        assert cb.ip_gap(Q, mu) == pytest.approx(3.0, abs=1e-12)

    def test_zero_generator(self):
        Q = cb.validate_generator(np.zeros((2, 2)))
        assert cb.ip_gap(Q, _uniform(2)) == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_fast_generator_beyond_fixed_shift(self):
        # gap 4 exceeds the cap 2 of a chain's gap; a generator's is unbounded
        Q = cb.validate_generator([[-2, 2], [2, -2]])
        mu = cb.stationary_distribution(Q)
        assert cb.ip_gap(Q, mu) == pytest.approx(4.0, abs=1e-12)


class TestSymmetricAndAbsoluteGap:
    def test_four_state_values(self):
        report = cb.gap_report(zero_absolute_gap_chain(), _uniform(4))
        assert report.eta_s == pytest.approx(0.5, abs=1e-12)
        assert report.eta_a == pytest.approx(0.0, abs=1e-10)

    def test_flip_chain(self):
        P = cb.validate_transition_matrix([[0, 1], [1, 0]])
        report = cb.gap_report(P, _uniform(2))
        assert report.eta_s == pytest.approx(2.0, abs=1e-12)
        assert report.eta_a == pytest.approx(0.0, abs=1e-12)

    def test_lazy_reversible(self):
        P = cb.validate_transition_matrix([[0.7, 0.3], [0.3, 0.7]])
        report = cb.gap_report(P, _uniform(2))
        assert report.eta_s == pytest.approx(0.6, abs=1e-12)
        assert report.eta_a == pytest.approx(0.6, abs=1e-12)

    def test_projector_chain_full_gap(self):
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        assert cb.gap_report(P, _uniform(2)).eta_a == pytest.approx(1.0, abs=1e-12)


def _reference_absolute_gap(W):
    # the SVD of the doubly projected embedding that the centred Gram replaced
    proj = np.eye(W.sqrt_mu.size) - np.outer(W.sqrt_mu, W.sqrt_mu)
    return 1.0 - float(np.linalg.svd(proj @ W.matrix @ proj, compute_uv=False)[0])


def _near_independent(rng, n, eps):
    # P = 1 mu^T + eps E, with E = R - 1 mu^T for a random stochastic R
    mu = rng.dirichlet(np.ones(n))
    return cb.validate_transition_matrix(
        (1.0 - eps) * mu[None, :] + eps * random_transition(rng, n).entries
    )


def _near_decomposable(rng, sizes, eps):
    n = sum(sizes)
    a = np.full((n, n), eps)
    start = 0
    for size in sizes:
        a[start : start + size, start : start + size] = rng.uniform(0.01, 1.0, (size, size))
        start += size
    return cb.validate_transition_matrix(a / a.sum(axis=1)[:, None])


class TestAbsoluteGapAccuracy:
    def _assert_close(self, P):
        # the Gram and the SVD both carry errors of order n eps
        mu = cb.stationary_distribution(P)
        got = cb.gap_report(P, mu, k_max=None).eta_a
        want = _reference_absolute_gap(cb.embed_weighted(P, mu))
        assert abs(got - want) <= 8 * P.n_states * np.finfo(float).eps
        assert 0.0 <= got <= 1.0

    def test_matches_svd_on_seeded_grid(self):
        rng = np.random.default_rng(1998)
        for _ in range(15):
            n = int(rng.integers(2, 31))
            self._assert_close(random_transition(rng, n))
            self._assert_close(random_transition(rng, n, sparsify=0.6))
            self._assert_close(random_reversible(rng, n))
            self._assert_close(_lazy_cycle(rng, n))
            sizes = rng.integers(1, 7, size=int(rng.integers(2, 4))).tolist()
            self._assert_close(_near_decomposable(rng, sizes, 10.0 ** rng.uniform(-12, -2)))
        for n in (5, 50):
            for eps in (0.0, 1e-12, 1e-8, 1e-4, 1e-2, 0.3, 1.0):
                self._assert_close(_near_independent(rng, n, eps))

    def test_independent_rows_give_full_gap(self):
        # P = 1 mu^T: the deflated Gram M^T M - 2 s s^T, whose top eigenvalue
        # is rounding noise of order eps, put eta_a 1.5e-8 below 1 here
        rng = np.random.default_rng(400)
        for n in (5, 50, 400):
            P = _near_independent(rng, n, 0.0)
            eta_a = cb.gap_report(P, k_max=None).eta_a
            assert abs(eta_a - 1.0) <= 8 * n * np.finfo(float).eps


class TestOrdinaryGap:
    def test_reversible_values(self):
        P = cb.validate_transition_matrix([[0.7, 0.3], [0.3, 0.7]])
        assert cb.gap_report(P, _uniform(2)).eta == pytest.approx(0.6, abs=1e-12)
        assert cb.gap_report(
            cb.validate_transition_matrix(np.eye(2)), _uniform(2)
        ).eta == pytest.approx(0.0, abs=1e-14)

    def test_nonreversible_rejected(self):
        # a chain beyond REVERSIBILITY_TOLERANCE reports no ordinary gap
        assert cb.gap_report(zero_absolute_gap_chain(), _uniform(4)).eta is None

    def test_reversible_consistency_fuzz(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            P = random_reversible(rng, int(rng.integers(2, 10)))
            mu = cb.stationary_distribution(P)
            report = cb.gap_report(P, mu)
            assert abs(report.eta - report.eta_s) <= 1e-10
            # eigenvalue route for the absolute gap of a reversible chain
            W = cb.embed_weighted(P, mu).matrix
            ev = np.linalg.eigvalsh(0.5 * (W + W.T))
            lam_abs = max(abs(ev[0]), abs(ev[-2]))
            assert abs(report.eta_a - (1.0 - lam_abs)) <= 1e-10


class TestPseudoGap:
    def test_flip_chain_zero_for_all_k(self):
        P = cb.validate_transition_matrix([[0, 1], [1, 0]])
        res = cb.gap_report(P, _uniform(2), k_max=4).pseudo
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.k_max == 4

    def test_projector_chain(self):
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        res = cb.gap_report(P, _uniform(2), k_max=1).pseudo
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.k == 1

    def test_reversible_squaring(self):
        P = cb.validate_transition_matrix([[0.7, 0.3], [0.3, 0.7]])
        res = cb.gap_report(P, _uniform(2), k_max=1).pseudo
        assert res.value == pytest.approx(1.0 - 0.4**2, abs=1e-12)

    def test_four_state_truncation(self):
        res = cb.gap_report(zero_absolute_gap_chain(), _uniform(4), k_max=20).pseudo
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.k == 2


def _reference_pseudo_gap(W, k_max):
    # the full k_max-step scan that the early stop replaced, on powers of the
    # centred embedding A = M - s s^T with the Gram eigenvalue clamped to [0, 1]
    centred = W.matrix - np.outer(W.sqrt_mu, W.sqrt_mu)
    best_value, best_k = -np.inf, 1
    ak = np.eye(centred.shape[0])
    for k in range(1, k_max + 1):
        ak = ak @ centred
        lam = float(np.linalg.eigvalsh(ak.T @ ak)[-1])
        value = (1.0 - min(max(lam, 0.0), 1.0)) / k
        if value > best_value:
            best_value, best_k = value, k
    return cb.PseudoGapResult(best_value, best_k, k_max)


def _sharpened(rng, n):
    # near-deterministic rows: a Dirichlet draw raised to a power, kept positive
    a = rng.dirichlet(np.full(n, 0.3), size=n) ** rng.uniform(2.0, 6.0) + 1e-6
    return cb.validate_transition_matrix(a / a.sum(axis=1)[:, None])


def _lazy_cycle(rng, n):
    # deterministic moves around a cycle, with holding at some states; the
    # one-step value is small and the best k is often above 1
    hold = np.where(rng.random(n) < 0.6, 0.0, rng.uniform(0.1, 0.9, n))
    hold[rng.integers(n)] = rng.uniform(0.1, 0.9)
    a = np.diag(hold) + np.roll(np.diag(1.0 - hold), 1, axis=1)
    return cb.validate_transition_matrix(a)


def _drift_chain(n, up):
    # birth-death chain with holding at the ends; mu from detailed balance
    a = np.zeros((n, n))
    for i in range(n):
        a[i, min(i + 1, n - 1)] += up
        a[i, max(i - 1, 0)] += 1.0 - up
    w = (up / (1.0 - up)) ** np.arange(n)
    return cb.validate_transition_matrix(a), cb.make_distribution(w / w.sum())


class TestPseudoGapEarlyStop:
    def _assert_parity(self, P, mu=None, k_max=20):
        # bit for bit on the general route; a chain symmetric to rounding
        # reads k = 1 off one eigvalsh, and both round within 8 n eps
        mu = cb.stationary_distribution(P) if mu is None else mu
        W = cb.embed_weighted(P, mu)
        got = cb.gap_report(P, mu, k_max).pseudo
        want = _reference_pseudo_gap(W, k_max)
        if spectral._reversible_gaps(W) is None:
            assert (got.value, got.k, got.k_max) == (want.value, want.k, want.k_max)
        else:
            assert (got.k, got.k_max) == (want.k, want.k_max)
            assert abs(got.value - want.value) <= 8 * P.n_states * np.finfo(float).eps
        return got

    def test_bit_identical_on_seeded_families(self):
        rng = np.random.default_rng(2015)
        builders = (
            lambda n: random_transition(rng, n),
            lambda n: random_reversible(rng, n),
            lambda n: _sharpened(rng, n),
            lambda n: _lazy_cycle(rng, n),
        )
        later_k = 0
        for builder in builders:
            for _ in range(75):
                res = self._assert_parity(builder(int(rng.integers(2, 31))))
                later_k += res.k > 1
        assert later_k >= 100  # the stop must not hide a later optimum

    def test_bit_identical_on_named_chains(self):
        for n, up in ((100, 0.45), (60, 0.4), (30, 0.2)):
            self._assert_parity(*_drift_chain(n, up))
        assert self._assert_parity(flip_chain()).k_max == 20
        assert self._assert_parity(zero_absolute_gap_chain()).k == 2
        rng = np.random.default_rng(6)
        for P in (random_transition(rng, 8), _lazy_cycle(rng, 7), flip_chain()):
            assert self._assert_parity(P, k_max=1).k_max == 1


# The iterated Poincare inequality the proof rests on, checked for a given
# h, and a direction that attains the gap. They check a step of the proof,
# not an answer, so they live with the tests.


def ip_gap_minimizer(op, mu):
    """Gap together with a minimizing mean-zero direction h (state space).

    Returns ``(eta_p, h)`` where h attains
    ``||L h||_mu = eta_p ||h||_mu`` with E_mu[h] = 0.
    """
    spectral._require_multi_state(mu)
    W = spectral.embed_weighted(op, mu)
    # vt[-1] is sqrt(mu), the null direction of the embedded generator
    return spectral._ip_gap(W), np.linalg.svd(W.generator)[2][-2] / W.sqrt_mu


class GapZero(errors.ChainBoundsError):
    """Variance inequality is vacuous because the gap is zero."""


class PoincareCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def verify_iterated_poincare(op, mu, h, eta_p: float | None = None) -> PoincareCheck:
    """Check ``Var_mu[h] <= eta_p^(-2) E_mu[(L h)^2]`` for a given h.

    ``L`` is P - I for a transition matrix and Q itself for a generator.
    The gap is computed unless supplied. Slack 1e-9 relative to the right
    side absorbs floating error. Raises GapZero when the gap is zero and
    Var_mu[h] > 0 (inequality vacuous).
    """
    hv = _read_f(h, mu.n_states)
    w = mu.weights
    if eta_p is None:
        eta_p = cb.ip_gap(op, mu)
    if isinstance(op, TransitionMatrix):
        lh = op.entries @ hv - hv
    else:
        lh = op.entries @ hv
    mean = float(w @ hv)
    lhs = float(w @ hv**2) - mean**2
    energy = float(w @ lh**2)
    if eta_p == 0.0:
        if lhs > 1e-12 * max(1.0, float(hv @ hv)):
            raise GapZero("gap is zero; the variance inequality is vacuous")
        return PoincareCheck(lhs, np.inf, True)
    rhs = energy / eta_p**2
    return PoincareCheck(lhs, rhs, lhs <= rhs + 1e-9 * max(1.0, rhs))


class TestIteratedPoincare:
    def test_constant_h_trivial(self):
        P = zero_absolute_gap_chain()
        chk = verify_iterated_poincare(P, _uniform(4), np.ones(4))
        assert chk.lhs == pytest.approx(0.0, abs=1e-15)
        assert chk.holds

    def test_equality_at_minimizer(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            P = random_transition(rng, int(rng.integers(2, 10)))
            mu = cb.stationary_distribution(P)
            gap, h = ip_gap_minimizer(P, mu)
            chk = verify_iterated_poincare(P, mu, h, eta_p=gap)
            assert chk.holds
            assert chk.lhs == pytest.approx(chk.rhs, rel=1e-8)

    def test_random_h_fuzz(self):
        rng = np.random.default_rng(14)
        P = random_transition(rng, 6)
        mu = cb.stationary_distribution(P)
        eta = cb.ip_gap(P, mu)
        for _ in range(100):
            chk = verify_iterated_poincare(P, mu, rng.normal(size=6), eta_p=eta)
            assert chk.holds

    def test_generator_form(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        gap, h = ip_gap_minimizer(Q, mu)
        chk = verify_iterated_poincare(Q, mu, h, eta_p=gap)
        assert chk.holds and chk.lhs == pytest.approx(chk.rhs, rel=1e-8)

    def test_gap_zero_cases(self):
        P = cb.validate_transition_matrix(np.eye(2))
        mu = _uniform(2)
        chk = verify_iterated_poincare(P, mu, np.ones(2), eta_p=0.0)
        assert chk.holds and chk.rhs == math.inf
        with pytest.raises(GapZero):
            verify_iterated_poincare(P, mu, np.array([1.0, -1.0]), eta_p=0.0)


class TestNumericalRadius:
    def test_real_examples(self):
        A = skew_matrix()
        assert cb.numerical_radius_real(A) == 0.0
        assert cb.numerical_radius_real(np.eye(2)) == pytest.approx(1.0)
        assert cb.numerical_radius_real(A @ A) == pytest.approx(1.0)

    def test_complex_examples(self):
        A = skew_matrix()
        assert cb.numerical_radius_complex(A) == pytest.approx(1.0, abs=1e-9)
        # symmetric matrices attain the sup at phase zero
        S = np.array([[2.0, 1.0], [1.0, -3.0]])
        assert cb.numerical_radius_complex(S) == pytest.approx(
            cb.numerical_radius_real(S), abs=1e-12
        )
        # nilpotent Jordan block: w = 1/2
        assert cb.numerical_radius_complex([[0, 1], [0, 0]]) == pytest.approx(
            0.5, abs=1e-9
        )
        assert cb.numerical_radius_complex(np.zeros((3, 3))) == 0.0
        assert cb.numerical_radius_complex([[-3.0]]) == 3.0
        # the n x n nilpotent Jordan block has w = cos(pi / (n + 1))
        for n in (3, 6):
            J = np.diag(np.ones(n - 1), 1)
            assert cb.numerical_radius_complex(J) == pytest.approx(
                math.cos(math.pi / (n + 1)), rel=1e-14
            )
        # a skew matrix is normal, so its radius is its spectral radius
        K = np.array([[0.0, 2.0, -1.0], [-2.0, 0.0, 0.5], [1.0, -0.5, 0.0]])
        assert cb.numerical_radius_complex(K) == pytest.approx(
            np.abs(np.linalg.eigvals(K)).max(), rel=1e-14
        )
        # singular rank one: w(u v^T) = (|u| |v| + |v . u|) / 2
        u, v = np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 2.0])
        want = 0.5 * (np.linalg.norm(u) * np.linalg.norm(v) + abs(u @ v))
        assert cb.numerical_radius_complex(np.outer(u, v)) == pytest.approx(want, rel=1e-14)

    def test_interior_maximum(self):
        # a triangular matrix whose radius peaks near theta = 0.82, away from
        # the start phases 0 and pi/2
        B = np.array([[2.0, 3.0, -1.0, 3.0], [0.0, -1.0, -2.0, -3.0],
                      [0.0, 0.0, 0.0, 3.0], [0.0, 0.0, 0.0, 1.0]])
        S, K = 0.5 * (B + B.T), 0.5 * (B - B.T)
        w = cb.numerical_radius_complex(B)
        ends = spectral._radius_at(np.array([0.0, np.pi / 2]), S, K)
        assert w >= 1.05 * ends.max()
        assert w == pytest.approx(_fine_radius(B), rel=1e-13)
        assert w >= _reference_radius(B) * (1 - 1e-13)

    def test_complex_power_inequality_sample(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            B = rng.normal(size=(n, n))
            w = cb.numerical_radius_complex(B)
            assert cb.numerical_radius_complex(B @ B) <= w**2 * (1 + 1e-12)

    def test_complex_never_below_real(self):
        rng = np.random.default_rng(1978)
        sizes = [int(rng.integers(1, 30)) for _ in range(40)] + [100]
        for n in sizes:
            B = rng.normal(size=(n, n))
            assert cb.numerical_radius_complex(B) >= cb.numerical_radius_real(B)
        S = rng.normal(size=(20, 20))
        S = S + S.T  # attains its radius at phase zero
        assert cb.numerical_radius_complex(S) >= cb.numerical_radius_real(S)

    def test_iteration_bound_raises(self, monkeypatch):
        B = np.random.default_rng(4).normal(size=(12, 12))  # settles in 4 rounds
        w = cb.numerical_radius_complex(B)
        monkeypatch.setattr(spectral, "_RADIUS_MAX_ROUNDS", 1)
        with pytest.raises(errors.SolverFailure, match="unsettled"):
            cb.numerical_radius_complex(B)
        monkeypatch.setattr(spectral, "_RADIUS_MAX_ROUNDS", 50)
        assert cb.numerical_radius_complex(B) == w

    def test_unimodular_tolerance(self, monkeypatch):
        # near the maximum the level crossings merge into double roots that
        # rounding moves off the unit circle; a filter of 1e-12 drops them
        # and stops short, the chosen one does not
        mats = [np.random.default_rng(s).normal(size=(12, 12)) for s in range(10)]
        exact = [_fine_radius(B) for B in mats]
        got = [cb.numerical_radius_complex(B) for B in mats]
        assert all(abs(g - e) <= 1e-13 * e for g, e in zip(got, exact))
        monkeypatch.setattr(spectral, "_UNIMODULAR_TOL", 1e-12)
        short = [cb.numerical_radius_complex(B) for B in mats]
        assert min(s / e - 1.0 for s, e in zip(short, exact)) < -1e-12

    def test_non_finite_rejected(self):
        for f in (cb.numerical_radius_real, cb.numerical_radius_complex):
            with pytest.raises(errors.DimensionMismatch):
                f([[np.nan, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "radius", [cb.numerical_radius_real, cb.numerical_radius_complex]
    )
    def test_empty_matrix_rejected(self, radius):
        with pytest.raises(errors.DimensionMismatch, match="non-empty"):
            radius(np.zeros((0, 0)))


def _reference_radius_at(theta, S, K):
    # the real symmetric 2n x 2n embedding [[c S, -s K], [s K, c S]] of the
    # Hermitian form, all phases at once, that the n x n form replaced
    n = S.shape[0]
    c, s = np.cos(theta), np.sin(theta)
    emb = np.zeros((theta.size, 2 * n, 2 * n))
    emb[:, :n, :n] = c[:, None, None] * S
    emb[:, n:, n:] = c[:, None, None] * S
    emb[:, :n, n:] = -s[:, None, None] * K
    emb[:, n:, :n] = s[:, None, None] * K
    ev = np.linalg.eigvalsh(emb)
    return np.maximum(np.abs(ev[:, 0]), np.abs(ev[:, -1]))


def _reference_radius(B, grid_points=720):
    # the phase-grid maximum with one parabolic refinement that the level-set
    # iteration replaced: a lower bound on the radius
    S, K = 0.5 * (B + B.T), 0.5 * (B - B.T)
    step = np.pi / grid_points
    thetas = np.arange(grid_points) * step
    vals = _reference_radius_at(thetas, S, K)
    j = int(np.argmax(vals))
    best = float(vals[j])
    ym, y0, yp = vals[(j - 1) % grid_points], vals[j], vals[(j + 1) % grid_points]
    denom = ym - 2.0 * y0 + yp
    if denom < 0:
        offset = 0.5 * (ym - yp) / denom
        refined = _reference_radius_at(np.array([thetas[j] + offset * step]), S, K)
        best = max(best, float(refined[0]))
    return best


def _fine_radius(B):
    # phase-grid maximum on [0, pi/2] (the radius is even with period pi),
    # then 11 zooms of 8 phases onto the cells around the best phase, which
    # end at a phase spacing of 2.5e-8
    B = np.asarray(B, dtype=float)
    S, K = 0.5 * (B + B.T), 0.5 * (B - B.T)
    thetas = np.linspace(0.0, np.pi / 2, 64)
    best = 0.0
    for _ in range(12):
        vals = spectral._radius_at(thetas, S, K)
        j = int(np.argmax(vals))
        best = max(best, float(vals[j]))
        step = thetas[1] - thetas[0]
        thetas = np.linspace(max(thetas[j] - step, 0.0), min(thetas[j] + step, np.pi / 2), 8)
    return best


def _seeded_radius_matrices(count):
    # Gaussian, triangular, perturbed Jordan and shifted, n = 2..39
    rng = np.random.default_rng(2005)
    for i in range(count):
        n = int(rng.integers(2, 40))
        B = rng.normal(size=(n, n))
        kind = i % 4
        if kind == 1:
            B = np.triu(B)
        elif kind == 2:
            B = np.diag(np.ones(n - 1), 1) + 1e-3 * B
        elif kind == 3:
            B = B + 3.0 * np.eye(n)
        yield B


class TestHermitianRadius:
    def test_matches_real_embedding(self):
        rng = np.random.default_rng(1005)
        for n in list(range(2, 13)) + [20, 31, 40]:
            B = rng.normal(size=(n, n))
            S, K = 0.5 * (B + B.T), 0.5 * (B - B.T)
            thetas = rng.uniform(0.0, np.pi, 64)
            want = _reference_radius_at(thetas, S, K)
            got = spectral._radius_at(thetas, S, K)
            assert np.abs(got - want).max() <= 1e-13 * want.max()
            assert cb.numerical_radius_complex(B) >= _reference_radius(B) * (1 - 1e-13)

    def test_matches_fine_reference(self):
        for B in _seeded_radius_matrices(300):
            want = _fine_radius(B)
            assert abs(cb.numerical_radius_complex(B) - want) <= 1e-12 * want

    def test_batches_do_not_change_values(self, monkeypatch):
        rng = np.random.default_rng(9)
        B = rng.normal(size=(7, 7))
        S, K = 0.5 * (B + B.T), 0.5 * (B - B.T)
        thetas = np.arange(1, 100) * (np.pi / 100)
        whole = spectral._radius_at(thetas, S, K)
        # 2, 1 and 13 phases per batch: partial last batches and single phases
        for budget in (100, 1, 13 * 49):
            monkeypatch.setattr(spectral, "_RADIUS_BUDGET", budget)
            assert np.array_equal(spectral._radius_at(thetas, S, K), whole)

    def test_memory_bounded_in_n(self):
        # the 2n x 2n pencil and its eigensolver workspace: O(n^2) bytes
        for n in (40, 120):
            B = np.random.default_rng(4).normal(size=(n, n))
            tracemalloc.start()
            try:
                cb.numerical_radius_complex(B)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * n * n * 8


class TestGapReport:
    def test_report_roundtrip_json(self):
        P = zero_absolute_gap_chain()
        report = cb.gap_report(P)
        blob = json.dumps(dataclasses.asdict(report))
        assert json.loads(blob) == dataclasses.asdict(report)

    def test_reversible_fills_eta(self):
        P = cb.validate_transition_matrix([[0.7, 0.3], [0.3, 0.7]])
        report = cb.gap_report(P)
        assert report.eta == pytest.approx(0.6, abs=1e-12)

    def test_degenerate_one_state(self):
        P = cb.validate_transition_matrix([[1.0]])
        report = cb.gap_report(P)
        assert report.degenerate
        assert report.eta_p == 0.0 and report.eta_s == 0.0 and report.eta_a == 0.0

    def test_generator_report(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        report = cb.gap_report(Q)
        assert report.eta_p == pytest.approx(3.0, abs=1e-12)
        assert report.eta_s is None and report.eta_a is None and report.pseudo is None

    def test_embeds_once_and_checks_invariance_once(self, monkeypatch):
        counts = {"embed": 0, "invariant": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(spectral, "embed_weighted", counting("embed", spectral.embed_weighted))
        monkeypatch.setattr(spectral, "check_invariant", counting("invariant", spectral.check_invariant))
        rng = np.random.default_rng(3)
        P = random_reversible(rng, 6)
        for op, mu in ((P, None), (P, cb.stationary_distribution(P)),
                       (cb.validate_generator([[-1, 1], [2, -2]]), None)):
            counts.update(embed=0, invariant=0)
            cb.gap_report(op, mu)
            assert counts == {"embed": 1, "invariant": 1}

    def test_dense_chain_takes_one_svd_and_two_eigvalsh(self, monkeypatch):
        # eta_p takes the SVD; eta_s and the Gram shared by eta_a and the
        # pseudo gap take one eigvalsh each, and the pseudo scan stops at k = 2
        P = random_transition(np.random.default_rng(50), 50)
        mu = cb.stationary_distribution(P)
        calls = []

        def counting(name, fn):
            def wrapped(a, *args, **kwargs):
                calls.append((name, a.shape))
                return fn(a, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        res = cb.gap_report(P, mu, k_max=20).pseudo
        assert sorted(calls) == [("eigvalsh", (50, 50))] * 2 + [("svd", (50, 50))]
        assert (res.k, res.k_max) == (1, 20)

    def test_dense_reversible_chain_takes_one_eigvalsh(self, monkeypatch):
        # a chain symmetric to rounding reads every gap off one eigvalsh: no
        # SVD and no Gram, in gap_report and in ip_gap alike
        P = random_reversible(np.random.default_rng(50), 50)
        mu = cb.stationary_distribution(P)
        calls = []

        def counting(name, fn):
            def wrapped(a, *args, **kwargs):
                calls.append((name, a.shape))
                return fn(a, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(spectral, "_norm_sq", counting("gram", spectral._norm_sq))
        res = cb.gap_report(P, mu, k_max=20).pseudo
        assert calls == [("eigvalsh", (50, 50))]
        assert (res.k, res.k_max) == (1, 20)
        calls.clear()
        cb.ip_gap(P, mu)
        assert calls == [("eigvalsh", (50, 50))]

    def test_eta_is_eta_s_for_reversible_chains(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            report = cb.gap_report(random_reversible(rng, int(rng.integers(2, 12))))
            assert report.eta is not None
            assert report.eta == report.eta_s

    def test_drift_birth_death_chain_is_finite(self):
        # valid and reversible, but its invariant law spans ~120 decades;
        # re-validating the time reversal as a transition matrix used to
        # raise RowSumViolation here
        n = 100
        a = np.zeros((n, n))
        for i in range(n):
            a[i, min(i + 1, n - 1)] += 0.45
            a[i, max(i - 1, 0)] += 0.55
        report = cb.gap_report(cb.validate_transition_matrix(a))
        values = [report.eta_p, report.eta_s, report.eta_a, report.pseudo.value]
        assert all(math.isfinite(v) for v in values)
        assert report.eta is None or report.eta == report.eta_s

    def test_ordering_enforced_at_construction(self):
        with pytest.raises(ArithmeticError):
            cb.GapReport(0.1, 0.5, 0.0, None, None, False, {})

    def test_ordering_and_caps_fuzz(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            P = random_transition(rng, int(rng.integers(2, 12)), sparsify=0.4)
            report = cb.gap_report(P, cb.stationary_distribution(P), k_max=None)
            eta_p, eta_s, eta_a = report.eta_p, report.eta_s, report.eta_a
            assert eta_p >= eta_s - 1e-9 >= eta_a - 2e-9
            assert eta_p > 0 and eta_s > 0
            assert eta_p <= 2.0 + 1e-12
            assert eta_a >= -1e-12


def _tridiagonal_eigenvalue(d, e, k, guess):
    # the (k+1)-th smallest eigenvalue of the symmetric tridiagonal (d, e),
    # by Newton's method on its characteristic polynomial from a float
    # guess; two Sturm counts then certify it is the (k+1)-th one
    e2 = [x * x for x in e]

    def pivots(x):
        q, dq = [d[0] - x], [mpmath.mpf(-1)]
        for i in range(1, len(d)):
            q.append(d[i] - x - e2[i - 1] / q[-1])
            dq.append(-1 + e2[i - 1] * dq[-1] / q[-2] ** 2)
        return q, dq

    x = mpmath.mpf(guess)
    for _ in range(8):
        q, dq = pivots(x)
        x -= 1 / mpmath.fsum(b / a for a, b in zip(q, dq))
    width = mpmath.mpf(10) ** (4 - mpmath.mp.dps)
    assert sum(a < 0 for a in pivots(x - width)[0]) == k
    assert sum(a < 0 for a in pivots(x + width)[0]) == k + 1
    return x


def _exact_gaps(P):
    # (1 - lambda_2, 1 - rho, 1 - rho^2) of the symmetric matrix with entries
    # sqrt(p_ij p_ji) and p_ii, the exactly symmetrised embedding of P
    a = P.entries
    n = a.shape[0]
    sym = [[mpmath.mpf(a[i, j]) if i == j else mpmath.sqrt(mpmath.mpf(a[i, j]) * a[j, i])
            for j in range(n)] for i in range(n)]
    if not np.triu(a, 2).any() and not np.tril(a, -2).any():
        guess = np.linalg.eigvalsh(np.array(sym, dtype=float))
        d = [sym[i][i] for i in range(n)]
        e = [sym[i][i + 1] for i in range(n - 1)]
        lam2, low = (_tridiagonal_eigenvalue(d, e, k, guess[k]) for k in (n - 2, 0))
    else:
        ev = sorted(mpmath.eigsy(mpmath.matrix(sym), eigvals_only=True))
        lam2, low = ev[-2], ev[0]
    rho = max(abs(lam2), abs(low))
    return 1 - lam2, 1 - rho, 1 - rho**2


class TestReversibleRoute:
    def test_ip_gap_is_gap_report_eta_p(self):
        rng = np.random.default_rng(77)
        chains = [random_reversible(rng, int(rng.integers(2, 40))) for _ in range(20)]
        chains += [_drift_chain(n, up)[0] for n, up in ((100, 0.45), (60, 0.4), (30, 0.2))]
        chains += [cb.validate_transition_matrix([[0.7, 0.3], [0.4, 0.6]]), flip_chain()]
        for P in chains:
            mu = cb.stationary_distribution(P)
            assert spectral._reversible_gaps(cb.embed_weighted(P, mu)) is not None
            report = cb.gap_report(P, mu)
            assert cb.ip_gap(P, mu) == report.eta_p == report.eta_s == report.eta

    @pytest.mark.parametrize("delta", [1e-12, 1e-10])
    def test_perturbed_chain_keeps_the_svd(self, delta):
        # a circulation of delta around the cycle breaks detailed balance
        # by far more than rounding: the SVD and Gram route, bit for bit
        rng = np.random.default_rng(9)
        n = 8
        base = random_reversible(rng, n).entries
        shift = np.roll(np.eye(n), 1, axis=1) - np.roll(np.eye(n), -1, axis=1)
        P = cb.validate_transition_matrix(base + delta * shift)
        mu = cb.stationary_distribution(P)
        W = cb.embed_weighted(P, mu)
        assert spectral._reversible_gaps(W) is None
        report = cb.gap_report(P, mu)
        centred = W.matrix - np.outer(W.sqrt_mu, W.sqrt_mu)
        assert cb.ip_gap(P, mu) == report.eta_p == spectral._ip_gap(W)
        assert report.eta_s == spectral._symmetric_gap(W)
        assert report.eta_a == 1.0 - math.sqrt(spectral._norm_sq(centred))
        assert report.pseudo == _reference_pseudo_gap(W, 20)
        reversible = np.abs(W.matrix - W.matrix.T).max() <= spectral.REVERSIBILITY_TOLERANCE
        assert report.eta == (report.eta_s if reversible else None)

    def test_matches_forty_digit_eigenvalues(self):
        # eta_p = eta_s, eta_a and the pseudo value, each within
        # 8 n eps max(1, ||G||_2) of the exact eigenvalues
        rng = np.random.default_rng(1996)
        chains = [_drift_chain(n, 0.45)[0] for n in (60, 100)]
        chains += [random_reversible(rng, int(rng.integers(3, 13))) for _ in range(60)]
        with mpmath.workdps(40):
            for P in chains:
                mu = cb.stationary_distribution(P)
                W = cb.embed_weighted(P, mu)
                assert spectral._reversible_gaps(W) is not None
                report = cb.gap_report(P, mu)
                eta, eta_a, pseudo = _exact_gaps(P)
                scale = 8 * P.n_states * np.finfo(float).eps
                scale *= max(1.0, float(np.linalg.norm(W.generator, 2)))
                for got, want in ((report.eta_p, eta), (report.eta_s, eta),
                                  (report.eta_a, eta_a), (report.pseudo.value, pseudo)):
                    assert abs(got - want) <= scale
