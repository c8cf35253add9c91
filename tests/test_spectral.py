import json
import math

import numpy as np
import pytest

import chainbounds as cb
from chainbounds import errors, spectral
from chainbounds.examples import skew_matrix, zero_absolute_gap_chain
from conftest import random_reversible, random_transition

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

    def test_laplacian_requires_invariant_mu(self):
        P = cb.validate_transition_matrix([[0.9, 0.1], [0.5, 0.5]])
        with pytest.raises(errors.NotInvariant):
            cb.embed_weighted(P, _uniform(2))


class TestIpGap:
    def test_flip_chain_attains_cap(self):
        P = cb.validate_transition_matrix([[0, 1], [1, 0]])
        assert cb.ip_gap(P, _uniform(2)) == pytest.approx(2.0, abs=1e-12)

    def test_identity_chain_zero(self):
        P = cb.validate_transition_matrix(np.eye(2))
        assert cb.ip_gap(P, _uniform(2)) == pytest.approx(0.0, abs=1e-14)

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
        # gap 4 exceeds the chain's deflation constant; the generator
        # path must scale its shift
        Q = cb.validate_generator([[-2, 2], [2, -2]])
        mu = cb.stationary_distribution(Q)
        assert cb.ip_gap(Q, mu) == pytest.approx(4.0, abs=1e-12)


class TestSymmetricAndAbsoluteGap:
    def test_four_state_values(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        assert cb.symmetric_gap(P, mu) == pytest.approx(0.5, abs=1e-12)
        assert cb.absolute_gap(P, mu) == pytest.approx(0.0, abs=1e-10)

    def test_flip_chain(self):
        P = cb.validate_transition_matrix([[0, 1], [1, 0]])
        mu = _uniform(2)
        assert cb.symmetric_gap(P, mu) == pytest.approx(2.0, abs=1e-12)
        assert cb.absolute_gap(P, mu) == pytest.approx(0.0, abs=1e-12)

    def test_lazy_reversible(self):
        P = cb.validate_transition_matrix([[0.7, 0.3], [0.3, 0.7]])
        mu = _uniform(2)
        assert cb.symmetric_gap(P, mu) == pytest.approx(0.6, abs=1e-12)
        assert cb.absolute_gap(P, mu) == pytest.approx(0.6, abs=1e-12)

    def test_projector_chain_full_gap(self):
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        assert cb.absolute_gap(P, _uniform(2)) == pytest.approx(1.0, abs=1e-12)


class TestOrdinaryGap:
    def test_reversible_values(self):
        P = cb.validate_transition_matrix([[0.7, 0.3], [0.3, 0.7]])
        assert cb.ordinary_gap(P, _uniform(2)) == pytest.approx(0.6, abs=1e-12)
        assert cb.ordinary_gap(
            cb.validate_transition_matrix(np.eye(2)), _uniform(2)
        ) == pytest.approx(0.0, abs=1e-14)

    def test_nonreversible_rejected(self):
        with pytest.raises(errors.NotReversible):
            cb.ordinary_gap(zero_absolute_gap_chain(), _uniform(4))

    def test_reversible_consistency_fuzz(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            P = random_reversible(rng, int(rng.integers(2, 10)))
            mu = cb.stationary_distribution(P)
            assert abs(cb.ordinary_gap(P, mu) - cb.symmetric_gap(P, mu)) <= 1e-10
            # eigenvalue route for the absolute gap of a reversible chain
            W = cb.embed_weighted(P, mu).matrix
            ev = np.linalg.eigvalsh(0.5 * (W + W.T))
            lam_abs = max(abs(ev[0]), abs(ev[-2]))
            assert abs(cb.absolute_gap(P, mu) - (1.0 - lam_abs)) <= 1e-10


class TestPseudoGap:
    def test_flip_chain_zero_for_all_k(self):
        P = cb.validate_transition_matrix([[0, 1], [1, 0]])
        res = cb.pseudo_gap(P, _uniform(2), k_max=4)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.k_max == 4

    def test_projector_chain(self):
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        res = cb.pseudo_gap(P, _uniform(2), k_max=1)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.k == 1

    def test_reversible_squaring(self):
        P = cb.validate_transition_matrix([[0.7, 0.3], [0.3, 0.7]])
        res = cb.pseudo_gap(P, _uniform(2), k_max=1)
        assert res.value == pytest.approx(1.0 - 0.4**2, abs=1e-12)

    def test_four_state_truncation(self):
        res = cb.pseudo_gap(zero_absolute_gap_chain(), _uniform(4), k_max=20)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.k == 2


class TestIteratedPoincare:
    def test_constant_h_trivial(self):
        P = zero_absolute_gap_chain()
        chk = cb.verify_iterated_poincare(P, _uniform(4), np.ones(4))
        assert chk.lhs == pytest.approx(0.0, abs=1e-15)
        assert chk.holds

    def test_equality_at_minimizer(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            P = random_transition(rng, int(rng.integers(2, 10)))
            mu = cb.stationary_distribution(P)
            gap, h = cb.ip_gap_minimizer(P, mu)
            chk = cb.verify_iterated_poincare(P, mu, h, eta_p=gap)
            assert chk.holds
            assert chk.lhs == pytest.approx(chk.rhs, rel=1e-8)

    def test_random_h_fuzz(self):
        rng = np.random.default_rng(14)
        P = random_transition(rng, 6)
        mu = cb.stationary_distribution(P)
        eta = cb.ip_gap(P, mu)
        for _ in range(100):
            chk = cb.verify_iterated_poincare(P, mu, rng.normal(size=6), eta_p=eta)
            assert chk.holds

    def test_generator_form(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        gap, h = cb.ip_gap_minimizer(Q, mu)
        chk = cb.verify_iterated_poincare(Q, mu, h, eta_p=gap)
        assert chk.holds and chk.lhs == pytest.approx(chk.rhs, rel=1e-8)

    def test_gap_zero_cases(self):
        P = cb.validate_transition_matrix(np.eye(2))
        mu = _uniform(2)
        chk = cb.verify_iterated_poincare(P, mu, np.ones(2), eta_p=0.0)
        assert chk.holds and chk.rhs == math.inf
        with pytest.raises(errors.GapZero):
            cb.verify_iterated_poincare(P, mu, np.array([1.0, -1.0]), eta_p=0.0)


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

    def test_grid_refinement_monotone(self):
        rng = np.random.default_rng(77)
        B = rng.normal(size=(4, 4))
        coarse = cb.numerical_radius_complex(B, grid_points=90)
        fine = cb.numerical_radius_complex(B, grid_points=720)
        assert fine >= coarse - 1e-14

    def test_grid_points_floor(self):
        with pytest.raises(errors.DimensionMismatch):
            cb.numerical_radius_complex(np.eye(2), grid_points=4)

    def test_complex_power_inequality_sample(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            B = rng.normal(size=(n, n))
            w = cb.numerical_radius_complex(B)
            B = B / w
            assert cb.numerical_radius_complex(B @ B) <= 1.0 + 2e-3


class TestGapReport:
    def test_report_roundtrip_json(self):
        P = zero_absolute_gap_chain()
        report = cb.gap_report(P)
        blob = json.dumps(report.to_dict())
        again = cb.GapReport.from_dict(json.loads(blob))
        assert again == report

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
            mu = cb.stationary_distribution(P)
            eta_p = cb.ip_gap(P, mu)
            eta_s = cb.symmetric_gap(P, mu)
            eta_a = cb.absolute_gap(P, mu)
            assert eta_p >= eta_s - 1e-9 >= eta_a - 2e-9
            assert eta_p > 0 and eta_s > 0
            assert eta_p <= 2.0 + 1e-12
            assert eta_a >= -1e-12
