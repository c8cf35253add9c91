import itertools
import math
import time
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

import chainbounds as cb
from chainbounds import errors, exact_oracle
from chainbounds.chain_core import _check_states
from chainbounds.examples import zero_absolute_gap_chain
from conftest import random_generator, random_transition


def _uniform(n):
    return cb.make_distribution(np.full(n, 1.0 / n))


# The two structural identities behind the moment bounds: the action of
# P - I on conditional MGFs, and the time derivative of the continuous MGF.
# They check steps of the proof, not answers, so they live with the tests.


class LaplacianCheck(NamedTuple):
    lhs: float
    rhs: float
    gap: float


def verify_laplacian_identity(P, f, theta: float, n: int, z: int) -> LaplacianCheck:
    """Check the action of P - I on the conditional MGF at state z.

    The left side is ``(P G_n - G_n)(z)`` from transfer products. The right
    side enumerates all length-(n+1) paths from z and evaluates, per path,
    ``prob * theta (f(z_{n+1}) - f(z_1)) * (e^B - e^A)/(B - A)`` with
    A, B the theta-scaled sums over the first and last n states (the
    interpolation factor degenerates to e^A when B = A). The two agree to
    floating error; ``gap`` must stay below 1e-10 * max(1, |lhs|) on sane
    inputs. Raises TooLarge when |states|^(n+1) exceeds the enumeration cap.
    """
    fv = _check_states(P, f)
    m = P.n_states
    if not 0 <= z < m:
        raise errors.DimensionMismatch(f"state index {z} out of range")
    cap = exact_oracle.PATH_ENUMERATION_CAP
    if m ** (n + 1) > cap:
        raise errors.TooLarge(f"{m}^{n + 1} paths exceed the cap {cap}")
    u, log_scale = exact_oracle._log_conditional_mgf(P, fv, theta, n)
    G = u * math.exp(log_scale)
    lhs = float((P.entries @ G - G)[z])

    # totals cover z_{1:n+1}; the head sum drops the last state, the tail
    # sum drops the first (which is the fixed start z)
    probs, totals, last = exact_oracle._expand_paths(P, np.eye(m)[z], n, fv)
    A = theta * (totals - fv[last])
    B = theta * (totals - fv[z])
    d = B - A
    base = np.exp(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        interp = np.where(np.abs(d) > 1e-300, base * np.expm1(d) / d, base)
    rhs = float(np.sum(probs * theta * (fv[last] - fv[z]) * interp))
    return LaplacianCheck(lhs, rhs, abs(lhs - rhs))


class APrimeCheck(NamedTuple):
    lhs: float
    rhs: float
    gap: float


def verify_a_prime_identity(Q, f, theta: float, t: float, mu=None) -> APrimeCheck:
    """Check d/dt of the stationary MGF against its closed form.

    With a(t) the MGF started from mu, the derivative equals
    ``sum_z mu(z) theta f(z) G_t(z)``. The left side is a central finite
    difference with step ~6e-6 max(1, t); the gap should stay below
    max(1e-6, 1e-4 |lhs|).
    """
    if t <= 0:
        raise errors.InvalidQuery("t must be > 0")
    import scipy.linalg

    fv = _check_states(Q, f)
    if mu is None:
        mu = cb.stationary_distribution(Q)
    ones = np.ones(Q.n_states)
    tilted = Q.entries + theta * np.diag(fv)
    expm_t = scipy.linalg.expm(t * tilted)
    h = 6e-6 * max(1.0, abs(t))
    step_fwd = scipy.linalg.expm(h * tilted)
    step_bwd = scipy.linalg.expm(-h * tilted)
    a_fwd = float(mu.weights @ (expm_t @ step_fwd) @ ones)
    a_bwd = float(mu.weights @ (expm_t @ step_bwd) @ ones)
    lhs = (a_fwd - a_bwd) / (2.0 * h)
    rhs = float(np.sum(mu.weights * theta * fv * (expm_t @ ones)))
    return APrimeCheck(lhs, rhs, abs(lhs - rhs))


def _brute_conditional(P, fv, theta, n, z):
    m = P.n_states
    total = 0.0
    for tail in itertools.product(range(m), repeat=n - 1):
        path = (z,) + tail
        prob = 1.0
        for a, b in zip(path[:-1], path[1:]):
            prob *= P.entries[a, b]
        total += prob * math.exp(theta * sum(fv[s] for s in path))
    return total


class TestExactMgfDiscrete:
    def test_theta_zero_is_one(self):
        rng = np.random.default_rng(0)
        P = random_transition(rng, 4)
        mu = cb.stationary_distribution(P)
        f = cb.make_observable(rng.normal(size=4), mu)
        assert cb.exact_mgf(P, mu, f, 0.0, 7) == pytest.approx(1.0, rel=1e-14)

    def test_flip_chain_two_steps_cancel(self):
        P = cb.validate_transition_matrix([[0, 1], [1, 0]])
        mu = _uniform(2)
        f = np.array([1.0, -1.0])
        for theta in (-2.0, -0.3, 0.5, 3.0):
            assert cb.exact_mgf(P, mu, f, theta, 2) == pytest.approx(1.0, rel=1e-14)

    def test_iid_rows_factorize(self):
        rng = np.random.default_rng(5)
        w = rng.dirichlet(np.ones(3))
        P = cb.validate_transition_matrix(np.tile(w, (3, 1)))
        mu = cb.make_distribution(w)
        fv = rng.normal(size=3)
        theta, n = 0.4, 6
        got = cb.exact_mgf(P, mu, fv, theta, n)
        expected = float(w @ np.exp(theta * fv)) ** n
        assert got == pytest.approx(expected, rel=1e-12)

    def test_log_form_matches(self):
        rng = np.random.default_rng(9)
        P = random_transition(rng, 3)
        mu = cb.stationary_distribution(P)
        fv = rng.normal(size=3)
        val = cb.exact_mgf(P, mu, fv, 0.6, 12)
        logval = cb.exact_log_mgf(P, mu, fv, 0.6, 12)
        assert math.log(val) == pytest.approx(logval, abs=1e-12)

    def test_long_horizon_no_overflow_in_log(self):
        P = cb.validate_transition_matrix([[0.9, 0.1], [0.2, 0.8]])
        mu = cb.stationary_distribution(P)
        fv = np.array([1.0, -1.0])
        logval = cb.exact_log_mgf(P, mu, fv, 1.0, 10_000)
        assert math.isfinite(logval) and logval > 700  # plain value would overflow

    def test_representable_near_double_max(self):
        # the constant f = 1 at theta = 0.5 gives log MGF = n / 2 exactly
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        mu, fv = _uniform(2), np.array([1.0, 1.0])
        got = cb.exact_mgf(P, mu, fv, 0.5, 1419)
        assert got == math.exp(709.5) == 1.3549863193146328e308
        # log(DBL_MAX) = 709.78...: one step further overflows
        assert cb.exact_mgf(P, mu, fv, 0.5, 1420) == math.inf

    def test_convex_in_theta_and_one_at_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            P = random_transition(rng, 4)
            mu = cb.stationary_distribution(P)
            f = cb.make_observable(rng.normal(size=4), mu)
            vals = {
                t: cb.exact_mgf(P, mu, f, t, 6)
                for t in (-0.4, -0.2, 0.0, 0.2, 0.4)
            }
            assert vals[0.0] == pytest.approx(1.0, rel=1e-13)
            assert vals[0.0] <= 0.5 * (vals[-0.2] + vals[0.2]) + 1e-12
            assert vals[0.2] <= 0.5 * (vals[0.0] + vals[0.4]) + 1e-12
            assert vals[-0.2] <= 0.5 * (vals[-0.4] + vals[0.0]) + 1e-12


def _reference_log_conditional_mgf(P, fv, theta, horizons):
    """The full rescaled iteration, without replay, read at every horizon.

    One pass up to max(horizons). Returns ``(out, period)``: ``out[n]`` holds
    the u that ``n - 1`` transfer steps and the final tilt give, with the
    log-scale terms of those steps (their exact sum is the log scale);
    ``period`` is the number of steps between the rescaled vector's first
    bit-for-bit repeat and the step it repeats, None if none shows.
    """
    tf = theta * fv
    shift = float(tf.max())
    w = np.exp(tf - shift)
    u = np.ones(P.n_states)
    terms, first, period = [shift], {u.tobytes(): 1}, None
    out = {}
    for n in range(1, max(horizons) + 1):
        if n > 1:
            u = P.entries @ (w * u)
            m = float(u.max())
            u /= m
            terms.append(shift + math.log(m))
            key = u.tobytes()
            if period is None and key in first:
                period = n - first[key]
            elif period is None:
                first[key] = n
        if n in horizons:
            v = w * u
            m = float(v.max())
            out[n] = (v / m, terms + [math.log(m)])
    return out, period


class _CountedProducts(np.ndarray):
    """Transition entries that count the transfer products taken with them."""

    calls = 0

    def __matmul__(self, other):
        self.calls += 1
        return np.asarray(self) @ other


def _counted(P):
    return cb.TransitionMatrix(P.entries.view(_CountedProducts))


def _replay_chain(rng, k, kind):
    P = random_transition(rng, k, sparsify=0.6 if kind == "sparse" else 0.0)
    if kind == "lazy":  # slow mixing: most mass stays put each step
        P = cb.validate_transition_matrix(0.95 * np.eye(k) + 0.05 * P.entries)
    return P


class TestOracleReplay:
    """The cycle replay keeps u bit for bit and sums the log scale to fsum accuracy."""

    THETAS = (0.0, 1e-3, -1e-3, 4.0)

    def _compare(self, cases):
        # cases: (P, fv, theta, horizons); returns (n, period) for every
        # compared horizon, with period None where the replay never fired
        # (every transfer product ran)
        periods = []
        for P, fv, theta, horizons in cases:
            want, period = _reference_log_conditional_mgf(P, fv, theta, horizons)
            counted = _counted(P)
            for n in horizons:
                counted.entries.calls = 0
                u, log_scale = exact_oracle._log_conditional_mgf(counted, fv, theta, n)
                ref_u, terms = want[n]
                assert u.tobytes() == ref_u.tobytes(), (P.n_states, theta, n)
                slack = 2 * np.finfo(float).eps * math.fsum(map(abs, terms))
                assert abs(log_scale - math.fsum(terms)) <= slack, (P.n_states, theta, n)
                periods.append((n, period if counted.entries.calls < n - 1 else None))
        return periods

    def test_bit_identical_to_full_iteration(self):
        rng = np.random.default_rng(1980)
        cases = []
        for i in range(50):
            k = 2 + (i * 37) % 59  # sizes 2..60
            P = _replay_chain(rng, k, ("dense", "sparse", "lazy")[i % 3])
            fv = rng.normal(size=k)
            for theta in self.THETAS:
                cases.append((P, fv, theta, (1, 2, 3, 100, 2000)))
        periods = self._compare(cases)
        assert len(periods) >= 1000
        # 166 replays with a period above 1 (up to 39); 49 runs of 100 steps
        # or more where every transfer product ran
        assert sum(p is not None and p > 1 for _, p in periods) >= 100
        assert sum(p is None and n >= 100 for n, p in periods) >= 20

    def test_bounded_window_bit_identical(self, monkeypatch):
        # a 3-term window misses longer periods and closes many windows
        monkeypatch.setattr(exact_oracle, "_REPLAY_TERMS", 3)
        rng = np.random.default_rng(31)
        cases = []
        for i in range(12):
            k = int(rng.integers(2, 30))
            P = _replay_chain(rng, k, ("dense", "sparse", "lazy")[i % 3])
            cases.append((P, rng.normal(size=k), self.THETAS[i % 4], (2, 100, 2000)))
        periods = self._compare(cases)
        assert {p for _, p in periods} - {None} <= {1, 2, 3}
        assert any(p is not None and p > 1 for _, p in periods)

    def test_long_horizon_bit_identical(self):
        rng = np.random.default_rng(8)
        cases = []
        for k, kind in ((3, "lazy"), (12, "dense"), (40, "sparse")):
            P = _replay_chain(rng, k, kind)
            fv = rng.normal(size=k)
            cases.append((P, fv, 0.5, (1, 2, 3, 100, 2000, 10**5)))
        periods = self._compare(cases)
        assert periods[-1][1] is not None

    def test_exact_mgf_at_a_million_steps(self):
        rng = np.random.default_rng(20)
        P = random_transition(rng, 20)
        mu = cb.stationary_distribution(P)
        f = cb.make_observable(rng.normal(size=20), mu)
        theta, n = 0.01, 10**6
        want, _ = _reference_log_conditional_mgf(P, f.values, theta, (n,))
        u, terms = want[n]
        log_mgf = cb.exact_log_mgf(P, mu, f, theta, n)
        eps = np.finfo(float).eps
        slack = 2 * eps * math.fsum(map(abs, terms)) + eps
        assert abs(log_mgf - math.log(float(mu.weights @ u)) - math.fsum(terms)) <= slack
        assert cb.exact_mgf(P, mu, f, theta, n) == math.exp(log_mgf)

    def test_horizon_past_double_range_in_constant_time(self):
        # n = 10^30 replays whole periods at once; the log MGF grows as n
        # times the log Perron root of P diag(e^(theta f))
        P = cb.validate_transition_matrix([[0.9, 0.1], [0.2, 0.8]])
        mu = cb.stationary_distribution(P)
        f = cb.make_observable([1.0, -1.0], mu)
        n = 10**30
        start = time.perf_counter()
        got = cb.exact_log_mgf(P, mu, f, 0.1, n)
        assert time.perf_counter() - start < 1.0
        rho = max(abs(np.linalg.eigvals(P.entries * np.exp(0.1 * f.values))))
        assert got == pytest.approx(n * math.log(rho), rel=1e-12)
        assert got == pytest.approx(2.025e28, rel=1e-3)

    def test_matches_mpmath_at_ten_thousand_steps(self):
        mpmath.mp.dps = 40
        P = cb.validate_transition_matrix([[0.9, 0.1], [0.2, 0.8]])
        mu = cb.stationary_distribution(P)
        f = cb.make_observable([1.0, -1.0], mu)
        theta, n = 0.1, 10**4
        tilt = mpmath.diag([mpmath.exp(mpmath.mpf(theta) * float(x)) for x in f.values])
        kernel = mpmath.matrix(P.entries.tolist()) * tilt
        start = mpmath.matrix([[float(x) for x in mu.weights]]) * tilt
        want = (start * kernel ** (n - 1) * mpmath.matrix([1, 1]))[0]
        got = cb.exact_mgf(P, mu, f, theta, n)
        assert float(abs(got - want) / want) <= 1e-12


def _point_mass(m, z):
    return cb.make_distribution(np.eye(m)[z])


def _from_each_state(op, f, theta, horizon):
    # the MGF conditional on the start state: exact_mgf from each point mass
    return np.array([cb.exact_mgf(op, _point_mass(op.n_states, z), f, theta, horizon)
                     for z in range(op.n_states)])


class TestConditionalMgf:
    def test_one_step_is_exponential(self):
        rng = np.random.default_rng(3)
        P = random_transition(rng, 3)
        fv = rng.normal(size=3)
        got = _from_each_state(P, fv, 0.7, 1)
        assert np.abs(got - np.exp(0.7 * fv)).max() <= 1e-14

    def test_theta_zero_all_ones(self):
        P = zero_absolute_gap_chain()
        got = _from_each_state(P, np.array([1.0, 0, 0, -1.0]), 0.0, 5)
        assert np.abs(got - 1.0).max() <= 1e-13

    def test_four_state_matches_path_enumeration(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        got = _from_each_state(P, f, 0.5, 3)
        brute = np.array([_brute_conditional(P, f.values, 0.5, 3, z) for z in range(4)])
        assert np.abs(got - brute).max() <= 1e-13

    def test_mu_average_matches_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            P = random_transition(rng, int(rng.integers(2, 6)))
            mu = cb.stationary_distribution(P)
            fv = rng.normal(size=P.n_states)
            theta = float(rng.uniform(-0.8, 0.8))
            n = int(rng.integers(1, 9))
            cond = _from_each_state(P, fv, theta, n)
            whole = cb.exact_mgf(P, mu, fv, theta, n)
            assert float(mu.weights @ cond) == pytest.approx(whole, rel=1e-12)
            assert (cond > 0).all()

    def test_symmetrized_transfer_form_agrees(self):
        # same MGF through the half-tilted inner-product form
        # <e^(tf/2), (E P E)^(n-1) e^(tf/2)>_mu with E = diag(e^(tf/2))
        rng = np.random.default_rng(44)
        P = random_transition(rng, 4)
        mu = cb.stationary_distribution(P)
        fv = rng.normal(size=4)
        theta, n = 0.45, 7
        half = np.exp(0.5 * theta * fv)
        core = P.entries * np.outer(half, half)
        vec = np.linalg.matrix_power(core, n - 1) @ half
        sym_form = float(mu.weights @ (half * vec))
        assert sym_form == pytest.approx(
            cb.exact_mgf(P, mu, fv, theta, n), rel=1e-12
        )

    def test_continuous_conditional_mu_average(self):
        rng = np.random.default_rng(45)
        Q = random_generator(rng, 3)
        mu = cb.stationary_distribution(Q)
        fv = rng.normal(size=3)
        cond = _from_each_state(Q, fv, 0.3, 1.7)
        whole = cb.exact_mgf(Q, mu, fv, 0.3, 1.7)
        assert float(mu.weights @ cond) == pytest.approx(whole, rel=1e-12)
        assert (cond > 0).all()

    @pytest.mark.filterwarnings("error")
    def test_past_double_range_no_nan(self):
        # log_scale >= 709 and u underflows to 0 in state 1: the value from
        # state 0 is inf, and the one from state 1 (about e^733, past double
        # range too) is a typed Overflow, never 0 or nan
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        f = np.array([1.0, -800.0])
        assert cb.exact_mgf(P, _point_mass(2, 0), f, 1.0, 5000) == math.inf
        assert math.isfinite(cb.exact_log_mgf(P, _point_mass(2, 0), f, 1.0, 5000))
        with pytest.raises(errors.Overflow):
            cb.exact_mgf(P, _point_mass(2, 1), f, 1.0, 5000)

    @pytest.mark.filterwarnings("error")
    def test_past_double_range_keeps_representable_entries(self):
        # E[e^(sum f)] from each state of the identity chain is e^(n f(z)):
        # e^750 overflows, e^600 does not
        P = cb.validate_transition_matrix(np.eye(2))
        got = _from_each_state(P, np.array([1.0, 0.8]), 1.0, 750)
        assert got[0] == math.inf
        assert got[1] == pytest.approx(math.exp(600.0), rel=1e-12)


class TestLaplacianIdentity:
    def test_constant_f_trivial(self):
        P = zero_absolute_gap_chain()
        chk = verify_laplacian_identity(P, np.zeros(4), 0.9, 3, 0)
        assert chk.lhs == pytest.approx(0.0, abs=1e-15)
        assert chk.rhs == pytest.approx(0.0, abs=1e-15)

    def test_theta_zero_trivial(self):
        rng = np.random.default_rng(2)
        P = random_transition(rng, 3)
        chk = verify_laplacian_identity(P, rng.normal(size=3), 0.0, 3, 1)
        assert chk.lhs == pytest.approx(0.0, abs=1e-14)
        assert chk.gap <= 1e-14

    def test_random_three_state(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            P = random_transition(rng, 3)
            fv = rng.normal(size=3)
            theta = float(rng.uniform(-1, 1))
            n = int(rng.integers(1, 5))
            z = int(rng.integers(3))
            chk = verify_laplacian_identity(P, fv, theta, n, z)
            assert chk.gap <= 1e-10 * max(1.0, abs(chk.lhs))

    def test_enumeration_cap(self):
        rng = np.random.default_rng(1)
        P = random_transition(rng, 10)
        with pytest.raises(errors.TooLarge):
            verify_laplacian_identity(P, np.zeros(10), 0.5, 7, 0)


class TestExactMgfContinuous:
    def test_time_zero(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        assert cb.exact_mgf(Q, mu, np.array([1.0, -1.0]), 0.4, 0.0) == 1.0

    def test_theta_zero_semigroup_preserves_one(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        assert cb.exact_mgf(Q, mu, np.array([1.0, -1.0]), 0.0, 3.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_matches_time_discretized_product(self):
        # independent oracle: 3rd-order Taylor stepping at h = 1e-4
        Q = cb.validate_generator([[-1, 1], [1, -1]])
        mu = cb.stationary_distribution(Q)
        fv = np.array([1.0, -1.0])
        theta, t = 0.35, 1.0
        got = cb.exact_mgf(Q, mu, fv, theta, t)
        A = Q.entries + theta * np.diag(fv)
        h = 1e-4
        Ah = h * A
        step = np.eye(2) + Ah + Ah @ Ah / 2 + Ah @ Ah @ Ah / 6
        prod = np.eye(2)
        for _ in range(int(round(t / h))):
            prod = prod @ step
        oracle = float(mu.weights @ prod @ np.ones(2))
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_random_generators_against_product(self):
        rng = np.random.default_rng(33)
        Q = random_generator(rng, 3)
        mu = cb.stationary_distribution(Q)
        f = cb.make_observable(rng.normal(size=3), mu)
        theta, t = 0.25, 0.8
        got = cb.exact_mgf(Q, mu, f, theta, t)
        A = Q.entries + theta * np.diag(f.values)
        h = 1e-4
        Ah = h * A
        step = np.eye(3) + Ah + Ah @ Ah / 2 + Ah @ Ah @ Ah / 6
        prod = np.eye(3)
        for _ in range(int(round(t / h))):
            prod = prod @ step
        oracle = float(mu.weights @ prod @ np.ones(3))
        assert got == pytest.approx(oracle, rel=1e-6)


class TestAPrimeIdentity:
    def test_zero_observable(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        chk = verify_a_prime_identity(Q, np.zeros(2), 0.5, 1.0)
        assert chk.lhs == pytest.approx(0.0, abs=1e-9)
        assert chk.rhs == 0.0

    def test_two_state_hand_case(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        f = cb.make_observable([1.0, -1.0], mu)
        chk = verify_a_prime_identity(Q, f, 0.3, 1.0)
        assert chk.gap <= 1e-6

    def test_random_instances(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            Q = random_generator(rng, int(rng.integers(2, 5)))
            mu = cb.stationary_distribution(Q)
            f = cb.make_observable(rng.normal(size=Q.n_states), mu)
            theta = float(rng.uniform(-0.6, 0.6))
            t = float(rng.uniform(0.2, 3.0))
            chk = verify_a_prime_identity(Q, f, theta, t, mu)
            assert chk.gap <= max(1e-6, 1e-4 * abs(chk.lhs))


class TestExactTailDiscrete:
    def test_delta_zero_certain(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        assert cb.exact_tail_discrete(P, mu, np.array([1.0, 0, 0, -1.0]), 5, 0.0) == 1.0

    def test_delta_above_sup_impossible(self):
        P = zero_absolute_gap_chain()
        mu = _uniform(4)
        assert cb.exact_tail_discrete(P, mu, np.array([1.0, 0, 0, -1.0]), 5, 1.5) == 0.0

    def test_non_finite_delta(self):
        # a NaN delta is rejected; an infinite one is a certain miss
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        mu, f = _uniform(2), np.array([1.0, -1.0])
        with pytest.raises(errors.InvalidQuery):
            cb.exact_tail_discrete(P, mu, f, 4, math.nan)
        assert cb.exact_tail_discrete(P, mu, f, 4, math.inf) == 0.0

    def test_flip_chain_cancellation(self):
        P = cb.validate_transition_matrix([[0, 1], [1, 0]])
        mu = _uniform(2)
        assert cb.exact_tail_discrete(P, mu, np.array([1.0, -1.0]), 2, 0.5) == 0.0

    def test_dp_against_brute_force(self):
        rng = np.random.default_rng(8)
        P = random_transition(rng, 3)
        mu = cb.stationary_distribution(P)
        fv = np.array([0.75, -0.5, 0.25])
        for n, delta in [(2, 0.1), (4, 0.3), (7, 0.45)]:
            got = cb.exact_tail_discrete(P, mu, fv, n, delta)
            brute = 0.0
            for path in itertools.product(range(3), repeat=n):
                prob = mu.weights[path[0]]
                for a, b in zip(path[:-1], path[1:]):
                    prob *= P.entries[a, b]
                if abs(sum(fv[s] for s in path)) >= n * delta - 1e-12:
                    brute += prob
            assert got == pytest.approx(brute, abs=1e-13)

    def test_dp_and_enumeration_agree(self):
        rng = np.random.default_rng(18)
        P = random_transition(rng, 4)
        mu = cb.stationary_distribution(P)
        grid_f = np.array([1.0, -0.75, 0.25, -0.5])  # DP route
        rough_f = grid_f + np.array([0.0, math.pi * 1e-4, 0.0, 0.0])  # enumeration route
        for n, delta in [(6, 0.2), (9, 0.4)]:
            dp_val = cb.exact_tail_discrete(P, mu, grid_f, n, delta)
            # same grid values fed through the enumeration path
            from chainbounds.exact_oracle import _expand_paths

            probs, totals, _ = _expand_paths(P, mu.weights, n - 1, grid_f)
            enum_val = float(
                probs[np.abs(totals) >= n * delta - 1e-12 * max(1, n * delta)].sum()
            )
            assert dp_val == pytest.approx(enum_val, abs=1e-12)
            # the perturbed values cannot use the DP grid but still work
            assert 0.0 <= cb.exact_tail_discrete(P, mu, rough_f, n, delta) <= 1.0

    def test_cap_enforced(self):
        rng = np.random.default_rng(2)
        P = random_transition(rng, 10)
        mu = cb.stationary_distribution(P)
        with pytest.raises(errors.TooLarge):
            cb.exact_tail_discrete(P, mu, rng.normal(size=10), 8, 0.2)

    def test_cap_decided_without_the_power(self):
        # 2^(10^12) would take 125 GB to build; the check needs only n
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        f = np.array([1.0, -1.0])
        start = time.perf_counter()
        with pytest.raises(errors.TooLarge, match=r"^2\^1000000000000 paths exceed"):
            cb.exact_tail_discrete(P, _uniform(2), f, 10**12, 0.1)
        assert time.perf_counter() - start < 1.0

    def test_dp_work_capped(self):
        # one state, n = 2 * 10^4: 4 * 10^8 cell-steps took 1.75 s uncapped
        P = cb.validate_transition_matrix([[1.0]])
        start = time.perf_counter()
        with pytest.raises(errors.TooLarge, match="cell-steps, above"):
            exact_oracle._tail_by_dp(P, _uniform(1), 0.0, np.array([1]), 1, 2 * 10**4, 0.5)
        assert time.perf_counter() - start < 1.0
        # f - f(0) is 0: the offset grid needs one cell
        assert cb.exact_tail_discrete(P, _uniform(1), np.array([1.0]), 2 * 10**4, 0.5) == 1.0

    def test_dp_work_counts_the_dense_push(self):
        # 300 dense states, n = 577: 576 x 578 x 300 cell-steps sit just under
        # 10^8, but each step's push makes 300^2 x 578 multiply-adds, and the
        # DP took 2.5 s (one BLAS thread)
        m, n = 300, 577
        P = random_transition(np.random.default_rng(5), m)
        multiples = np.arange(m) % 2
        assert (n - 1) * (n + 1) * m < 10**8
        start = time.perf_counter()
        with pytest.raises(errors.TooLarge, match="cell-steps, above"):
            exact_oracle._tail_by_dp(P, _uniform(m), 0.0, multiples, 1, n, 0.5)
        assert time.perf_counter() - start < 1.0
        # a short horizon on the same chain still runs; at delta 0 every path counts
        tail = exact_oracle._tail_by_dp(P, _uniform(m), 0.0, multiples, 1, 3, 0.0)
        assert tail == pytest.approx(1.0, abs=1e-12)

    def test_centred_integer_f_runs_the_dp(self):
        # centring moves integer values off every grid of f itself, and at
        # n = 50 the paths far exceed the enumeration cap: only the DP on the
        # grid of f - f(0) answers. The reference runs a DP over the integer
        # sums K of the raw f and counts |K - n E_mu f| >= n delta
        rng = np.random.default_rng(21)
        k = int(rng.integers(2, 7))
        P = random_transition(rng, k)
        mu = cb.stationary_distribution(P)
        raw = rng.integers(-3, 4, size=k)
        f = cb.make_observable(raw, mu)
        n, mean = 50, float(mu.weights @ raw)
        dp = np.zeros((k, 6 * n + 1))
        dp[np.arange(k), raw + 3 * n] = mu.weights
        for _ in range(n - 1):
            pushed = P.entries.T @ dp
            dp = np.stack([np.roll(pushed[j], raw[j]) for j in range(k)])
        sums = np.arange(-3 * n, 3 * n + 1) - n * mean
        for delta in (0.05 * f.M, 0.2 * f.M):
            want = float(dp.sum(axis=0)[np.abs(sums) >= n * delta].sum())
            assert cb.exact_tail_discrete(P, mu, f, n, delta) == pytest.approx(want, abs=1e-14)

    def test_offset_grid_matches_enumeration(self):
        rng = np.random.default_rng(22)
        cases = 0
        for _ in range(40):
            m, n = int(rng.integers(2, 4)), int(rng.integers(1, 11))
            P = random_transition(rng, m)
            init = cb.make_distribution(rng.dirichlet(np.ones(m)))
            fv = cb.make_observable(rng.integers(-3, 4, size=m), init).values
            multiples, denom = exact_oracle._common_grid(fv - fv[0])
            probs, totals, _ = exact_oracle._expand_paths(P, init.weights, n - 1, fv)
            for delta in rng.uniform(0.0, 3.0, size=3):
                dp = exact_oracle._tail_by_dp(P, init, float(fv[0]), multiples, denom, n, delta)
                hits = np.abs(totals) >= n * delta - 1e-12 * max(1.0, n * delta)
                assert abs(dp - float(probs[hits].sum())) <= 1e-15
                assert cb.exact_tail_discrete(P, init, fv, n, delta) == (dp if fv.any() else 0.0)
                cases += 1
        assert cases == 120

    def test_generator_rejected(self):
        # a jump process has no step distribution to sum over
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        mu = cb.stationary_distribution(Q)
        for n in (3, 0):
            with pytest.raises(errors.DimensionMismatch, match="^exact tails need a "
                               "transition matrix, not GeneratorMatrix$"):
                cb.exact_tail_discrete(Q, mu, np.array([1.0, -1.0]), n, 0.5)

    def test_point_mass_start(self):
        P = cb.validate_transition_matrix([[0, 1], [1, 0]])
        nu = cb.make_distribution([1.0, 0.0])
        # start at state 0: sum over 3 steps is f0+f1+f0 = 1 exactly
        val = cb.exact_tail_discrete(P, nu, np.array([1.0, -1.0]), 3, 1.0 / 3.0)
        assert val == 1.0


# The chain MGF oracles as they stood before exact_mgf and exact_log_mgf
# served both time scales, kept as the reference the folded functions must
# reproduce bit for bit from the same kernel. The horizon check that the
# discrete replay used to make is restated in _ref_log_conditional_mgf.

def _ref_log_conditional_mgf(P, fv, theta, n):
    if n < 1:
        raise errors.InvalidQuery("horizon n must be >= 1")
    return exact_oracle._log_conditional_mgf(P, fv, theta, n)


def _ref_exact_mgf_discrete(P, init, f, theta, n):
    fv = _check_states(P, f, init)
    u, log_scale = _ref_log_conditional_mgf(P, fv, theta, n)
    r = float(init.weights @ u)
    try:
        return math.exp(math.log(r) + log_scale)
    except OverflowError:
        return math.inf


def _ref_exact_log_mgf_discrete(P, init, f, theta, n):
    fv = _check_states(P, f)
    u, log_scale = _ref_log_conditional_mgf(P, fv, theta, n)
    return math.log(float(init.weights @ u)) + log_scale


def _same_bits(got, want):
    return np.float64(got).tobytes() == np.float64(want).tobytes()


def _outcome(call, *args):
    try:
        return call(*args)
    except (errors.ChainBoundsError, ValueError) as exc:
        return type(exc)


class TestFoldMatchesReference:
    """The folded oracles equal the old chain ones bit for bit, or raise alike;
    on jump processes they match 50-digit mpmath."""

    def _compare(self, new, ref, *args):
        got, want = _outcome(new, *args), _outcome(ref, *args)
        if isinstance(want, type):
            assert got is want, (ref.__name__, args[2:])
        else:
            assert not isinstance(got, type) and _same_bits(got, want), (ref.__name__, args[2:])
        return want

    def _check_chain(self, P, init, fv, theta, n):
        return [
            self._compare(cb.exact_mgf, _ref_exact_mgf_discrete, P, init, fv, theta, n),
            self._compare(cb.exact_log_mgf, _ref_exact_log_mgf_discrete, P, init, fv, theta, n),
        ]

    def test_bit_identical_on_seeded_grid(self):
        replays = 0
        mismatch = errors.DimensionMismatch
        rng = np.random.default_rng(2026)
        for i in range(150):
            k = 1 + i % 12
            fv = rng.normal(size=k)
            init = cb.make_distribution(rng.dirichlet(np.ones(k)))
            x = float(rng.uniform(0.05, 2.0))
            # one chain in seven is lazy: slow to mix, so its replay starts late
            P = _counted(_replay_chain(rng, k, ("dense", "sparse", "lazy")[min(2, i % 7 // 3)]))
            for theta in (0.0, -x, x):
                for n in (1, 2, 7, 500, 20000):
                    P.entries.calls = 0
                    self._check_chain(P, init, fv, theta, n)
                    replays += P.entries.calls < 3 * (n - 1)
            assert self._check_chain(P, init, fv, x, 0) == [errors.InvalidQuery] * 2
            assert self._check_chain(P, init, fv[:-1], x, 1) == [mismatch] * 2
        assert replays >= 300

    def test_jump_matches_mpmath(self):
        # 50 digits; t = 1 and 7.5 are the 100th and 750th powers of t = 0.01
        mpmath.mp.dps = 50
        rng = np.random.default_rng(2020)
        worst = 0.0
        for i in range(100):
            k = 2 + i % 6
            Q = random_generator(rng, k, rate_scale=float(rng.uniform(0.1, 3.0)))
            fv = rng.normal(size=k)
            init = cb.make_distribution(rng.dirichlet(np.ones(k)))
            theta = float(rng.uniform(-2.0, 2.0))
            tilted = mpmath.matrix(Q.entries.tolist()) + mpmath.diag(
                [mpmath.mpf(theta) * float(x) for x in fv])
            step = mpmath.expm(tilted / 100)
            for t, power in ((0.01, 1), (1.0, 100), (7.5, 750)):
                want = step**power * mpmath.matrix([1] * k)
                got = _from_each_state(Q, fv, theta, t)
                for z in range(k):
                    worst = max(worst, float(abs(got[z] - want[z]) / want[z]))
                whole = mpmath.fsum(float(w) * want[z] for z, w in enumerate(init.weights))
                mgf = cb.exact_mgf(Q, init, fv, theta, t)
                worst = max(worst, float(abs(mgf - whole) / whole))
                assert cb.exact_log_mgf(Q, init, fv, theta, t) == pytest.approx(
                    float(mpmath.log(whole)), abs=1e-13)
            assert cb.exact_mgf(Q, init, fv, theta, 0.0) == 1.0
            assert _outcome(cb.exact_mgf, Q, init, fv[:-1], theta, 1.0) is errors.DimensionMismatch
            assert _outcome(cb.exact_mgf, Q, init, fv, theta, -1.0) is errors.InvalidQuery
        assert worst <= 1e-13

    def test_overflow_and_underflow_cases(self):
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        mu, fv = _uniform(2), np.array([1.0, 1.0])
        for n in (1419, 1420):
            self._check_chain(P, mu, fv, 0.5, n)
        assert _ref_exact_mgf_discrete(P, mu, fv, 0.5, 1420) == math.inf
        low = np.array([1.0, -800.0])
        assert self._check_chain(P, _point_mass(2, 0), low, 1.0, 5000)[0] == math.inf


class TestOracleInputs:
    P = cb.validate_transition_matrix([[0.9, 0.1], [0.2, 0.8]])
    Q = cb.validate_generator([[-1, 1], [2, -2]])
    F = np.array([1.0, -1.0])

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["chain", "jump"])
    def test_non_finite_theta_is_typed(self, theta, kind):
        op = self.P if kind == "chain" else self.Q
        mu = cb.stationary_distribution(op)
        calls = [
            lambda: cb.exact_mgf(op, mu, self.F, theta, 3),
            lambda: cb.exact_log_mgf(op, mu, self.F, theta, 3),
        ]
        for call in calls:
            with pytest.raises(errors.InvalidQuery,
                               match=r"^theta must be a real number in \[-max float, max float\]$"):
                call()

    @pytest.mark.parametrize("kind", ["chain", "jump"])
    def test_wrong_length_init_is_typed(self, kind):
        op = self.P if kind == "chain" else self.Q
        for call in (cb.exact_mgf, cb.exact_log_mgf):
            with pytest.raises(errors.DimensionMismatch, match="init distribution"):
                call(op, _uniform(3), self.F, 0.3, 4)

    def test_negative_t_rejected(self):
        mu = cb.stationary_distribution(self.Q)
        for call in (cb.exact_mgf, cb.exact_log_mgf):
            with pytest.raises(errors.InvalidQuery,
                               match=r"^horizon t must be a real number in \[0, max float\]$"):
                call(self.Q, mu, self.F, 0.3, -2.0)

    @pytest.mark.parametrize("n", [2.5, np.float64(3.0), "3"])
    def test_chain_horizon_not_an_integer_is_typed(self, n):
        mu = cb.stationary_distribution(self.P)
        with pytest.raises(errors.InvalidQuery,
                           match=r"^horizon n must be an integer in \[1, max float\], got "):
            cb.exact_log_mgf(self.P, mu, self.F, 0.1, n)

    @pytest.mark.parametrize("t", ["3", None])
    def test_jump_horizon_not_a_number_is_typed(self, t):
        mu = cb.stationary_distribution(self.Q)
        with pytest.raises(errors.InvalidQuery,
                           match=r"^horizon t must be a real number in \[0, max float\], got "):
            cb.exact_log_mgf(self.Q, mu, self.F, 0.1, t)

    def test_chain_horizon_past_float_is_typed(self):
        # whole periods are counted in doubles, so n must convert to one
        mu = cb.stationary_distribution(self.P)
        for call in (cb.exact_mgf, cb.exact_log_mgf):
            with pytest.raises(errors.InvalidQuery,
                               match=r"^horizon n must be an integer in \[1, max float\]$"):
                call(self.P, mu, self.F, 0.1, 10**400)

    @pytest.mark.parametrize("n", [5, 5000])
    def test_chain_underflow_is_typed(self, n):
        # the rescaled MGF from state 1 underflows to 0; the true MGF is
        # positive (about e^734 at n = 5000), so neither 0 nor a log is right
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        init = cb.make_distribution([0.0, 1.0])
        for call in (cb.exact_mgf, cb.exact_log_mgf):
            with pytest.raises(errors.Overflow):
                call(P, init, np.array([1.0, -800.0]), 1.0, n)

    @pytest.mark.filterwarnings("error")
    def test_jump_log_mgf_underflow_is_typed(self):
        # the MGF itself underflows to 0.0, but the Perron shift keeps its log:
        # with f = 1 the integral is t exactly, so the log MGF is theta t
        mu = cb.stationary_distribution(self.Q)
        assert cb.exact_mgf(self.Q, mu, np.ones(2), -200.0, 7.5) == 0.0
        assert cb.exact_log_mgf(self.Q, mu, np.ones(2), -200.0, 7.5) == -1500.0
        # a horizon whose exponent leaves double range is still typed
        with pytest.raises(errors.Overflow):
            cb.exact_log_mgf(self.Q, mu, self.F, 0.3, 1e308)

    def test_jump_log_mgf_is_log_of_mgf(self):
        mu = cb.stationary_distribution(self.Q)
        for t in (0.0, 1.7, 30.0):
            log_mgf = cb.exact_log_mgf(self.Q, mu, self.F, 0.3, t)
            assert cb.exact_mgf(self.Q, mu, self.F, 0.3, t) == math.exp(log_mgf)
        assert cb.exact_log_mgf(self.Q, mu, self.F, 0.3, 0.0) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_jump_log_mgf_at_long_horizons(self):
        # the log MGF grows as t times the Perron root of Q + theta diag f,
        # far past the t where exp(t (Q + theta diag f)) overflows
        mu = cb.stationary_distribution(self.Q)
        f = cb.make_observable(self.F, mu)
        rate = max(np.linalg.eigvals(self.Q.entries + 0.3 * np.diag(f.values)).real)
        logs = {t: cb.exact_log_mgf(self.Q, mu, f, 0.3, t) for t in (5e3, 2e4, 1e6)}
        assert (logs[2e4] - logs[5e3]) / 1.5e4 == pytest.approx(rate, rel=1e-12)
        assert logs[1e6] == pytest.approx(24807.67, rel=1e-6)
