import dataclasses
import json
import math

import numpy as np
import pytest

import chainbounds as cb
from chainbounds import errors
from chainbounds.cli import SWEEP_CSV_HEADER, sweep_to_csv


def _query(**overrides):
    base = dict(
        mode="discrete", n=1000, delta=0.1, M=1.0, sigma2=0.1, eta_p=1.0,
        p=math.inf, nu_norm=1.0,
    )
    base.update(overrides)
    return cb.BoundQuery(**base)


class TestCTheta:
    def test_zero(self):
        assert cb.c_theta(0.0, 1.0, 1.0) == 1.0

    def test_quarter_point(self):
        eta, M = 1.3, 0.7
        assert cb.c_theta(eta / (4 * M), M, eta) == pytest.approx(math.sqrt(3) / 2)

    def test_boundary_excluded(self):
        with pytest.raises(errors.ThetaOutOfRange):
            cb.c_theta(0.5, 1.0, 1.0)
        with pytest.raises(errors.ThetaOutOfRange):
            cb.c_theta(-0.5, 1.0, 1.0)


class TestMgfBounds:
    def test_discrete_at_zero(self):
        assert cb.mgf_bound("discrete", 0.0, 10, 1.0, 1.0, 1.0) == 1.0

    def test_discrete_hand_value(self):
        # n=10, sigma=M=1, eta_p=1, theta=1/4: exp(10 * (1/16) * 8 / sqrt(3/4))
        val = cb.mgf_bound("discrete", 0.25, 10, 1.0, 1.0, 1.0)
        assert val == pytest.approx(math.exp(5.0 / math.sqrt(0.75)), rel=1e-12)

    def test_doubling_n_squares(self):
        a = cb.mgf_bound("discrete", 0.2, 7, 1.0, 0.5, 1.2)
        b = cb.mgf_bound("discrete", 0.2, 14, 1.0, 0.5, 1.2)
        assert b == pytest.approx(a**2, rel=1e-12)

    def test_continuous_trivial_points(self):
        assert cb.mgf_bound("continuous", 0.7, 0.0, 1.0, 1.0, 4.0) == 1.0
        assert cb.mgf_bound("continuous", 0.0, 3.0, 1.0, 1.0, 4.0) == 1.0

    def test_continuous_hand_value(self):
        val = cb.mgf_bound("continuous", 1.0, 1.0, 1.0, 1.0, 4.0)
        assert val == pytest.approx(math.exp(0.5 / math.sqrt(0.75)), rel=1e-12)

    def test_theta_domain_enforced(self):
        with pytest.raises(errors.ThetaOutOfRange):
            cb.mgf_bound("discrete", 0.5, 5, 1.0, 1.0, 1.0)


class TestOptimalTheta:
    def test_zero_delta(self):
        assert cb.optimal_theta("discrete", 0.0, 1.0, 0.3, 1.0, 1.0) == 0.0
        assert cb.optimal_theta("continuous", 0.0, 1.0, 0.3, 1.0, 1.0) == 0.0

    def test_hand_value(self):
        # (2 + 6)^2 * 0.1 + 0.01 = 6.41
        theta = cb.optimal_theta("discrete", 0.1, 1.0, math.sqrt(0.1), 1.0, 1.0)
        assert theta == pytest.approx(0.1 / (2 * math.sqrt(6.41)), rel=1e-12)

    def test_large_delta_limit_is_boundary(self):
        eta, M, q = 1.4, 0.8, 2.0
        theta = cb.optimal_theta("discrete", 1e12, M, 1.0, eta, q)
        assert theta == pytest.approx(eta / (2 * q * M), rel=1e-6)

    def test_domain_guard_when_sigma_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            delta = float(rng.uniform(0, 5))
            M = float(rng.uniform(0.1, 3))
            sigma = float(rng.uniform(0.01, 1)) * M
            eta = float(rng.uniform(0.05, 2))
            q = float(rng.uniform(1, 4))
            for theta in (
                cb.optimal_theta("discrete", delta, M, sigma, eta, q),
                cb.optimal_theta("continuous", delta, M, sigma, eta, q),
            ):
                assert abs(q * theta) < eta / (2 * M)


class TestTailBoundDiscrete:
    def test_zero_delta_vacuous(self):
        res = cb.tail_bound(_query(delta=0.0, nu_norm=1.5))
        assert res.probability_bound == pytest.approx(3.0)
        assert res.exponent == 0.0
        assert res.vacuous

    def test_hand_value(self):
        res = cb.tail_bound(_query())
        assert res.exponent == pytest.approx(-10.0 / (4 * math.sqrt(6.41)), rel=1e-12)
        assert res.probability_bound == pytest.approx(
            2 * math.exp(-10.0 / (4 * math.sqrt(6.41))), rel=1e-12
        )
        assert not res.vacuous

    def test_doubling_n_squares_exp_part(self):
        a = cb.tail_bound(_query(n=1000))
        b = cb.tail_bound(_query(n=2000))
        assert b.probability_bound / 2 == pytest.approx(
            (a.probability_bound / 2) ** 2, rel=1e-12
        )

    def test_c_identity_at_optimum(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = _query(
                delta=float(rng.uniform(0.01, 2)),
                M=float(rng.uniform(0.5, 2)),
                sigma2=float(rng.uniform(0.01, 0.25)),
                eta_p=float(rng.uniform(0.05, 2)),
                p=float(rng.uniform(1.01, 20)),
            )
            res = cb.tail_bound(q)
            sigma = math.sqrt(q.sigma2)
            radical = math.sqrt((2 + 6 * q.eta_p) ** 2 * q.sigma2 + q.delta**2)
            assert res.c_theta == pytest.approx(
                (2 + 6 * q.eta_p) * sigma / radical, abs=1e-12
            )
            # Pythagorean identity of the optimal point
            assert res.c_theta**2 + (
                2 * q.q * res.theta_used * q.M / q.eta_p
            ) ** 2 == pytest.approx(1.0, abs=1e-12)
            assert res.c_theta == pytest.approx(
                cb.c_theta(q.q * res.theta_used, q.M, q.eta_p), abs=1e-12
            )

    def test_chernoff_assembly_consistency(self):
        # the closed form equals the assembled Markov/Chernoff expression at
        # the displayed theta exactly; at or above that theta the assembled
        # curve never drops below it (the displayed theta is the proof's
        # convenient choice, slightly above the literal argmin, so points
        # below it may dip under the closed form)
        rng = np.random.default_rng(6)
        for _ in range(50):
            q = _query(
                n=int(rng.integers(1, 200)),
                delta=float(rng.uniform(0.01, 1.5)),
                M=float(rng.uniform(0.5, 2)),
                sigma2=float(rng.uniform(0.01, 0.2)),
                eta_p=float(rng.uniform(0.1, 2)),
                p=float(rng.choice([math.inf, 2.0, 1.5])),
                nu_norm=float(rng.uniform(1, 3)),
            )
            res = cb.tail_bound(q)
            sigma = math.sqrt(q.sigma2)
            limit = q.eta_p / (2 * q.M * q.q)
            theta_star = res.theta_used
            assert 0 < theta_star < limit

            def assembled(theta):
                mgf = cb.mgf_bound("discrete", q.q * theta, q.n, q.M, sigma, q.eta_p)
                return 2 * q.nu_norm * math.exp(-theta * q.n * q.delta) * mgf ** (1 / q.q)

            assert assembled(theta_star) == pytest.approx(
                res.probability_bound, rel=1e-10
            )
            for frac in (0.0, 0.3, 0.8, 0.999):
                theta = theta_star + frac * (limit * (1 - 1e-9) - theta_star)
                assert assembled(theta) >= res.probability_bound * (1 - 1e-12)

    def test_sigma_zero_boundary_limit(self):
        res = cb.tail_bound(_query(sigma2=0.0, delta=0.5))
        assert res.boundary_limit
        assert res.c_theta == 0.0
        assert res.exponent == pytest.approx(-1000 * 1.0 * 0.5 / 4.0, rel=1e-12)
        assert res.theta_used == pytest.approx(0.5, rel=1e-12)  # eta/(2qM)

    def test_underflow_keeps_exponent(self):
        res = cb.tail_bound(_query(n=10**7, delta=1.0))
        assert res.probability_bound == 0.0
        assert res.exponent < -745
        assert not res.vacuous


class TestTailBoundContinuous:
    def test_zero_delta_vacuous(self):
        res = cb.tail_bound(
            _query(mode="continuous", n=None, t=5.0, delta=0.0)
        )
        assert res.probability_bound == pytest.approx(2.0)
        assert res.vacuous

    def test_hand_value(self):
        res = cb.tail_bound(
            _query(mode="continuous", n=None, t=100.0, delta=0.5, sigma2=0.25, eta_p=3.0)
        )
        assert res.exponent == pytest.approx(-75.0 / (4 * math.sqrt(1.25)), rel=1e-12)
        assert res.probability_bound == pytest.approx(
            2 * math.exp(-75.0 / (4 * math.sqrt(1.25))), rel=1e-12
        )

    def test_time_doubling_squares_exp_part(self):
        a = cb.tail_bound(_query(mode="continuous", n=None, t=10.0))
        b = cb.tail_bound(_query(mode="continuous", n=None, t=20.0))
        assert b.probability_bound / 2 == pytest.approx(
            (a.probability_bound / 2) ** 2, rel=1e-12
        )

    def test_c_identity(self):
        q = _query(mode="continuous", n=None, t=3.0, delta=0.7, sigma2=0.09)
        res = cb.tail_bound(q)
        assert res.c_theta == pytest.approx(
            2 * 0.3 / math.sqrt(4 * 0.09 + 0.49), abs=1e-12
        )
        assert res.theta_used == pytest.approx(
            cb.optimal_theta("continuous", 0.7, 1.0, 0.3, 1.0, 1.0), rel=1e-12
        )


# The discrete and continuous formulas as they stood before the two time
# scales shared one implementation. They are the reference the merged
# functions must reproduce bit for bit, operand order included.

def _ref_mgf_bound_discrete(theta, n, M, sigma, eta_p):
    c = cb.c_theta(theta, M, eta_p)
    return _ref_exp(n * sigma * M * theta**2 * (2.0 + 6.0 * eta_p) / (c * eta_p))


def _ref_mgf_bound_continuous(theta, t, M, sigma, eta_p):
    c = cb.c_theta(theta, M, eta_p)
    return _ref_exp(2.0 * sigma * M * theta**2 * t / (c * eta_p))


def _ref_exp(x):
    return math.exp(x) if x < 709.0 else math.inf


def _ref_optimal_theta_discrete(delta, M, sigma, eta_p, q):
    if delta == 0.0:
        return 0.0
    radical = math.sqrt((2.0 + 6.0 * eta_p) ** 2 * sigma**2 + delta**2)
    return delta * eta_p / (2.0 * q * M * radical)


def _ref_optimal_theta_continuous(delta, M, sigma, eta_p, q):
    if delta == 0.0:
        return 0.0
    radical = math.sqrt(4.0 * sigma**2 + delta**2)
    return delta * eta_p / (2.0 * q * M * radical)


def _ref_result(query, exponent, theta, c, boundary):
    bound = 2.0 * query.nu_norm * math.exp(exponent)
    return cb.BoundResult(bound, exponent, theta, c, bound >= 1.0, boundary)


def _ref_tail_bound_discrete(query):
    sigma = math.sqrt(query.sigma2)
    delta, M, eta, q = query.delta, query.M, query.eta_p, query.q
    theta = _ref_optimal_theta_discrete(delta, M, sigma, eta, q)
    if delta == 0.0:
        return _ref_result(query, 0.0, 0.0, 1.0, False)
    radical = math.sqrt((2.0 + 6.0 * eta) ** 2 * query.sigma2 + delta**2)
    exponent = -query.n * eta * delta**2 / (4.0 * q * M * radical)
    c = (2.0 + 6.0 * eta) * sigma / radical
    return _ref_result(query, exponent, theta, c, sigma == 0.0)


def _ref_tail_bound_continuous(query):
    sigma = math.sqrt(query.sigma2)
    delta, M, eta, q = query.delta, query.M, query.eta_p, query.q
    theta = _ref_optimal_theta_continuous(delta, M, sigma, eta, q)
    if delta == 0.0:
        return _ref_result(query, 0.0, 0.0, 1.0, False)
    radical = math.sqrt(4.0 * query.sigma2 + delta**2)
    exponent = -query.t * eta * delta**2 / (4.0 * q * M * radical)
    c = 2.0 * sigma / radical
    return _ref_result(query, exponent, theta, c, sigma == 0.0)


_REFERENCE = {
    "discrete": (_ref_mgf_bound_discrete, _ref_optimal_theta_discrete, _ref_tail_bound_discrete),
    "continuous": (_ref_mgf_bound_continuous, _ref_optimal_theta_continuous, _ref_tail_bound_continuous),
}


class TestMergedMatchesReference:
    def _cases(self):
        rng = np.random.default_rng(2024)
        for i in range(4000):
            mode = ("discrete", "continuous")[i % 2]
            M = float(rng.uniform(0.1, 5.0))
            eta = float(rng.uniform(0.01, 2.0 if mode == "discrete" else 8.0))
            sigma2 = (0.0, float(rng.uniform(0.0, 1.0)) * M**2)[i % 5 != 0]
            delta = (0.0, float(rng.uniform(0.0, 3.0)) * M)[i % 7 != 0]
            p = (math.inf, float(rng.uniform(1.01, 30.0)))[i % 3 != 0]
            if mode == "discrete":
                # every 11th horizon is long enough that the exponent underflows
                horizon = 10**9 if i % 11 == 0 else int(np.exp(rng.uniform(0.0, 14.0)))
                kw = {"n": horizon}
            else:
                horizon = 1e9 if i % 11 == 0 else (0.0, float(np.exp(rng.uniform(-3.0, 14.0))))[i % 13 != 0]
                kw = {"t": horizon}
            query = cb.BoundQuery(mode=mode, delta=delta, M=M, sigma2=sigma2, eta_p=eta,
                                  p=p, nu_norm=float(rng.uniform(1.0, 3.0)), **kw)
            theta = float(rng.uniform(-1.0, 1.0)) * eta / (2.0 * M) * (1 - 1e-12)
            yield mode, query, horizon, theta

    def test_bit_identical_on_seeded_grid(self):
        underflows = vacuous = 0
        for mode, query, horizon, theta in self._cases():
            ref_mgf, ref_theta, ref_tail = _REFERENCE[mode]
            sigma = math.sqrt(query.sigma2)
            got = cb.tail_bound(query)
            assert got == ref_tail(query)
            assert cb.optimal_theta(mode, query.delta, query.M, sigma, query.eta_p, query.q) == \
                ref_theta(query.delta, query.M, sigma, query.eta_p, query.q)
            for th in (theta, 0.0):
                assert cb.mgf_bound(mode, th, horizon, query.M, sigma, query.eta_p) == \
                    ref_mgf(th, horizon, query.M, sigma, query.eta_p)
            underflows += got.probability_bound == 0.0 and got.exponent < -745
            vacuous += got.vacuous
        assert underflows > 0 and vacuous > 0

    def test_horizon_and_mode_validated(self):
        with pytest.raises(errors.InvalidQuery):
            cb.mgf_bound("discrete", 0.1, 0, 1.0, 1.0, 1.0)
        with pytest.raises(errors.InvalidQuery):
            cb.mgf_bound("continuous", 0.1, -1.0, 1.0, 1.0, 1.0)
        with pytest.raises(errors.InvalidQuery):
            cb.optimal_theta("hourly", 0.1, 1.0, 1.0, 1.0, 1.0)
        # a typed error, not ZeroDivisionError at M = 0 or a silent inf
        bad_calls = [
            (cb.mgf_bound, "discrete", 0.1, 5, 0.0, 1.0, 1.0),
            (cb.c_theta, 0.1, 0.0, 1.0),
            (cb.optimal_theta, "continuous", 0.1, 0.0, 1.0, 1.0, 1.0),
            (cb.c_theta, 0.1, 1.0, math.nan),
        ]
        for mode in ("discrete", "continuous"):
            bad_calls += [
                (cb.mgf_bound, mode, math.nan, 5, 1.0, 1.0, 1.0),
                (cb.mgf_bound, mode, 0.1, math.nan, 1.0, 1.0, 1.0),
                (cb.mgf_bound, mode, 0.1, math.inf, 1.0, 1.0, 1.0),
                (cb.mgf_bound, mode, 0.1, 10**400, 1.0, 1.0, 1.0),
            ]
        for func, *args in bad_calls:
            with pytest.raises(errors.InvalidQuery):
                func(*args)

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_spread_and_deviation_validated(self, mode):
        # sigma and delta must be finite and >= 0, and q >= 1, as BoundQuery
        # requires: no inf bound for a NaN sigma, no bound below 1 for a
        # negative one, no NaN or negative theta
        for sigma in (math.nan, -1.0, math.inf):
            with pytest.raises(errors.InvalidQuery, match="^sigma must be finite and >= 0$"):
                cb.mgf_bound(mode, 0.1, 5, 1.0, sigma, 1.0)
            with pytest.raises(errors.InvalidQuery, match="^sigma must be finite and >= 0$"):
                cb.optimal_theta(mode, 0.1, 1.0, sigma, 1.0, 1.0)
        for delta in (math.nan, -0.1, math.inf):
            with pytest.raises(errors.InvalidQuery, match="^delta must be finite and >= 0$"):
                cb.optimal_theta(mode, delta, 1.0, 1.0, 1.0, 1.0)
        for q in (-3.0, 0.5, math.nan, math.inf):
            with pytest.raises(errors.InvalidQuery, match="^q must be finite and >= 1$"):
                cb.optimal_theta(mode, 0.1, 1.0, 1.0, 1.0, q)
        # the boundary values stay valid
        assert cb.mgf_bound(mode, 0.1, 5, 1.0, 0.0, 1.0) == 1.0
        assert cb.optimal_theta(mode, 0.0, 1.0, 0.0, 1.0, 1.0) == 0.0


class TestQueryValidation:
    def test_p_one_rejected_with_degeneracy_message(self):
        with pytest.raises(errors.InvalidQuery, match="vacuous"):
            _query(p=1.0)

    def test_p_infinity_gives_q_one(self):
        assert _query(p=math.inf).q == 1.0
        assert _query(p=2.0).q == 2.0

    def test_domain_errors(self):
        with pytest.raises(errors.InvalidQuery):
            _query(eta_p=0.0)
        with pytest.raises(errors.InvalidQuery):
            _query(M=0.0)
        with pytest.raises(errors.InvalidQuery):
            _query(sigma2=2.0)  # above M^2
        with pytest.raises(errors.InvalidQuery):
            _query(delta=-0.1)
        with pytest.raises(errors.InvalidQuery):
            _query(nu_norm=0.5)
        with pytest.raises(errors.InvalidQuery):
            _query(n=None)
        with pytest.raises(errors.InvalidQuery):
            _query(mode="continuous")  # has n, lacks t

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_horizon_rejected(self, t):
        with pytest.raises(errors.InvalidQuery, match="^horizon t must be finite$"):
            _query(mode="continuous", n=None, t=t)

    def test_untyped_horizon_rejected(self):
        # the one horizon rule of the oracles and the sampler: a whole n, a real t
        with pytest.raises(errors.InvalidQuery, match="^t must be a real number, got '3'$"):
            _query(mode="continuous", n=None, t="3")
        with pytest.raises(errors.InvalidQuery, match="^n must be an integer, got 2.5$"):
            _query(n=2.5)
        with pytest.raises(errors.InvalidQuery, match="^n must be an integer, got 2.5$"):
            cb.mgf_bound("discrete", 0.1, 2.5, 1.0, 1.0, 1.0)
        with pytest.raises(errors.InvalidQuery, match=r"^row 1 \(value 2.5\): n must be an integer"):
            cb.bound_sweep(_query(), "n", [5, 2.5])

    def test_p_rule_shared_with_density_norm(self):
        # one check and one message for p, whichever layer meets it first
        mu = cb.make_distribution([0.5, 0.5])
        with pytest.raises(errors.InvalidP) as from_query:
            _query(p=1.0)
        with pytest.raises(errors.InvalidP) as from_norm:
            cb.radon_nikodym_norm(mu, mu, 1.0)
        assert str(from_query.value) == str(from_norm.value)
        with pytest.raises(errors.InvalidP, match="^p = '2' rejected"):
            _query(p="2")
        assert issubclass(errors.InvalidP, errors.InvalidQuery)

    def test_result_roundtrip(self):
        res = cb.tail_bound(_query())
        blob = json.dumps(dataclasses.asdict(res))
        assert json.loads(blob) == dataclasses.asdict(res)


class TestMonotonicity:
    def test_tail_bound_monotone_axes(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            q = _query(
                n=int(rng.integers(10, 500)),
                delta=float(rng.uniform(0.05, 1.0)),
                M=float(rng.uniform(0.5, 2)),
                sigma2=float(rng.uniform(0.01, 0.2)),
                eta_p=float(rng.uniform(0.1, 1.9)),
                nu_norm=float(rng.uniform(1, 2)),
            )
            base = cb.tail_bound(q).probability_bound
            # nonincreasing in n, delta, eta_p
            assert cb.tail_bound(dataclasses.replace(q, n=q.n + 50)).probability_bound <= base + 1e-15
            assert cb.tail_bound(dataclasses.replace(q, delta=q.delta * 1.1)).probability_bound <= base + 1e-15
            assert cb.tail_bound(dataclasses.replace(q, eta_p=min(q.eta_p * 1.1, 2.0))).probability_bound <= base + 1e-15
            # nondecreasing in M, sigma2, nu_norm
            assert cb.tail_bound(dataclasses.replace(q, M=q.M * 1.1)).probability_bound >= base - 1e-15
            assert cb.tail_bound(dataclasses.replace(q, sigma2=q.sigma2 * 1.1)).probability_bound >= base - 1e-15
            assert cb.tail_bound(dataclasses.replace(q, nu_norm=q.nu_norm * 1.1)).probability_bound >= base - 1e-15


class TestBoundSweep:
    def test_single_vacuous_row(self):
        rows = cb.bound_sweep(_query(), "delta", [0.0])
        assert len(rows) == 1 and rows[0].vacuous

    def test_exponent_doubles_over_n(self):
        rows = cb.bound_sweep(_query(), "n", [1000, 2000])
        assert rows[1].exponent == pytest.approx(2 * rows[0].exponent, rel=1e-12)

    def test_eta_sweep_closed_form(self):
        rows = cb.bound_sweep(_query(), "eta_p", [0.5, 1.0])
        for eta, row in zip((0.5, 1.0), rows):
            radical = math.sqrt((2 + 6 * eta) ** 2 * 0.1 + 0.01)
            assert row.exponent == pytest.approx(-1000 * eta * 0.01 / (4 * radical), rel=1e-12)

    def test_order_preserved(self):
        values = [5000, 10, 700]
        rows = cb.bound_sweep(_query(), "n", values)
        exps = [r.exponent for r in rows]
        assert exps[0] < exps[2] < exps[1]

    def test_invalid_rows_reported_with_index(self):
        with pytest.raises(errors.InvalidQuery, match="row 1"):
            cb.bound_sweep(_query(), "delta", [0.1, -0.2])
        with pytest.raises(errors.InvalidQuery):
            cb.bound_sweep(_query(), "delta", [])
        with pytest.raises(errors.InvalidQuery):
            cb.bound_sweep(_query(), "sigma2", [0.1])

    def test_csv_shape(self):
        values = [1000, 2000]
        rows = cb.bound_sweep(_query(), "n", values)
        csv = sweep_to_csv("n", values, rows)
        lines = csv.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        first = lines[1].split(",")
        assert first[0] == "n" and first[1] == "1000"
        assert first[6] in ("true", "false")
        # full round-trip float precision
        assert float(first[2]) == rows[0].exponent
