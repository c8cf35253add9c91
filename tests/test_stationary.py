"""The blocked GTH stationary solve: closed forms, references and properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import chainbounds as cb
from chainbounds import chain_core
from chainbounds.spectral import ORDERING_SLACK
from conftest import random_generator, random_transition

# deterministic and file-free, so tier-1 runs the same examples every time
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _reference_gth(entries) -> np.ndarray:
    """Unblocked GTH: one rank-1 elimination per state, off-diagonal only."""
    a = np.array(entries, dtype=float)
    n = a.shape[0]
    for k in range(n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    w = np.ones(n)
    for k in range(1, n):
        w[k] = w[:k] @ a[:k, k]
    return w / w.sum()


def _reference_lu(op) -> np.ndarray:
    """LU solve of mu A = 0 with one balance equation replaced by sum(mu) = 1."""
    n = op.n_states
    A = op.entries.T - (np.eye(n) if isinstance(op, cb.TransitionMatrix) else 0.0)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    w = np.linalg.solve(A, b)
    w += np.linalg.solve(A, b - A @ w)
    return w / w.sum()


def _relative_error(got, want) -> float:
    return float(np.abs(got / want - 1.0).max())


def _birth_death(up, down, hold):
    """Birth-death chain, holding at the ends, and its detailed-balance mu."""
    n = len(up)
    idx = np.arange(n)
    a = np.zeros((n, n))
    np.add.at(a, (idx, np.minimum(idx + 1, n - 1)), up)
    np.add.at(a, (idx, np.maximum(idx - 1, 0)), down)
    np.add.at(a, (idx, idx), hold)
    w = np.concatenate([[1.0], np.cumprod(up[:-1] / down[1:])])
    return cb.validate_transition_matrix(a), w / w.sum()


def _drift_chain(n, p_up):
    return _birth_death(np.full(n, p_up), np.full(n, 1.0 - p_up), np.zeros(n))


@pytest.mark.parametrize("n,p_up", [(100, 0.05), (100, 0.45), (30, 0.2)])
def test_drift_chains_match_closed_form(n, p_up):
    P, exact = _drift_chain(n, p_up)
    mu = cb.stationary_distribution(P)
    assert _relative_error(mu.weights, exact) <= 1e-12
    report = cb.gap_report(P, mu)
    assert report.eta is not None
    assert report.eta == report.eta_s
    assert report.eta_p == pytest.approx(report.eta_s, rel=1e-9)


def _boundary_sizes():
    b = chain_core._GTH_BLOCK
    return sorted({1, 2, 63, 64, 65, 129, max(b - 1, 1), b, b + 1, 2 * b + 1})


@pytest.mark.parametrize("n", _boundary_sizes())
def test_blocked_solve_matches_unblocked_reference(n):
    rng = np.random.default_rng(n)
    P = random_transition(rng, n, sparsify=0.5)
    got = cb.stationary_distribution(P).weights
    assert _relative_error(got, _reference_gth(P.entries)) <= 1e-13
    if n > 1:
        Q = random_generator(rng, n, rate_scale=10.0)
        got = cb.stationary_distribution(Q).weights
        assert _relative_error(got, _reference_gth(Q.entries)) <= 1e-13


def test_solve_ignores_the_diagonal():
    P = random_transition(np.random.default_rng(3), 70)
    a = P.entries.copy()
    np.fill_diagonal(a, -7.0)
    want = chain_core._gth_solve(P.entries)
    assert np.array_equal(chain_core._gth_solve(a), want)
    assert np.array_equal(chain_core._gth_solve(P.entries - np.eye(70)), want)


def test_agrees_with_lu_on_seeded_dense_operators():
    rng = np.random.default_rng(1985)
    sizes = [*_boundary_sizes()[1:], *rng.integers(2, 301, size=92)]
    for n in sizes:
        n = int(n)
        for op in (random_transition(rng, n), random_generator(rng, n, rng.uniform(0.1, 10))):
            got = cb.stationary_distribution(op).weights
            assert _relative_error(got, _reference_lu(op)) <= 1e-12


def _check_solution(op) -> cb.Distribution:
    mu = cb.stationary_distribution(op)
    w = mu.weights
    balance = w @ op.entries - (w if isinstance(op, cb.TransitionMatrix) else 0.0)
    scale = max(1.0, float(np.abs(op.entries).max()))
    assert np.abs(balance).max() <= chain_core.STATIONARY_RESIDUAL_TOLERANCE * scale
    assert w.min() > 0
    return mu


def _check_gap_ordering(P, mu) -> cb.GapReport:
    report = cb.gap_report(P, mu, k_max=5)
    assert report.eta_p >= report.eta_s - ORDERING_SLACK
    assert report.eta_s >= report.eta_a - ORDERING_SLACK
    return report


@st.composite
def birth_death_chains(draw):
    n = draw(st.integers(2, 80))
    x = draw(hnp.arrays(float, n, elements=st.floats(0.005, 0.995)))
    hold = draw(hnp.arrays(float, n, elements=st.floats(0.0, 0.5)))
    return _birth_death((1.0 - hold) * x, (1.0 - hold) * (1.0 - x), hold)


@PROPERTY
@given(birth_death_chains())
def test_birth_death_property(chain):
    P, exact = chain
    mu = _check_solution(P)
    assert _relative_error(mu.weights, exact) <= 1e-12
    assert _check_gap_ordering(P, mu).eta is not None


@st.composite
def spread_rate_matrices(draw):
    n = draw(st.integers(2, 12))
    exponents = draw(hnp.arrays(float, (n, n), elements=st.floats(-6.0, 6.0)))
    present = draw(hnp.arrays(bool, (n, n)))
    present[np.arange(n), np.arange(1, n + 1) % n] = True  # a cycle: irreducible
    rates = np.where(present, 10.0**exponents, 0.0)
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return cb.validate_generator(rates)


@PROPERTY
@given(spread_rate_matrices())
def test_spread_rates_property(Q):
    # every generator drawn here is valid and irreducible, so a typed error
    # is a wrongly rejected chain and fails the test
    mu = _check_solution(Q)
    eta_p = cb.gap_report(Q, mu).eta_p
    assert _relative_error(mu.weights, _reference_gth(Q.entries)) <= 1e-12
    assert eta_p >= 0.0


def test_residual_tolerance_scales_with_rates():
    # rates from 1e-6 to 1e6 on 11 states: mu matches the unblocked
    # reference to 7e-16, yet its balance residual is 7e-11 in absolute units
    rng = np.random.default_rng(0)
    n = int(rng.integers(2, 13))
    rates = np.where(rng.random((n, n)) < 0.5, 10.0 ** rng.uniform(-6, 6, (n, n)), 0.0)
    rates[np.arange(n), np.arange(1, n + 1) % n] = 10.0 ** rng.uniform(-6, 6, n)
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    Q = cb.validate_generator(rates)
    mu = _check_solution(Q)
    assert np.abs(mu.weights @ Q.entries).max() > 10 * chain_core.STATIONARY_RESIDUAL_TOLERANCE
    assert _relative_error(mu.weights, _reference_gth(Q.entries)) <= 1e-13


@st.composite
def near_decomposable_chains(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=3))
    n = sum(sizes)
    eps = 10.0 ** draw(st.floats(-12.0, -2.0))
    weights = draw(hnp.arrays(float, (n, n), elements=st.floats(0.01, 1.0)))
    a = np.full((n, n), eps)
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        a[block, block] = weights[block, block]
        start += size
    return cb.validate_transition_matrix(a / a.sum(axis=1)[:, None])


@PROPERTY
@given(near_decomposable_chains())
def test_near_decomposable_property(P):
    # the SV_ZERO_RTOL snap still sets eta_p to 0 on some of these
    # irreducible chains (ROADMAP "Certified gaps on ill-conditioned
    # chains"); they keep the ordering only through ORDERING_SLACK. Every
    # valid irreducible chain must still get an answer, so an error here
    # fails the test
    mu = _check_solution(P)
    _check_gap_ordering(P, mu)


def _index_observable(mu) -> cb.Observable:
    # the state index, centred under mu and scaled to M = 1
    index = cb.make_observable(np.arange(mu.n_states, dtype=float), mu)
    return cb.make_observable(index.values / index.M, mu)


def _assert_oracle_dominated(op, mode, horizon, eta_p):
    # exact MGF at theta = eta_p / (4M) against the theorem's bound, with the
    # slack the CLI's within_bound uses
    mu = cb.stationary_distribution(op)
    f = _index_observable(mu)
    theta = eta_p / (4.0 * f.M)
    exact = cb.exact_mgf(op, mu, f, theta, horizon)
    bound = cb.mgf_bound(mode, theta, horizon, f.M, np.sqrt(f.sigma2), eta_p)
    assert exact <= bound * (1 + 1e-9)


@PROPERTY
@given(birth_death_chains())
def test_birth_death_oracle_dominated(chain):
    P, _ = chain
    eta_p = cb.gap_report(P, k_max=None).eta_p
    _assert_oracle_dominated(P, "discrete", 50, eta_p)


@PROPERTY
@given(spread_rate_matrices())
def test_spread_rates_oracle_dominated(Q):
    # at t = 1/eta_p the bound's exponent is of order one, so it is not lost
    # in rounding against the exact value
    eta_p = cb.gap_report(Q).eta_p
    _assert_oracle_dominated(Q, "continuous", 1.0 / eta_p, eta_p)


# The near-decomposable family is left out: where its eta_p snaps to 0 no
# theta is valid, which belongs to the certified-gap item (ROADMAP
# "Certified gaps on ill-conditioned chains").
