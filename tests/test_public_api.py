"""The package's public names, pinned so that a change to them is deliberate."""

import dataclasses
import math

import numpy as np
import pytest

import chainbounds as cb
from chainbounds import errors

PUBLIC = [
    "BoundQuery", "BoundResult", "ChainBoundsError", "ChainData", "Distribution", "GapReport", "GeneratorMatrix", "Observable", "PseudoGapResult",
    "SimConfig", "SimReport", "TransitionMatrix", "WeightedOperator",
    "bound_sweep", "c_theta", "check_invariant", "clopper_pearson", "embed_weighted", "empirical_mgf", "empirical_tail", "exact_log_mgf", "exact_mgf",
    "exact_tail_discrete", "gap_report", "ip_gap", "is_irreducible", "load_chain",
    "make_distribution", "make_observable", "mgf_bound",
    "numerical_radius_complex", "numerical_radius_real", "optimal_theta", "parse_chain",
    "radon_nikodym_norm", "stationary_distribution", "tail_bound", "validate_generator",
    "validate_transition_matrix",
]


def test_all_is_pinned():
    assert len(PUBLIC) == 39
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(cb.__all__) == PUBLIC


def test_every_name_resolves():
    for name in cb.__all__:
        assert getattr(cb, name) is not None, name


def test_sim_config_fields_are_pinned():
    # the replication plan only: per-estimate inputs (delta, theta) are arguments
    fields = [field.name for field in dataclasses.fields(cb.SimConfig)]
    assert fields == ["replicas", "seed", "init", "n", "t", "alpha"]


def test_bound_query_fields_are_pinned():
    # one horizon, n steps or a time t by mode, as mgf_bound and the oracles take it
    fields = [field.name for field in dataclasses.fields(cb.BoundQuery)]
    assert fields == ["mode", "delta", "M", "sigma2", "eta_p", "p", "nu_norm", "horizon", "q"]


# One row per scalar input of a public entry point; each refuses every kind
# of non-number (and NaN) with InvalidQuery, never TypeError or ValueError.
_P = cb.validate_transition_matrix([[0.9, 0.1], [0.2, 0.8]])
_Q = cb.validate_generator([[-1.0, 1.0], [2.0, -2.0]])
_MU = cb.stationary_distribution(_P)
_F = cb.make_observable([1.0, -1.0], _MU)
_CONFIG = cb.SimConfig(replicas=10, seed=0, init=_MU, n=3)
_START = cb.make_distribution([1.0, 0.0])  # the point mass at state 0
_QUERY = {"mode": "discrete", "horizon": 5, "delta": 0.1, "M": 1.0, "sigma2": 0.1, "eta_p": 1.0}


def _query(**changes):
    return cb.BoundQuery(**{**_QUERY, **changes})


def _sim_config(**changes):
    return cb.SimConfig(**{"replicas": 10, "seed": 0, "init": _MU, "n": 3, **changes})


SCALAR_INPUTS = {
    "BoundQuery.delta": lambda x: _query(delta=x),
    "BoundQuery.M": lambda x: _query(M=x),
    "BoundQuery.sigma2": lambda x: _query(sigma2=x),
    "BoundQuery.eta_p": lambda x: _query(eta_p=x),
    "BoundQuery.nu_norm": lambda x: _query(nu_norm=x),
    # the horizon in each mode, named n and t as the exact_mgf rows are
    "BoundQuery.n": lambda x: _query(horizon=x),
    "BoundQuery.t": lambda x: _query(mode="continuous", horizon=x),
    "c_theta.theta": lambda x: cb.c_theta(x, 1.0, 1.0),
    "c_theta.M": lambda x: cb.c_theta(0.1, x, 1.0),
    "c_theta.eta_p": lambda x: cb.c_theta(0.1, 1.0, x),
    "optimal_theta.delta": lambda x: cb.optimal_theta("discrete", x, 1.0, 0.5, 1.0, 1.0),
    "optimal_theta.M": lambda x: cb.optimal_theta("discrete", 0.1, x, 0.5, 1.0, 1.0),
    "optimal_theta.sigma": lambda x: cb.optimal_theta("discrete", 0.1, 1.0, x, 1.0, 1.0),
    "optimal_theta.eta_p": lambda x: cb.optimal_theta("continuous", 0.1, 1.0, 0.5, x, 1.0),
    "optimal_theta.q": lambda x: cb.optimal_theta("discrete", 0.1, 1.0, 0.5, 1.0, x),
    "mgf_bound.theta": lambda x: cb.mgf_bound("discrete", x, 5, 1.0, 0.5, 1.0),
    "mgf_bound.horizon": lambda x: cb.mgf_bound("continuous", 0.1, x, 1.0, 0.5, 1.0),
    "mgf_bound.M": lambda x: cb.mgf_bound("discrete", 0.1, 5, x, 0.5, 1.0),
    "mgf_bound.sigma": lambda x: cb.mgf_bound("discrete", 0.1, 5, 1.0, x, 1.0),
    "mgf_bound.eta_p": lambda x: cb.mgf_bound("discrete", 0.1, 5, 1.0, 0.5, x),
    "bound_sweep.delta": lambda x: cb.bound_sweep(_query(), "delta", [0.1, x]),
    "bound_sweep.eta_p": lambda x: cb.bound_sweep(_query(), "eta_p", [x]),
    # the MGF conditional on the start state is exact_mgf from a point mass
    "conditional_mgf.theta": lambda x: cb.exact_mgf(_P, _START, _F, x, 3),
    "exact_mgf.theta": lambda x: cb.exact_mgf(_P, _MU, _F, x, 3),
    "exact_mgf.n": lambda x: cb.exact_mgf(_P, _MU, _F, 0.1, x),
    "exact_mgf.t": lambda x: cb.exact_mgf(_Q, _MU, _F, 0.1, x),
    "exact_log_mgf.theta": lambda x: cb.exact_log_mgf(_Q, _MU, _F, x, 1.0),
    "exact_tail_discrete.delta": lambda x: cb.exact_tail_discrete(_P, _MU, _F, 3, x),
    "empirical_mgf.theta": lambda x: cb.empirical_mgf(_CONFIG, _P, _F, x),
    "empirical_tail.delta": lambda x: cb.empirical_tail(_CONFIG, _P, _F, [0.1, x]),
    "SimConfig.replicas": lambda x: _sim_config(replicas=x),
    "SimConfig.seed": lambda x: _sim_config(seed=x),
    "SimConfig.n": lambda x: _sim_config(n=x),
    "SimConfig.t": lambda x: _sim_config(n=None, t=x),
    "SimConfig.alpha": lambda x: _sim_config(alpha=x),
    "clopper_pearson.successes": lambda x: cb.clopper_pearson(x, 10),
    "clopper_pearson.trials": lambda x: cb.clopper_pearson(1, x),
    "clopper_pearson.alpha": lambda x: cb.clopper_pearson(1, 10, x),
    "gap_report.k_max": lambda x: cb.gap_report(_P, _MU, k_max=x),
}
NOT_NUMBERS = {"bool": True, "str": "0.1", "None": None, "complex": 1j, "NaN": math.nan}
CASES = [(entry, kind) for entry in SCALAR_INPUTS for kind in NOT_NUMBERS
         if (entry, kind) != ("gap_report.k_max", "None")]  # None skips the pseudo gap


@pytest.mark.parametrize("entry, kind", CASES)
def test_scalar_input_that_is_no_number_fails_typed(entry, kind):
    with pytest.raises(errors.InvalidQuery):
        SCALAR_INPUTS[entry](NOT_NUMBERS[kind])


# One row per path question that reads f; each refuses every f that is not a
# vector of finite reals, one per state, with DimensionMismatch.
_CONFIG_T = cb.SimConfig(replicas=10, seed=0, init=_MU, t=1.0)
F_READERS = {
    "exact_mgf.chain": lambda f: cb.exact_mgf(_P, _MU, f, 0.1, 3),
    "exact_mgf.jump": lambda f: cb.exact_mgf(_Q, _MU, f, 0.1, 1.0),
    "exact_log_mgf": lambda f: cb.exact_log_mgf(_P, _MU, f, 0.1, 3),
    "exact_tail_discrete": lambda f: cb.exact_tail_discrete(_P, _MU, f, 3, 0.1),
    "empirical_tail.chain": lambda f: cb.empirical_tail(_CONFIG, _P, f, [0.1]),
    "empirical_tail.jump": lambda f: cb.empirical_tail(_CONFIG_T, _Q, f, [0.1]),
    "empirical_mgf.chain": lambda f: cb.empirical_mgf(_CONFIG, _P, f, 0.1),
    "empirical_mgf.jump": lambda f: cb.empirical_mgf(_CONFIG_T, _Q, f, 0.1),
    "make_observable": lambda f: cb.make_observable(f, _MU),
}
NOT_F = {
    "str": "ab",
    "numeric str": ["1", "-1"],
    "NaN": [math.nan, 1.0],
    "inf": [math.inf, 1.0],
    "-inf": [1.0, -math.inf],
    "2-D": [[1.0, -1.0], [0.5, -0.5]],
    "bool": [True, False],
    "too short": [1.0],
}


@pytest.mark.parametrize("entry", F_READERS)
@pytest.mark.parametrize("kind", NOT_F)
def test_f_that_is_no_finite_vector_fails_typed(entry, kind):
    with pytest.raises(errors.DimensionMismatch, match="^observable values "):
        F_READERS[entry](NOT_F[kind])


@pytest.mark.parametrize("entry", F_READERS)
def test_f_as_observable_or_vector(entry):
    # every reader takes an Observable and a plain vector of reals alike
    F_READERS[entry](_F)
    F_READERS[entry](np.array([1, -1]))
