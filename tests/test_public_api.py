"""The package's public names, pinned so that a change to them is deliberate."""

import dataclasses

import chainbounds as cb

PUBLIC = [
    "BoundQuery", "BoundResult", "ChainBoundsError", "ChainData", "ConditionalMgf",
    "Distribution", "GapReport", "GeneratorMatrix", "Observable", "PseudoGapResult",
    "SimConfig", "SimReport", "TransitionMatrix", "WeightedOperator",
    "bound_sweep", "c_theta", "check_invariant", "clopper_pearson", "conditional_mgf",
    "embed_weighted", "empirical_mgf", "empirical_tail", "exact_log_mgf", "exact_mgf",
    "exact_tail_discrete", "gap_report", "ip_gap", "is_irreducible", "load_chain",
    "make_distribution", "make_observable", "mgf_bound",
    "numerical_radius_complex", "numerical_radius_real", "optimal_theta", "parse_chain",
    "radon_nikodym_norm", "stationary_distribution", "tail_bound", "validate_generator",
    "validate_transition_matrix",
]


def test_all_is_pinned():
    assert len(PUBLIC) == 41
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(cb.__all__) == PUBLIC


def test_every_name_resolves():
    for name in cb.__all__:
        assert getattr(cb, name) is not None, name


def test_sim_config_fields_are_pinned():
    # the replication plan only: per-estimate inputs (delta, theta) are arguments
    fields = [field.name for field in dataclasses.fields(cb.SimConfig)]
    assert fields == ["replicas", "seed", "init", "n", "t", "alpha"]
