"""Spectral gaps of finite Markov chains and Bernstein-type bound checking.

Computes iterated Poincare, symmetric, absolute, ordinary and (truncated)
pseudo spectral gaps of transition and rate matrices in the mu-weighted
geometry; evaluates the matching exponential-moment and tail bounds with
exact constants; and verifies them against exact transfer-operator /
Feynman-Kac oracles and seeded Monte Carlo simulation.
"""

from .bounds import (
    BoundQuery,
    BoundResult,
    bound_sweep,
    c_theta,
    mgf_bound,
    optimal_theta,
    tail_bound,
)
from .chain_core import (
    ChainData,
    Distribution,
    GeneratorMatrix,
    Observable,
    TransitionMatrix,
    check_invariant,
    is_irreducible,
    load_chain,
    make_distribution,
    make_observable,
    parse_chain,
    radon_nikodym_norm,
    stationary_distribution,
    validate_generator,
    validate_transition_matrix,
)
from .errors import ChainBoundsError
from .exact_oracle import (
    ConditionalMgf,
    conditional_mgf,
    exact_log_mgf,
    exact_mgf,
    exact_tail_discrete,
)
from .simulate import (
    SimConfig,
    SimReport,
    clopper_pearson,
    empirical_mgf,
    empirical_tail,
)
from .spectral import (
    GapReport,
    PseudoGapResult,
    WeightedOperator,
    embed_weighted,
    gap_report,
    ip_gap,
    numerical_radius_complex,
    numerical_radius_real,
)

__version__ = "0.1.0"

__all__ = [
    "BoundQuery",
    "BoundResult",
    "ChainBoundsError",
    "ChainData",
    "ConditionalMgf",
    "Distribution",
    "GapReport",
    "GeneratorMatrix",
    "Observable",
    "PseudoGapResult",
    "SimConfig",
    "SimReport",
    "TransitionMatrix",
    "WeightedOperator",
    "bound_sweep",
    "c_theta",
    "check_invariant",
    "clopper_pearson",
    "conditional_mgf",
    "empirical_mgf",
    "empirical_tail",
    "embed_weighted",
    "exact_log_mgf",
    "exact_mgf",
    "exact_tail_discrete",
    "gap_report",
    "ip_gap",
    "is_irreducible",
    "load_chain",
    "make_distribution",
    "make_observable",
    "mgf_bound",
    "numerical_radius_complex",
    "numerical_radius_real",
    "optimal_theta",
    "parse_chain",
    "radon_nikodym_norm",
    "stationary_distribution",
    "tail_bound",
    "validate_generator",
    "validate_transition_matrix",
]
