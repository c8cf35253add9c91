"""Closed-form Bernstein-type moment and tail bounds with exact constants.

Evaluates, for a chain over n steps or a jump process over time t, with
iterated Poincare gap eta_p and a centred observable with |f| <= M and
Var <= sigma^2. The two time scales share every formula and differ only in
the constant a = 2 + 6 eta_p (discrete) or a = 2 (continuous):

* the exponential-moment bound
  ``exp(a sigma M theta^2 n / (c(theta) eta_p))`` (t in place of n), valid
  for ``|theta| < eta_p / (2 M)`` with
  ``c(theta) = sqrt(1 - 4 theta^2 M^2 / eta_p^2)``;
* the assembled two-sided tail bound
  ``2 ||nu/mu||_{L_p,mu} exp(-n eta_p delta^2 / (4 q M sqrt(a^2 sigma^2 + delta^2)))``,
  where q = p/(p-1).

Exponents are computed first and exponentiated last; bounds at or above 1
are returned with a ``vacuous`` flag, never clamped.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .chain_core import _FINITE, _check_horizon, _check_p, _check_real
from .errors import InvalidQuery, ThetaOutOfRange

_SWEEP_AXES = ("horizon", "delta", "eta_p")


def _exp(x: float) -> float:
    # exponentiation happens last; saturate instead of raising on overflow
    return math.exp(x) if x < 709.0 else math.inf


def _q_from_p(p: float) -> float:
    _check_p(p)
    return 1.0 if math.isinf(p) else p / (p - 1.0)


@dataclass(frozen=True)
class BoundQuery:
    """Inputs of one tail-bound evaluation.

    ``mode`` selects the discrete form, where ``horizon`` is n steps, or the
    continuous one, where it is a time t. ``q = p/(p-1)`` is derived at
    construction; p = inf maps to q = 1 exactly.
    """

    mode: str
    delta: float
    M: float
    sigma2: float
    eta_p: float
    p: float = math.inf
    nu_norm: float = 1.0
    horizon: float = dataclasses.field(kw_only=True)
    q: float = dataclasses.field(init=False)

    def __post_init__(self):
        if self.mode not in ("discrete", "continuous"):
            raise InvalidQuery(f"unknown mode {self.mode!r}")
        _check_horizon(self.mode, self.horizon)
        _check_real("delta", self.delta, 0, _FINITE)
        _check_scales(self.M, self.eta_p)
        _check_real("sigma2", self.sigma2, 0, min((1 + 1e-12) * self.M * self.M, _FINITE))
        _check_real("nu_norm", self.nu_norm, 1, _FINITE)
        object.__setattr__(self, "q", _q_from_p(self.p))


@dataclass(frozen=True)
class BoundResult:
    """One evaluated tail bound.

    ``probability_bound = 2 nu_norm exp(exponent)`` (0.0 when the exponent
    underflows; the exponent is kept). ``boundary_limit`` marks the
    sigma = 0, delta > 0 case where the optimal theta sits on the validity
    boundary and the bound is evaluated as the (well-defined) limit, with
    c_theta = 0.
    """

    probability_bound: float
    exponent: float
    theta_used: float
    c_theta: float
    vacuous: bool
    boundary_limit: bool = False


def _check_scales(M: float, eta_p: float) -> None:
    _check_real("M", M, 0, _FINITE, strict=True)
    _check_real("eta_p", eta_p, 0, _FINITE, strict=True)


def c_theta(theta: float, M: float, eta_p: float) -> float:
    """sqrt(1 - 4 theta^2 M^2 / eta_p^2), defined for |theta| < eta_p / (2M)."""
    _check_scales(M, eta_p)
    _check_real("theta", theta, -math.inf, math.inf)  # an infinite theta is out of range
    limit = eta_p / (2.0 * M)
    if abs(theta) >= limit:
        raise ThetaOutOfRange(theta, limit)
    return math.sqrt(1.0 - (2.0 * theta * M / eta_p) ** 2)


def _a(mode: str, eta_p: float) -> float:
    # the only constant that differs between the two time scales
    if mode == "discrete":
        return 2.0 + 6.0 * eta_p
    if mode == "continuous":
        return 2.0
    raise InvalidQuery(f"unknown mode {mode!r}")


def mgf_bound(mode: str, theta: float, horizon: float, M: float, sigma: float,
              eta_p: float) -> float:
    """Exponential-moment bound for the n-step sum or the integral over [0, t].

    ``horizon`` is n for ``mode='discrete'`` and t for ``'continuous'``;
    ``sigma`` is the standard-deviation bound (sqrt of the variance proxy).
    Always >= 1; equals 1 at theta = 0.
    """
    c = c_theta(theta, M, eta_p)
    a = _a(mode, eta_p)
    _check_horizon(mode, horizon)
    _check_real("sigma", sigma, 0, _FINITE)
    # the operand orders n sigma M theta^2 a (discrete) and a sigma M theta^2 t
    # (continuous) round differently; each mode keeps its own
    lead, trail = (horizon, a) if mode == "discrete" else (a, horizon)
    return _exp(lead * sigma * M * theta**2 * trail / (c * eta_p))


def optimal_theta(mode: str, delta: float, M: float, sigma: float, eta_p: float,
                  q: float) -> float:
    """Chernoff parameter minimizing the assembled tail bound.

    ``delta eta_p / (2 q M sqrt(a^2 sigma^2 + delta^2))`` with a = 2 + 6 eta_p
    (discrete) or a = 2 (continuous); zero at delta = 0, on the validity
    boundary when sigma = 0.
    """
    _check_scales(M, eta_p)
    a = _a(mode, eta_p)
    _check_real("delta", delta, 0, _FINITE)
    _check_real("sigma", sigma, 0, _FINITE)
    _check_real("q", q, 1, _FINITE)
    if delta == 0.0:
        return 0.0
    radical = math.sqrt(a**2 * sigma**2 + delta**2)
    return delta * eta_p / (2.0 * q * M * radical)


def _assemble(query: BoundQuery, exponent: float, theta: float, c: float,
              boundary: bool) -> BoundResult:
    bound = 2.0 * query.nu_norm * math.exp(exponent)  # underflows to 0.0 cleanly
    return BoundResult(
        probability_bound=bound,
        exponent=exponent,
        theta_used=theta,
        c_theta=c,
        vacuous=bound >= 1.0,
        boundary_limit=boundary,
    )


def tail_bound(query: BoundQuery) -> BoundResult:
    """Two-sided tail bound P(|time average of f| >= delta) over the horizon."""
    sigma = math.sqrt(query.sigma2)
    delta, M, eta, q = query.delta, query.M, query.eta_p, query.q
    theta = optimal_theta(query.mode, delta, M, sigma, eta, q)
    if delta == 0.0:
        return _assemble(query, 0.0, 0.0, 1.0, False)
    a = _a(query.mode, eta)
    radical = math.sqrt(a**2 * query.sigma2 + delta**2)
    exponent = -query.horizon * eta * delta**2 / (4.0 * q * M * radical)
    c = a * sigma / radical
    return _assemble(query, exponent, theta, c, boundary=sigma == 0.0)


def bound_sweep(query_template: BoundQuery, sweep_axis: str, values) -> list[BoundResult]:
    """Evaluate the tail bound along one axis, order preserved.

    ``sweep_axis`` is one of horizon, delta, eta_p. Invalid elements are
    reported per row in a single InvalidQuery naming the offending indices.
    """
    if sweep_axis not in _SWEEP_AXES:
        raise InvalidQuery(f"sweep axis must be one of {_SWEEP_AXES}")
    values = list(values)
    if not values:
        raise InvalidQuery("sweep needs at least one value")
    results, row_errors = [], []
    for idx, value in enumerate(values):
        try:
            # each value goes to the query's rules as given, never converted
            results.append(tail_bound(dataclasses.replace(query_template, **{sweep_axis: value})))
        except InvalidQuery as exc:
            row_errors.append(f"row {idx} (value {value!r}): {exc}")
    if row_errors:
        raise InvalidQuery("; ".join(row_errors))
    return results

