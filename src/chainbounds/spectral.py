"""Spectral-gap quantities in the mu-weighted geometry.

A chain or jump process is embedded once, by the similarity
``D_mu^(1/2) Op D_mu^(-1/2)`` that carries the weighted inner product
<f, g>_mu to the Euclidean one (:func:`embed_weighted`). The embedding holds
the transition side M = D^(1/2) P D^(-1/2) of a chain and the generator side
D^(1/2) L D^(-1/2), with L = P - I for a chain and L = Q for a jump process.
Every gap is read off these matrices, and :func:`gap_report` derives all of
them from one embedding. The chain is reversible exactly when M is
symmetric. The invariant direction sqrt(mu) is removed either by a rank-one
deflation shift (for operators that annihilate it) or by explicit
orthogonal projection (for the operator norm of P), so no basis of the
complement is ever constructed. Also provides the real and complex
numerical radius, whose power inequality holds only over the complex field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain_core import (
    ChainOperator,
    Distribution,
    GeneratorMatrix,
    TransitionMatrix,
    _check_mu_positive,
    check_invariant,
    observable_values,
    stationary_distribution,
)
from .errors import DegenerateStateSpace, DimensionMismatch, GapZero, NotReversible

DEFLATION_SHIFT = 3.0  # exceeds the universal cap ||P - I||_mu <= 2
SV_ZERO_RTOL = 1e-10
REVERSIBILITY_TOLERANCE = 1e-10
ORDERING_SLACK = 1e-9
DEFAULT_PSEUDO_KMAX = 20
DEFAULT_RADIUS_GRID = 720


@dataclass(frozen=True, eq=False)
class WeightedOperator:
    """A chain or jump process in the sqrt(mu) similarity, mu invariant.

    ``matrix`` is ``D_mu^(1/2) P D_mu^(-1/2)`` for a chain and None for a
    jump process. ``generator`` is ``D_mu^(1/2) L D_mu^(-1/2)`` with
    L = P - I for a chain and L = Q for a jump process. sqrt(mu) is fixed by
    ``matrix`` and annihilated by ``generator``, whose range is orthogonal
    to it.
    """

    sqrt_mu: np.ndarray
    matrix: np.ndarray | None
    generator: np.ndarray


def embed_weighted(op: ChainOperator, mu: Distribution) -> WeightedOperator:
    """Embed a chain or jump process via the sqrt(mu) similarity.

    Entry (i, j) of each embedded matrix is ``sqrt(mu(i)) Op(i, j) /
    sqrt(mu(j))``. A chain's generator side is embedded from P - I itself,
    not formed as ``matrix - I``, which would round differently.

    Raises
    ------
    ZeroMass
        If mu vanishes somewhere.
    NotInvariant
        When mu is not invariant.
    """
    if not isinstance(op, (TransitionMatrix, GeneratorMatrix)):
        raise DimensionMismatch(f"cannot embed object of type {type(op).__name__}")
    w = _check_mu_positive(mu, op.n_states)
    check_invariant(op, mu)
    s = np.sqrt(w)

    def similar(a: np.ndarray) -> np.ndarray:
        return (s[:, None] * a) / s[None, :]

    if isinstance(op, GeneratorMatrix):
        return WeightedOperator(s, None, similar(op.entries))
    return WeightedOperator(
        s, similar(op.entries), similar(op.entries - np.eye(op.n_states))
    )


def _require_multi_state(mu: Distribution) -> None:
    if mu.n_states < 2:
        raise DegenerateStateSpace(
            "gaps are undefined on a 1-state space (empty mean-zero subspace)"
        )


def _embed_chain(P: TransitionMatrix, mu: Distribution) -> WeightedOperator:
    _require_multi_state(mu)
    W = embed_weighted(P, mu)
    if W.matrix is None:
        raise DimensionMismatch("this gap is defined for discrete-time chains only")
    return W


def _deflated_smallest_sv(W: WeightedOperator):
    if W.matrix is not None:
        shift = DEFLATION_SHIFT
    else:
        # generator singular values are unbounded; pick the shift above them
        shift = float(np.linalg.norm(W.generator, 2)) + 1.0
    d = W.generator + shift * np.outer(W.sqrt_mu, W.sqrt_mu)
    sv, vt = np.linalg.svd(d)[1:]
    smallest = float(sv[-1])
    if smallest <= SV_ZERO_RTOL * float(sv[0]):
        smallest = 0.0  # numerically indistinguishable from a null direction
    return smallest, vt[-1]


def ip_gap(op: ChainOperator, mu: Distribution) -> float:
    """Iterated Poincare gap: smallest singular value of L on mean-zero.

    L is P - I for a chain and Q for a jump process. Equivalently the best
    constant eta in ``Var_mu[h] <= eta^(-2) E_mu[(L h)^2]``. Strictly
    positive for irreducible chains; at most 2 for a chain, unbounded
    (units 1/time) for a jump process.
    """
    _require_multi_state(mu)
    return _deflated_smallest_sv(embed_weighted(op, mu))[0]


def ip_gap_minimizer(op: ChainOperator, mu: Distribution):
    """Gap together with a minimizing mean-zero direction h (state space).

    Returns ``(eta_p, h)`` where h attains
    ``||L h||_mu = eta_p ||h||_mu`` with E_mu[h] = 0.
    """
    _require_multi_state(mu)
    W = embed_weighted(op, mu)
    gap, v = _deflated_smallest_sv(W)
    return gap, v / W.sqrt_mu


def _projected(W: WeightedOperator) -> np.ndarray:
    s = W.sqrt_mu
    proj = np.eye(s.size) - np.outer(s, s)
    return proj @ W.matrix @ proj


def _absolute_gap(W: WeightedOperator) -> float:
    return 1.0 - float(np.linalg.svd(_projected(W), compute_uv=False)[0])


def absolute_gap(P: TransitionMatrix, mu: Distribution) -> float:
    """1 minus the mu-operator norm of P on mean-zero functions.

    The restriction is realized by projecting both sides onto the
    complement of sqrt(mu), which P leaves invariant. May be exactly zero
    for irreducible chains.
    """
    return _absolute_gap(_embed_chain(P, mu))


def _symmetric_gap(W: WeightedOperator) -> float:
    # top mean-zero eigenvalue of (M + M^T)/2, via deflation of the
    # sqrt(mu) eigenvalue 1 down to -1 (all others are >= -1 already)
    sym = 0.5 * (W.matrix + W.matrix.T)
    deflated = sym - 2.0 * np.outer(W.sqrt_mu, W.sqrt_mu)
    return 1.0 - float(np.linalg.eigvalsh(deflated)[-1])


def symmetric_gap(P: TransitionMatrix, mu: Distribution) -> float:
    """1 minus the largest mean-zero eigenvalue of (P + P*)/2.

    The embedding of P* is the transpose of the embedding of P, so the
    additive symmetrization embeds to the symmetric part directly. Lies in
    [0, 2]; values above 1 occur for strongly antisymmetric chains and are
    returned unclamped.
    """
    return _symmetric_gap(_embed_chain(P, mu))


def _asymmetry(W: WeightedOperator) -> float:
    return float(np.abs(W.matrix - W.matrix.T).max())


def ordinary_gap(
    P: TransitionMatrix,
    mu: Distribution,
    tolerance: float = REVERSIBILITY_TOLERANCE,
) -> float:
    """Classical spectral gap 1 - lambda_2 of a reversible chain.

    P is reversible exactly when its embedding M is symmetric; the gap then
    equals the symmetric gap.

    Raises
    ------
    NotReversible
        When M differs from its transpose beyond ``tolerance``.
    """
    W = _embed_chain(P, mu)
    dev = _asymmetry(W)
    if dev > tolerance:
        raise NotReversible(
            f"the mu-embedding of P is asymmetric by {dev!r} (> {tolerance!r})"
        )
    return _symmetric_gap(W)


@dataclass(frozen=True)
class PseudoGapResult:
    """Truncated pseudo spectral gap: a lower bound on the k-supremum."""

    value: float
    k: int
    k_max: int

    def to_dict(self) -> dict:
        return {"value": self.value, "k": self.k, "k_max": self.k_max}

    @classmethod
    def from_dict(cls, d: dict) -> "PseudoGapResult":
        return cls(float(d["value"]), int(d["k"]), int(d["k_max"]))


def _pseudo_gap(W: WeightedOperator, k_max: int) -> PseudoGapResult:
    if k_max < 1:
        raise DimensionMismatch("k_max must be >= 1")
    defl = 2.0 * np.outer(W.sqrt_mu, W.sqrt_mu)
    best_value, best_k = -np.inf, 1
    mk = np.eye(W.matrix.shape[0])
    for k in range(1, k_max + 1):
        mk = mk @ W.matrix
        sym = mk.T @ mk
        lam2 = float(np.linalg.eigvalsh(sym - defl)[-1])
        value = (1.0 - lam2) / k
        if value > best_value:
            best_value, best_k = value, k
    return PseudoGapResult(best_value, best_k, k_max)


def pseudo_gap(
    P: TransitionMatrix, mu: Distribution, k_max: int = DEFAULT_PSEUDO_KMAX
) -> PseudoGapResult:
    """max over 1 <= k <= k_max of gap((P*)^k P^k) / k.

    The k-supremum defining the pseudo spectral gap is truncated at
    ``k_max``; the result is a lower bound on the supremum. The product
    embeds to (M^k)^T M^k, a PSD stochastic self-adjoint operator, whose
    second-largest eigenvalue is extracted by the same deflation as the
    symmetric gap.
    """
    return _pseudo_gap(_embed_chain(P, mu), k_max)


class PoincareCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def verify_iterated_poincare(
    op: ChainOperator, mu: Distribution, h, eta_p: float | None = None
) -> PoincareCheck:
    """Check ``Var_mu[h] <= eta_p^(-2) E_mu[(L h)^2]`` for a given h.

    ``L`` is P - I for a transition matrix and Q itself for a generator.
    The gap is computed unless supplied. Slack 1e-9 relative to the right
    side absorbs floating error.

    Raises
    ------
    GapZero
        When the gap is zero and Var_mu[h] > 0 (inequality vacuous).
    """
    hv = observable_values(h)
    w = mu.weights
    if hv.size != w.size:
        raise DimensionMismatch("h does not match the state space")
    if eta_p is None:
        eta_p = ip_gap(op, mu)
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


def numerical_radius_real(B) -> float:
    """sup over real unit vectors of |<B x, x>|.

    Equals the largest absolute eigenvalue of the symmetric part; in
    particular every skew-symmetric matrix has real numerical radius zero
    even though its powers need not.
    """
    a = np.asarray(B, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("numerical radius requires a square matrix")
    ev = np.linalg.eigvalsh(0.5 * (a + a.T))
    return float(max(abs(ev[0]), abs(ev[-1])))


def _radius_at(theta: np.ndarray, S: np.ndarray, K: np.ndarray) -> np.ndarray:
    # largest |eigenvalue| of cos(t) S + i sin(t) K through the real
    # symmetric 2n x 2n embedding [[c S, -s K], [s K, c S]]
    n = S.shape[0]
    c, s = np.cos(theta), np.sin(theta)
    emb = np.zeros((theta.size, 2 * n, 2 * n))
    emb[:, :n, :n] = c[:, None, None] * S
    emb[:, n:, n:] = c[:, None, None] * S
    emb[:, :n, n:] = -s[:, None, None] * K
    emb[:, n:, :n] = s[:, None, None] * K
    ev = np.linalg.eigvalsh(emb)
    return np.maximum(np.abs(ev[:, 0]), np.abs(ev[:, -1]))


def numerical_radius_complex(B, grid_points: int = DEFAULT_RADIUS_GRID) -> float:
    """Complex-field numerical radius sup_{|x|=1} |<B x, x>| of a real matrix.

    Evaluated as the maximum over a uniform phase grid on [0, pi) of the
    top eigenvalue magnitude of the Hermitian part of e^(i theta) B,
    realized through the equivalent real 2n x 2n symmetric embedding, with
    one parabolic refinement pass around the best grid point. Grid maxima
    never decrease under refinement; accuracy is O(grid_points^-2).
    """
    if grid_points < 8:
        raise DimensionMismatch("grid_points must be >= 8")
    a = np.asarray(B, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("numerical radius requires a square matrix")
    S = 0.5 * (a + a.T)
    K = 0.5 * (a - a.T)
    step = np.pi / grid_points
    thetas = np.arange(grid_points) * step
    vals = _radius_at(thetas, S, K)
    j = int(np.argmax(vals))
    best = float(vals[j])
    # parabola through the argmax and its cyclic neighbours (period pi)
    ym, y0, yp = vals[(j - 1) % grid_points], vals[j], vals[(j + 1) % grid_points]
    denom = ym - 2.0 * y0 + yp
    if denom < 0:
        offset = 0.5 * (ym - yp) / denom
        refined = _radius_at(np.array([thetas[j] + offset * step]), S, K)
        best = max(best, float(refined[0]))
    return best


@dataclass(frozen=True)
class GapReport:
    """All spectral-gap quantities of one chain, with the tolerances used.

    ``eta`` is present only for reversible chains; ``pseudo`` carries the
    truncated pseudo gap. For generator reports only ``eta_p`` is defined.
    A 1-state space sets ``degenerate`` and reports gaps as 0 by
    convention.
    """

    eta_p: float
    eta_s: float | None
    eta_a: float | None
    eta: float | None
    pseudo: PseudoGapResult | None
    degenerate: bool
    tolerances: dict

    def __post_init__(self):
        if self.degenerate or self.eta_s is None or self.eta_a is None:
            return
        if self.eta_p < self.eta_s - ORDERING_SLACK or self.eta_s < self.eta_a - ORDERING_SLACK:
            raise ArithmeticError(
                "gap ordering eta_p >= eta_s >= eta_a violated beyond slack: "
                f"{self.eta_p}, {self.eta_s}, {self.eta_a}"
            )
        if not -1e-12 <= self.eta_p <= 2.0 + 1e-12 or self.eta_a < -1e-12:
            raise ArithmeticError(
                f"gap caps violated: eta_p = {self.eta_p}, eta_a = {self.eta_a}"
            )

    def to_dict(self) -> dict:
        return {
            "eta_p": self.eta_p,
            "eta_s": self.eta_s,
            "eta_a": self.eta_a,
            "eta": self.eta,
            "pseudo": None if self.pseudo is None else self.pseudo.to_dict(),
            "degenerate": self.degenerate,
            "tolerances": dict(self.tolerances),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GapReport":
        return cls(
            eta_p=float(d["eta_p"]),
            eta_s=None if d["eta_s"] is None else float(d["eta_s"]),
            eta_a=None if d["eta_a"] is None else float(d["eta_a"]),
            eta=None if d["eta"] is None else float(d["eta"]),
            pseudo=None if d["pseudo"] is None else PseudoGapResult.from_dict(d["pseudo"]),
            degenerate=bool(d["degenerate"]),
            tolerances=dict(d["tolerances"]),
        )


def _tolerances() -> dict:
    return {
        "reversibility": REVERSIBILITY_TOLERANCE,
        "ordering_slack": ORDERING_SLACK,
        "sv_zero_rtol": SV_ZERO_RTOL,
    }


def gap_report(
    op: ChainOperator,
    mu: Distribution | None = None,
    k_max: int | None = DEFAULT_PSEUDO_KMAX,
) -> GapReport:
    """Assemble every gap of a chain or jump process into one report.

    The operator is embedded once and every gap is derived from that
    embedding. mu defaults to the stationary distribution. A jump process
    defines only ``eta_p``. For a chain, ``eta`` is filled only when it is
    reversible within tolerance, and then equals ``eta_s``; ``pseudo`` is
    skipped when ``k_max`` is None.
    """
    if mu is None:
        mu = stationary_distribution(op)
    if mu.n_states == 1:
        zero = 0.0 if isinstance(op, TransitionMatrix) else None
        return GapReport(0.0, zero, zero, zero, None, True, _tolerances())
    W = embed_weighted(op, mu)
    eta_p = _deflated_smallest_sv(W)[0]
    if W.matrix is None:
        return GapReport(eta_p, None, None, None, None, False, _tolerances())
    eta_s = _symmetric_gap(W)
    eta_a = _absolute_gap(W)
    eta = eta_s if _asymmetry(W) <= REVERSIBILITY_TOLERANCE else None
    pseudo = None if k_max is None else _pseudo_gap(W, k_max)
    return GapReport(eta_p, eta_s, eta_a, eta, pseudo, False, _tolerances())
