"""Spectral-gap quantities in the mu-weighted geometry.

A chain or jump process is embedded once, by the similarity
``D_mu^(1/2) Op D_mu^(-1/2)`` that carries the weighted inner product
<f, g>_mu to the Euclidean one (:func:`embed_weighted`). The embedding holds
the transition side M = D^(1/2) P D^(-1/2) of a chain and the generator side
D^(1/2) L D^(-1/2), with L = P - I for a chain and L = Q for a jump process.
Every gap is read off these matrices: :func:`ip_gap` gives the iterated
Poincare gap alone, and :func:`gap_report` derives all of them from one
embedding. The chain is reversible exactly when M is symmetric; a chain
whose generator side is symmetric to rounding reads every gap off one
eigvalsh of its symmetric part, and every other operator takes an SVD. The
invariant direction s = sqrt(mu) is read past for eta_p: the generator side
annihilates s on both sides, so its singular values are 0 and those of L on
mean-zero functions. For the powers of P it is centred away: M fixes s on
both sides, so A = M - s s^T is M projected onto the complement of s and
A^k = M^k - s s^T. No basis of the complement is ever constructed.
On a chain of ``_FORK_STATES`` states or more that takes the SVD,
:func:`gap_report` runs it in a forked child through the samplers' fork
helper (``chain_core._forked``) while this process runs the two eigvalsh,
under the same rule: one operating-system thread, at most one process per
usable CPU. The same calls run on the same arrays, so the bits do not
depend on the fork. Also
provides the real and complex numerical radius, whose power inequality holds
only over the complex field.
The complex radius is computed exactly, to rounding, by the level-set
iteration of Mengi & Overton (2005) over the phase of the Hermitian part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_core import (
    ChainOperator,
    Distribution,
    GeneratorMatrix,
    TransitionMatrix,
    _as_square,
    _check_int,
    _check_mu_positive,
    _forked,
    _workers,
    check_invariant,
    stationary_distribution,
)
from .errors import (
    DegenerateStateSpace,
    DimensionMismatch,
    SolverFailure,
)

REVERSIBILITY_TOLERANCE = 1e-10
ORDERING_SLACK = 1e-9
DEFAULT_PSEUDO_KMAX = 20

# States from which gap_report's general chain route runs its SVD in a
# forked child beside the two eigvalsh. An empty round trip through
# chain_core._forked costs about 2 ms in a process of 80-160 MB. On seeded
# non-reversible chains the forked report broke even near 200-225 states
# and won by 3-6 ms (13-23%) at 300, 14 ms at 400 and 57 ms at 600
# (medians of 15-31 interleaved reports, 2-vCPU VM, numpy 2.4, one BLAS
# thread). 300 leaves a margin for a busy second CPU.
_FORK_STATES = 300


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
        # scales a copy in place, in the order (s_i a_ij) / s_j
        a *= s[:, None]
        a /= s[None, :]
        return a

    if isinstance(op, GeneratorMatrix):
        return WeightedOperator(s, None, similar(op.entries.copy()))
    laplacian = op.entries.copy()
    laplacian[np.diag_indices_from(laplacian)] -= 1.0
    return WeightedOperator(s, similar(op.entries.copy()), similar(laplacian))


def _require_multi_state(mu: Distribution) -> None:
    if mu.n_states < 2:
        raise DegenerateStateSpace(
            "gaps are undefined on a 1-state space (empty mean-zero subspace)"
        )


def _snap_zero(gap: float, norm: float, W: WeightedOperator) -> float:
    # By Weyl's inequality a computed gap within the solver's backward error
    # (n eps times ``norm``, the solver's estimate of ||G||_2) plus G's
    # distance from an embedding that annihilates s exactly cannot be told
    # from 0.
    G, s = W.generator, W.sqrt_mu
    noise = s.size * np.finfo(float).eps * norm + np.linalg.norm(G @ s) + np.linalg.norm(s @ G)
    return 0.0 if gap <= noise else float(gap)


def _reversible_gaps(W: WeightedOperator) -> tuple[float, float] | None:
    """``(eta_p, rho)`` from one eigvalsh when G is symmetric to rounding.

    Returns None for a jump process, and for a chain whose generator side
    G is not symmetric within the SVD's own rounding budget; those take
    the SVD. Write G = S + K with S = (G + G^T)/2 and K = (G - G^T)/2. A
    backward-stable SVD returns the singular values of some G + E with
    ||E||_2 of order n eps ||G||_2, the budget :func:`_snap_zero` already
    charges. By Weyl's inequality for singular values, |sigma_i(G) -
    sigma_i(S)| <= ||K||_2, so when ||K||_2 <= n eps ||G||_2 the singular
    values of S answer as accurately as the SVD of G would. The test uses
    computable bounds on both sides: ||K||_2 <= ||K||_F and ||G||_2 >=
    ||G||_F / sqrt(n), so ||G - G^T||_F <= 2 sqrt(n) eps ||G||_F implies
    it. The embeddings of the reversible chains in the tests and the
    benchmark pass, with their rounding alone; a chain perturbed off
    reversibility by 1e-12 does not, and keeps the SVD.

    For a chain -S has the eigenvalue 0 on s and 1 - lambda_i, in [0, 2],
    on mean-zero functions: it is positive semidefinite, so its singular
    values are its eigenvalues, and eta_p is the second smallest, past the
    0 of s, as the SVD reads it (it is also eta_s, the gap of the
    symmetric part, exactly). rho = max |1 - mu_i| over all eigenvalues
    but the smallest, clamped to 1 as P contracts the mu-norm, is the
    spectral norm of the centred M = I + S - s s^T, which for a symmetric
    operator is also its spectral radius. No shift moves the 0 of s out of
    the way: a rank-one s s^T term fills every entry, and on chains of
    weakly coupled blocks it cost a factor of 3 in the relative accuracy
    of small gaps.
    """
    if W.matrix is None:
        return None
    G = W.generator
    n = G.shape[0]
    if np.linalg.norm(G - G.T) > 2.0 * np.sqrt(n) * np.finfo(float).eps * np.linalg.norm(G):
        return None
    sym = G + G.T
    sym *= -0.5
    ev = np.linalg.eigvalsh(sym)
    eta_p = _snap_zero(ev[1], float(_extreme_abs(ev)), W)
    rho = min(float(np.abs(1.0 - ev[1:]).max()), 1.0)
    return eta_p, rho


def _ip_gap(W: WeightedOperator, sv: np.ndarray | None = None) -> float:
    # eta_p is the second smallest singular value of the generator side G,
    # past the 0 of s; ``sv`` holds them when they are already computed
    if sv is None:
        sv = np.linalg.svd(W.generator, compute_uv=False)
    return _snap_zero(sv[-2], sv[0], W)


def ip_gap(op: ChainOperator, mu: Distribution) -> float:
    """Iterated Poincare gap: smallest singular value of L on mean-zero.

    L is P - I for a chain and Q for a jump process. Equivalently the best
    constant eta in ``Var_mu[h] <= eta^(-2) E_mu[(L h)^2]``. Strictly
    positive for irreducible chains; at most 2 for a chain, unbounded
    (units 1/time) for a jump process. For a reversible chain it equals the
    spectral gap 1 - lambda_2.
    """
    _require_multi_state(mu)
    W = embed_weighted(op, mu)
    route = _reversible_gaps(W)
    return _ip_gap(W) if route is None else route[0]


def _norm_sq(a: np.ndarray) -> float:
    # ||P^k||_mu^2 on mean-zero functions for a = A^k, clamped to [0, 1]
    # since P contracts the mu-norm. Taken from the Gram of a: the deflated
    # (M^k)^T M^k - 2 s s^T rounds by order eps, which moves the root by
    # sqrt(eps) (1.5e-8 on P = 1 mu^T); an order-eps error in a moves it by eps.
    return min(max(float(np.linalg.eigvalsh(a.T @ a)[-1]), 0.0), 1.0)


def _symmetric_gap(W: WeightedOperator) -> float:
    # 1 minus the top mean-zero eigenvalue of (P + P*)/2, which embeds to
    # (M + M^T)/2; the sqrt(mu) eigenvalue 1 is deflated down to -1 (all
    # others are >= -1 already). Values in (1, 2] are returned unclamped.
    # Built in place: one n x n array besides the rank-one term.
    deflated = W.matrix + W.matrix.T
    deflated *= 0.5
    deflated -= 2.0 * np.outer(W.sqrt_mu, W.sqrt_mu)
    return 1.0 - float(np.linalg.eigvalsh(deflated)[-1])


@dataclass(frozen=True)
class PseudoGapResult:
    """Truncated pseudo spectral gap: a lower bound on the k-supremum."""

    value: float
    k: int
    k_max: int


def _pseudo_gap(centred: np.ndarray, norm_sq: float, k_max: int) -> PseudoGapResult:
    # max over 1 <= k <= k_max of gap((P*)^k P^k) / k, a lower bound on the
    # supremum over all k. On mean-zero functions (P*)^k P^k embeds to the
    # Gram of A^k, so step k scores (1 - _norm_sq(A^k)) / k, in [0, 1/k];
    # ``norm_sq`` is step 1's, shared with the absolute gap. The scan stops
    # at the first k with (1 + ORDERING_SLACK) / k <= best, which is exact
    # since 1/k falls with k; the slack absorbs eigvalsh rounding. A periodic
    # chain scores 0 at every k, to rounding, and scans all k; ``k_max`` in
    # the result is the requested truncation either way.
    best_value, best_k = 1.0 - norm_sq, 1
    ak = centred
    for k in range(2, k_max + 1):
        if (1.0 + ORDERING_SLACK) / k <= best_value:
            break  # step k scores at most 1/k; neither it nor any later k can win
        ak = ak @ centred
        value = (1.0 - _norm_sq(ak)) / k
        if value > best_value:
            best_value, best_k = value, k
    return PseudoGapResult(best_value, best_k, k_max)


_RADIUS_BUDGET = 1 << 20  # complex entries per phase batch of _radius_at
_RADIUS_MAX_ROUNDS = 50
# A phase where the level r crosses the radius transversally is a simple
# unimodular eigenvalue, computed to about eps times its condition number.
# Near the maximum two crossings merge into a double root, which rounding
# splits off the unit circle by O(sqrt(eps)) = 1.5e-8 (times conditioning).
# Missing such a pair stops the iteration short of the maximum, while an
# extra phase only adds one scored midpoint, so the filter is generous: on
# 60 seeded Gaussian matrices (n < 40) a filter of 1e-10 already stopped
# one of them 1e-12 short of the maximum, and 1e-8 none.
_UNIMODULAR_TOL = 1e-6


def _extreme_abs(ev: np.ndarray) -> np.ndarray:
    # largest |eigenvalue| from eigvalsh output, ascending along the last axis
    return np.maximum(np.abs(ev[..., 0]), np.abs(ev[..., -1]))


def numerical_radius_real(B) -> float:
    """sup over real unit vectors of |<B x, x>|.

    Equals the largest absolute eigenvalue of the symmetric part; in
    particular every skew-symmetric matrix has real numerical radius zero
    even though its powers need not.
    """
    a = _as_square(B)
    return float(_extreme_abs(np.linalg.eigvalsh(0.5 * (a + a.T))))


def _radius_at(theta: np.ndarray, S: np.ndarray, K: np.ndarray) -> np.ndarray:
    # largest |eigenvalue| of the Hermitian form cos(t) S + i sin(t) K,
    # built and solved in phase batches of at most _RADIUS_BUDGET entries
    n = S.shape[0]
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(theta.size)
    batch = max(1, _RADIUS_BUDGET // (n * n))
    h = np.empty((min(theta.size, batch), n, n), dtype=complex)
    for start in range(0, theta.size, len(h)):
        stop = min(start + len(h), theta.size)
        form = h[: stop - start]
        np.multiply(c[start:stop, None, None], S, out=form.real)
        np.multiply(s[start:stop, None, None], K, out=form.imag)
        out[start:stop] = _extreme_abs(np.linalg.eigvalsh(form))
    return out


def _level_phases(a: np.ndarray, r: float) -> np.ndarray:
    # phases t in [0, pi/2] where r or -r is an eigenvalue of the Hermitian
    # part of e^(it) B: the unimodular eigenvalues z = e^(it) of the real
    # pencil [[0, I], [-B^T, 2r I]] - z [[I, 0], [0, B]], a linearization of
    # z^2 B - 2 r z I + B^T. The radius at t has period pi and is even in t
    # (B is real), so every phase folds into [0, pi/2].
    import scipy.linalg

    n = a.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    z = scipy.linalg.eig(
        np.block([[zero, eye], [-a.T, 2.0 * r * eye]]),
        np.block([[eye, zero], [zero, a]]),
        right=False,
    )
    # the infinite (and 0/0) eigenvalues of a singular B fail this test too
    t = np.abs(np.angle(z[np.abs(np.abs(z) - 1.0) <= _UNIMODULAR_TOL]))
    return np.minimum(t, np.pi - t)


def numerical_radius_complex(B) -> float:
    """Complex-field numerical radius sup_{|x|=1} |<B x, x>| of a real matrix.

    The radius is the maximum over phases theta in [0, pi) of the largest
    eigenvalue magnitude of the Hermitian part of e^(i theta) B, the n x n
    form cos(theta) S + i sin(theta) K with S and K the symmetric and skew
    parts of B (Johnson 1978). The maximum is found by the level-set
    iteration of Mengi & Overton (IMA J. Numer. Anal. 2005): given the best
    value r so far, one 2n x 2n generalized eigensolve finds every phase
    where r is an eigenvalue of the form, and the midpoints between those
    phases are scored. Each superlevel interval lies between two consecutive
    phases, so the iteration stops, usually within a few rounds, only once
    no midpoint beats r by more than rounding; the result is the true
    maximum to rounding error. Phase 0 is solved exactly as
    :func:`numerical_radius_real` solves it, so the result is never below
    the real radius.

    Raises
    ------
    SolverFailure
        When the iteration has not settled after ``_RADIUS_MAX_ROUNDS`` rounds.
    DimensionMismatch
        When B is not a finite, non-empty square matrix.
    """
    a = _as_square(B)
    S = 0.5 * (a + a.T)
    K = 0.5 * (a - a.T)
    # phase 0 and seven more evenly spaced phases; pi/2 is among them, and
    # it is a critical point for every real B (the radius is even in theta
    # with period pi)
    start = _radius_at(np.arange(1, 8) * (np.pi / 8), S, K)
    r = max(numerical_radius_real(a), float(start.max()))
    # eigvalsh's error on the form is of order n eps |form|, so a smaller
    # gain cannot be told from rounding
    noise = a.shape[0] * np.finfo(float).eps
    for _ in range(_RADIUS_MAX_ROUNDS):
        cuts = np.unique(np.concatenate([[0.0, np.pi / 2], _level_phases(a, r)]))
        best = float(_radius_at(0.5 * (cuts[:-1] + cuts[1:]), S, K).max())
        if best <= r * (1.0 + noise):
            return max(r, best)
        r = best
    raise SolverFailure(
        f"numerical radius level-set iteration unsettled after {_RADIUS_MAX_ROUNDS} rounds"
    )


@dataclass(frozen=True)
class GapReport:
    """All spectral-gap quantities of one chain, with the tolerances used.

    ``eta_p`` is the iterated Poincare gap (:func:`ip_gap`), ``eta_s`` the
    symmetric gap, ``eta_a`` the absolute gap, ``eta`` the ordinary gap
    1 - lambda_2 (present only for reversible chains) and ``pseudo`` the
    truncated pseudo gap (Paulin 2015). For generator reports only
    ``eta_p`` is defined. A 1-state space sets ``degenerate`` and reports
    gaps as 0 by convention.
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


def _tolerances() -> dict:
    return {
        "reversibility": REVERSIBILITY_TOLERANCE,
        "ordering_slack": ORDERING_SLACK,
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
    skipped when ``k_max`` is None; otherwise it is an integer >= 1, on
    every operator, whether or not it has a pseudo gap.
    """
    if k_max is not None:
        _check_int("k_max", k_max, 1, np.inf)
    if mu is None:
        mu = stationary_distribution(op)
    if mu.n_states == 1:
        zero = 0.0 if isinstance(op, TransitionMatrix) else None
        return GapReport(0.0, zero, zero, zero, None, True, _tolerances())
    W = embed_weighted(op, mu)
    route = _reversible_gaps(W)
    if route is not None:
        # a symmetric operator's best pseudo-gap step is k = 1, since
        # (1 - rho^(2k)) / k <= 1 - rho^2
        eta_p, rho = route
        eta_s, eta_a = eta_p, 1.0 - rho
        pseudo = None if k_max is None else PseudoGapResult((1.0 - rho) * (1.0 + rho), 1, k_max)
    elif W.matrix is None:
        return GapReport(_ip_gap(W), None, None, None, None, False, _tolerances())
    else:
        sv = np.empty(mu.n_states)

        def singular_values() -> None:
            sv[:] = np.linalg.svd(W.generator, compute_uv=False)

        def matrix_side():
            # eta_s, and the Gram that serves eta_a and the pseudo gap, off M
            eta_s = _symmetric_gap(W)
            centred = W.matrix - np.outer(W.sqrt_mu, W.sqrt_mu)
            norm_sq = _norm_sq(centred)
            pseudo = None if k_max is None else _pseudo_gap(centred, norm_sq, k_max)
            return eta_s, norm_sq, pseudo

        if mu.n_states >= _FORK_STATES and _workers(2) == 2:
            eta_s, norm_sq, pseudo = _forked(matrix_side, [(singular_values, sv)])
        else:
            singular_values()
            eta_s, norm_sq, pseudo = matrix_side()
        eta_p = _ip_gap(W, sv)
        eta_a = 1.0 - float(np.sqrt(norm_sq))  # may be 0 for an irreducible chain
    eta = eta_s if np.abs(W.matrix - W.matrix.T).max() <= REVERSIBILITY_TOLERANCE else None
    return GapReport(eta_p, eta_s, eta_a, eta, pseudo, False, _tolerances())
