"""Shared random-instance builders for the test suite.

Everything is seeded explicitly in the tests, so the suite is
deterministic; these helpers only encapsulate the constructions. The
underscored helpers at the end serve the tests of forked work, in the
samplers and in gap_report.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import chainbounds as cb


def random_transition(rng: np.random.Generator, n: int, sparsify: float = 0.0):
    """Random irreducible row-stochastic matrix (rejection sampled)."""
    while True:
        a = rng.dirichlet(np.full(n, rng.uniform(0.5, 2.0)), size=n)
        if sparsify > 0.0 and n > 1:
            mask = rng.random((n, n)) < sparsify
            for i in range(n):
                if mask[i].all():
                    mask[i, rng.integers(n)] = False
            a = np.where(mask, 0.0, a)
            a = a / a.sum(axis=1)[:, None]
        P = cb.validate_transition_matrix(a)
        if cb.is_irreducible(P):
            return P


def random_reversible(rng: np.random.Generator, n: int):
    """Random reversible chain: normalize a symmetric positive weight matrix."""
    w = rng.random((n, n)) + 0.05
    w = w + w.T
    return cb.validate_transition_matrix(w / w.sum(axis=1)[:, None])


def random_generator(rng: np.random.Generator, n: int, rate_scale: float = 1.0):
    """Random irreducible rate matrix with positive off-diagonal rates."""
    a = (rng.random((n, n)) + 0.05) * rate_scale
    np.fill_diagonal(a, 0.0)
    q = a.copy()
    np.fill_diagonal(q, -a.sum(axis=1))
    return cb.validate_generator(q)


def random_centered_observable(rng: np.random.Generator, mu, scale: float = 1.0):
    return cb.make_observable(rng.normal(scale=scale, size=mu.n_states), mu)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _one_thread():
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _no_children():
    # raised only when this process has no child, live or exited but not reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Set in the one-thread interpreters of
# test_worker_tests_in_a_one_thread_interpreter and
# test_fork_tests_in_a_one_thread_interpreter, where all work that may fork must.
_MUST_FORK = "CHAINBOUNDS_TEST_MUST_FORK"
