import json
import math

import numpy as np
import pytest

import chainbounds as cb
from chainbounds import errors
from chainbounds.examples import ZERO_ABSOLUTE_GAP_ROWS, zero_absolute_gap_chain
from conftest import random_generator, random_transition


class TestValidateTransitionMatrix:
    def test_doubly_stochastic_valid(self):
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(P.entries, 0.5)

    def test_negative_entry_reports_position(self):
        with pytest.raises(errors.NegativeEntry) as exc:
            cb.validate_transition_matrix([[1.0, -0.1], [0.5, 0.6]])
        assert (exc.value.i, exc.value.j) == (0, 1)

    def test_four_state_example_valid(self):
        P = cb.validate_transition_matrix(ZERO_ABSOLUTE_GAP_ROWS)
        assert P.n_states == 4

    def test_row_sum_violation(self):
        with pytest.raises(errors.RowSumViolation) as exc:
            cb.validate_transition_matrix([[0.6, 0.6], [0.5, 0.5]])
        assert exc.value.i == 0

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            cb.validate_transition_matrix([[0.5, 0.5]])
        with pytest.raises(errors.DimensionMismatch):
            cb.validate_transition_matrix([[1.0]], labels=["a", "b"])

    def test_rows_renormalized(self):
        raw = np.array([[1 / 3, 1 / 3, 1 / 3]] * 3)
        raw[0, 0] += 4e-10  # inside input tolerance
        P = cb.validate_transition_matrix(raw)
        assert np.abs(P.entries.sum(axis=1) - 1.0).max() <= 1e-12

    def test_one_state_accepted(self):
        P = cb.validate_transition_matrix([[1.0]])
        assert cb.stationary_distribution(P).weights[0] == 1.0


class TestValidateGenerator:
    def test_canonical_two_state(self):
        Q = cb.validate_generator([[-1, 1], [2, -2]])
        assert np.allclose(Q.entries.sum(axis=1), 0.0)

    def test_zero_generator_valid(self):
        Q = cb.validate_generator([[0, 0], [0, 0]])
        assert not Q.entries.any()

    def test_negative_off_diagonal(self):
        with pytest.raises(errors.NegativeOffDiagonal) as exc:
            cb.validate_generator([[-1, 1], [-0.5, 0.5]])
        assert (exc.value.i, exc.value.j) == (1, 0)

    def test_row_sum_beyond_tolerance(self):
        with pytest.raises(errors.RowSumViolation):
            cb.validate_generator([[-1, 1.1], [2, -2]])

    def test_diagonal_reset_exact(self):
        Q = cb.validate_generator([[-(1 + 1e-10), 1], [2, -2]])
        assert Q.entries[0, 0] == -1.0


class TestStationaryDistribution:
    def test_four_state_uniform(self):
        mu = cb.stationary_distribution(zero_absolute_gap_chain())
        assert np.abs(mu.weights - 0.25).max() <= 1e-12

    def test_flip_chain(self):
        mu = cb.stationary_distribution(cb.validate_transition_matrix([[0, 1], [1, 0]]))
        assert np.allclose(mu.weights, [0.5, 0.5])

    def test_generator_two_thirds(self):
        # hand solve of mu Q = 0 for [[-1,1],[2,-2]]: 2 mu_1 = mu_0
        mu = cb.stationary_distribution(cb.validate_generator([[-1, 1], [2, -2]]))
        assert np.abs(mu.weights - [2 / 3, 1 / 3]).max() <= 1e-12

    def test_not_irreducible(self):
        with pytest.raises(errors.NotIrreducible):
            cb.stationary_distribution(cb.validate_transition_matrix(np.eye(2)))

    def test_residual_and_positivity_fuzz(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            P = random_transition(rng, n, sparsify=0.3)
            mu = cb.stationary_distribution(P)
            assert np.abs(mu.weights @ P.entries - mu.weights).max() <= 1e-12
            assert mu.weights.min() > 0
            Q = random_generator(rng, int(rng.integers(2, 8)))
            muq = cb.stationary_distribution(Q)
            assert np.abs(muq.weights @ Q.entries).max() <= 1e-12

    def test_power_iteration_branch(self):
        # above the direct-solve limit; heavy mixing keeps iteration short
        rng = np.random.default_rng(1)
        n = 2100
        a = 0.5 * np.full((n, n), 1.0 / n) + 0.5 * rng.dirichlet(np.ones(n), size=n)
        P = cb.validate_transition_matrix(a / a.sum(axis=1)[:, None])
        mu = cb.stationary_distribution(P)
        assert np.abs(mu.weights @ P.entries - mu.weights).max() <= 1e-12


class TestIrreducibility:
    def test_examples(self):
        assert cb.is_irreducible(zero_absolute_gap_chain())
        assert not cb.is_irreducible(cb.validate_transition_matrix(np.eye(2)))
        assert cb.is_irreducible(cb.validate_transition_matrix([[0, 1], [1, 0]]))

    def test_generator_support_ignores_diagonal(self):
        assert not cb.is_irreducible(cb.validate_generator(np.zeros((2, 2))))
        assert cb.is_irreducible(cb.validate_generator([[-1, 1], [2, -2]]))


class TestAdjoint:
    def test_symmetric_uniform_fixed_point(self):
        P = cb.validate_transition_matrix([[0.7, 0.3], [0.3, 0.7]])
        mu = cb.stationary_distribution(P)
        assert np.abs(cb.adjoint(P, mu).entries - P.entries).max() <= 1e-12

    def test_four_state_is_transpose(self):
        P = zero_absolute_gap_chain()
        mu = cb.stationary_distribution(P)
        star = cb.adjoint(P, mu)
        assert np.abs(star.entries - P.entries.T).max() <= 1e-12
        assert np.abs(star.entries.sum(axis=1) - 1.0).max() <= 1e-12

    def test_three_cycle_reverses(self):
        P = cb.validate_transition_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        mu = cb.stationary_distribution(P)
        assert np.abs(cb.adjoint(P, mu).entries - P.entries.T).max() <= 1e-12

    def test_duality_and_involution_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            P = random_transition(rng, int(rng.integers(2, 10)))
            mu = cb.stationary_distribution(P)
            star = cb.adjoint(P, mu)
            assert np.abs(cb.adjoint(star, mu).entries - P.entries).max() <= 1e-12
            w = mu.weights
            for _ in range(10):
                f = rng.normal(size=P.n_states)
                g = rng.normal(size=P.n_states)
                lhs = float(w @ ((P.entries @ f) * g))
                rhs = float(w @ (f * (star.entries @ g)))
                nf = math.sqrt(w @ f**2)
                ng = math.sqrt(w @ g**2)
                assert abs(lhs - rhs) <= 1e-10 * nf * ng

    def test_zero_mass_rejected(self):
        P = cb.validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
        mu = cb.make_distribution([1.0, 0.0])
        with pytest.raises(errors.ZeroMass):
            cb.adjoint(P, mu)

    def test_not_invariant_rejected(self):
        P = cb.validate_transition_matrix([[0.9, 0.1], [0.5, 0.5]])
        with pytest.raises(errors.NotInvariant):
            cb.adjoint(P, cb.make_distribution([0.5, 0.5]))


class TestRadonNikodymNorm:
    def test_equal_measures_give_one(self):
        mu = cb.make_distribution([0.3, 0.2, 0.5])
        for p in (1.5, 2.0, 4.0, math.inf):
            assert cb.radon_nikodym_norm(mu, mu, p) == pytest.approx(1.0, abs=1e-14)

    def test_point_mass_sup_norm(self):
        mu = cb.make_distribution([0.25] * 4)
        nu = cb.make_distribution([1, 0, 0, 0])
        assert cb.radon_nikodym_norm(nu, mu, math.inf) == pytest.approx(4.0)

    def test_half_support_l2(self):
        mu = cb.make_distribution([0.25] * 4)
        nu = cb.make_distribution([0.5, 0.5, 0, 0])
        assert cb.radon_nikodym_norm(nu, mu, 2.0) == pytest.approx(math.sqrt(2.0))

    def test_monotone_in_p(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            mu = cb.make_distribution(rng.dirichlet(np.ones(n)))
            nu = cb.make_distribution(rng.dirichlet(np.ones(n)))
            norms = [cb.radon_nikodym_norm(nu, mu, p) for p in (1.5, 2.0, 4.0, math.inf)]
            assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
            assert norms[0] >= 1.0 - 1e-12

    def test_absolute_continuity_required(self):
        mu = cb.make_distribution([1.0, 0.0])
        nu = cb.make_distribution([0.5, 0.5])
        with pytest.raises(errors.NotAbsolutelyContinuous) as exc:
            cb.radon_nikodym_norm(nu, mu, 2.0)
        assert exc.value.i == 1

    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
    def test_p_at_most_one_rejected(self, p):
        mu = cb.make_distribution([0.5, 0.5])
        with pytest.raises(errors.InvalidP):
            cb.radon_nikodym_norm(mu, mu, p)


class TestMakeObservable:
    def test_symmetric_two_state(self):
        mu = cb.make_distribution([0.5, 0.5])
        f = cb.make_observable([1, -1], mu)
        assert f.mean_mu == pytest.approx(0.0, abs=1e-15)
        assert f.M == 1.0
        assert f.sigma2 == pytest.approx(1.0)

    def test_centering_shift(self):
        mu = cb.make_distribution([0.5, 0.5])
        f = cb.make_observable([2, 0], mu, auto_center=True)
        assert np.allclose(f.values, [1, -1])
        assert f.M == 1.0 and f.sigma2 == pytest.approx(1.0)

    def test_four_state_moments(self):
        mu = cb.make_distribution([0.25] * 4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        assert f.M == 1.0
        assert f.sigma2 == pytest.approx(0.5)

    def test_not_centered_rejected(self):
        mu = cb.make_distribution([0.5, 0.5])
        with pytest.raises(errors.NotCentered):
            cb.make_observable([1, 0], mu, auto_center=False)

    def test_variance_below_sup_squared(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            mu = cb.make_distribution(rng.dirichlet(np.ones(n)))
            f = cb.make_observable(rng.normal(size=n), mu)
            assert f.sigma2 <= f.M**2 + 1e-12
            assert f.centered


class TestChainSchema:
    def _write(self, tmp_path, obj):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(obj))
        return path

    def test_discrete_roundtrip(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "labels": ["a", "b"],
                "P": [[0.5, 0.5], [0.25, 0.75]],
                "mu": [1 / 3, 2 / 3],
                "f": [1.0, -0.5],
                "nu": [1.0, 0.0],
            },
        )
        chain = cb.load_chain(path)
        assert chain.kind == "discrete"
        assert chain.space.labels == ("a", "b")
        assert chain.mu is not None and chain.nu is not None
        assert np.allclose(chain.f_values, [1.0, -0.5])

    def test_continuous_chain(self, tmp_path):
        chain = cb.load_chain(
            self._write(tmp_path, {"labels": ["x", "y"], "Q": [[-1, 1], [2, -2]]})
        )
        assert chain.kind == "continuous"
        assert chain.generator is not None

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(errors.SchemaError):
            cb.load_chain(
                self._write(
                    tmp_path,
                    {"labels": ["a"], "P": [[1.0]], "extra": 1},
                )
            )

    def test_exactly_one_kernel(self, tmp_path):
        with pytest.raises(errors.SchemaError):
            cb.load_chain(
                self._write(
                    tmp_path,
                    {"labels": ["a"], "P": [[1.0]], "Q": [[0.0]]},
                )
            )
        with pytest.raises(errors.SchemaError):
            cb.load_chain(self._write(tmp_path, {"labels": ["a"]}))

    def test_shape_validation(self, tmp_path):
        with pytest.raises(errors.SchemaError):
            cb.load_chain(
                self._write(tmp_path, {"labels": ["a", "b"], "P": [[1.0]]})
            )
        with pytest.raises(errors.SchemaError):
            cb.load_chain(
                self._write(
                    tmp_path,
                    {"labels": ["a", "b"], "P": [[0.5, 0.5], [0.5, 0.5]], "f": [1.0]},
                )
            )

    def test_distribution_support(self):
        d = cb.make_distribution([0.5, 0.0, 0.5])
        assert d.support == (0, 2)
