import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chainbounds as cb
from chainbounds import errors
from chainbounds.chain_core import _read_json, _schema_array
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
        with pytest.raises(errors.DimensionMismatch, match="^transition matrix must be non-empty$"):
            cb.validate_transition_matrix(np.zeros((0, 0)))

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
        # n > 2000: the one blocked GTH solve also serves large chains
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

    def test_large_p_does_not_overflow(self):
        # nu the point mass on the least likely state of a drift chain: the
        # density ratio is about 1848, so ratio**200 alone leaves the doubles
        n = 30
        a = np.zeros((n, n))
        for i in range(n):
            a[i, min(i + 1, n - 1)] += 0.45
            a[i, max(i - 1, 0)] += 0.55
        mu = cb.stationary_distribution(cb.validate_transition_matrix(a))
        nu = cb.make_distribution([0.0] * (n - 1) + [1.0])
        sup = cb.radon_nikodym_norm(nu, mu, math.inf)
        assert cb.radon_nikodym_norm(nu, mu, 50.0) == pytest.approx(1589.7477111411172)
        for p in (200.0, 1e4):
            assert math.isfinite(cb.radon_nikodym_norm(nu, mu, p))
            assert cb.radon_nikodym_norm(nu, mu, p) <= sup

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
        assert mu.weights @ f.values == pytest.approx(0.0, abs=1e-15)
        assert f.M == 1.0
        assert f.sigma2 == pytest.approx(1.0)

    def test_centering_shift(self):
        mu = cb.make_distribution([0.5, 0.5])
        f = cb.make_observable([2, 0], mu)
        assert np.allclose(f.values, [1, -1])
        assert f.M == 1.0 and f.sigma2 == pytest.approx(1.0)

    def test_four_state_moments(self):
        mu = cb.make_distribution([0.25] * 4)
        f = cb.make_observable([1, 0, 0, -1], mu)
        assert f.M == 1.0
        assert f.sigma2 == pytest.approx(0.5)

    def test_constant_centres_to_exact_zeros(self):
        # mu @ (3, 3) rounds to 3.0000000000000004 under this mu
        mu = cb.stationary_distribution(cb.validate_transition_matrix(
            [[0.547, 0.453], [0.7422, 0.2578]]))
        f = cb.make_observable([3, 3], mu)
        assert f.values.tolist() == [0.0, 0.0]
        assert (f.M, f.sigma2) == (0.0, 0.0)

    def test_non_finite_rejected(self):
        # a typed error before the mean, which would warn on inf - inf
        mu = cb.make_distribution([0.5, 0.5])
        for values in ([math.nan, 1.0], [math.inf, 1.0], [math.inf, -math.inf]):
            with pytest.raises(errors.DimensionMismatch, match="must be finite"):
                cb.make_observable(values, mu)

    def test_variance_below_sup_squared(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            mu = cb.make_distribution(rng.dirichlet(np.ones(n)))
            f = cb.make_observable(rng.normal(size=n), mu)
            assert f.sigma2 <= f.M**2 + 1e-12

    def test_centred_at_every_scale(self):
        # the rounding residue of mu @ values grows with |f|: a few ulps of
        # the scale, where a fixed tolerance of 1e-10 refused f past 1e6
        rng = np.random.default_rng(28)
        mu3 = cb.stationary_distribution(cb.validate_transition_matrix(
            [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]]))
        cases = [(mu3, [1000000.3, -2000000.7, 3000000.1])]
        for scale in 10.0 ** np.arange(11):
            for _ in range(20):
                n = int(rng.integers(2, 6))
                mu = cb.make_distribution(rng.dirichlet(np.ones(n)))
                cases.append((mu, scale * rng.normal(size=n)))
        for mu, values in cases:
            f = cb.make_observable(values, mu)
            scale = float(np.abs(values).max())
            assert abs(float(mu.weights @ f.values)) <= 8 * np.spacing(scale)


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
        assert chain.mu is not None and chain.nu is not None
        assert np.allclose(chain.f_values, [1.0, -0.5])

    def test_continuous_chain(self, tmp_path):
        chain = cb.load_chain(
            self._write(tmp_path, {"labels": ["x", "y"], "Q": [[-1, 1], [2, -2]]})
        )
        assert chain.kind == "continuous"
        assert isinstance(chain.operator, cb.GeneratorMatrix)

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
        # zero weights stay in the vector, where radon_nikodym_norm reads them
        d = cb.make_distribution([0.5, 0.0, 0.5])
        assert d.weights.tolist() == [0.5, 0.0, 0.5] and d.n_states == 3
        with pytest.raises(errors.DimensionMismatch,
                           match="^distribution has 3 weights for 2 states$"):
            cb.make_distribution([0.5, 0.0, 0.5], 2)

    @pytest.mark.parametrize("weights", [[math.nan, 0.5], [0.5, math.inf], [-math.inf, 1.0]])
    def test_distribution_non_finite_rejected(self, weights):
        # NaN passes the sum check, as every comparison with NaN is false
        with pytest.raises(errors.InvalidDistribution, match="non-finite weight"):
            cb.make_distribution(weights)


PARITY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

DIGITS = st.text("0123456789", min_size=20, max_size=400)


def _decoded(read, path):
    """What a reader makes of a file: the document's repr and types, or the error."""
    try:
        doc = read(path)
    except errors.SchemaError as exc:
        return "SchemaError", str(exc)

    def lists(x):
        # a float64 row stands for the list of floats json.load gives
        if isinstance(x, np.ndarray):
            assert x.ndim == 1 and x.dtype == np.float64, (x.ndim, x.dtype)
            return x.tolist()
        if isinstance(x, list):
            return [lists(v) for v in x]
        if isinstance(x, dict):
            return {k: lists(v) for k, v in x.items()}
        return x

    doc = lists(doc)

    def types(x):
        if isinstance(x, list):
            return [types(v) for v in x]
        if isinstance(x, dict):
            return {k: types(v) for k, v in x.items()}
        return type(x).__name__

    return repr(doc), types(doc)


def _stdlib_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise errors.SchemaError(f"invalid JSON: {exc}") from exc


class TestReadJsonParity:
    """``_read_json`` returns what ``json.load`` returns, or its error message."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("parity") / "doc.json"

    def assert_parity(self, path, text):
        path.write_text(text, encoding="utf-8")
        assert _decoded(_read_json, path) == _decoded(_stdlib_json, path), text[:200]

    @PARITY
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12))
    def test_float_reprs(self, path, values):
        row = ", ".join(map(repr, values))
        self.assert_parity(path, f"[{row}]")
        self.assert_parity(path, f'{{"labels": ["a"], "P": [[{row}], [{row}]]}}')

    @PARITY
    @given(DIGITS, st.integers(0, 400), st.sampled_from(["", "-"]), st.integers(-400, 400))
    def test_long_mantissas(self, path, digits, point, sign, exponent):
        whole = digits.lstrip("0") or "0"
        split = f"{whole[:point] or '0'}.{whole[point:] or '0'}"
        self.assert_parity(path, f"[{sign}{whole}, {sign}{split}, {sign}{split}e{exponent}]")

    @PARITY
    @given(st.integers(1, 9), st.integers(-400, 400), st.sampled_from(["e", "E", "e+", "E-"]))
    def test_exponents(self, path, lead, exponent, marker):
        # out past +-308 doubles overflow to inf or underflow to 0
        self.assert_parity(path, f"[{lead}{marker}{exponent}, 0.{lead}{marker}{exponent}, 1]")

    @pytest.mark.parametrize("value", [
        2**63, -(2**63), 2**63 - 1, -(2**63) + 1, -(2**63) - 1, -(2**63) - 2,
        2**64 - 1, 2**64, 2**64 + 1, -(2**64), 10**23, -(10**23), 0, -0,
    ])
    def test_integers(self, path, value):
        # orjson rounds integers beyond 64 bits to floats; json keeps them
        self.assert_parity(path, f"[{value}]")
        self.assert_parity(path, f"[0.5, {value}, 1]")
        self.assert_parity(path, f'{{"labels": ["a"], "P": [[{value}]]}}')

    @pytest.mark.parametrize("text", [
        "[NaN]", "[Infinity, 1]", "[0.5, -Infinity]", "[1, NaN, 2]", "[-NaN]", "[nan]",
        '["\\ud800"]', '["\\udc00", 1]', '["a]", 1]', '["]"]', '[1, "]", 2]', '["[", 1]',
        '{"k]": [1, 2], "labels": ["]"]}', '["a", "b"]', "[true, 1]", "[false, null]",
        "[[1, 2], [3]]", "[[], [[]], [[[0.5]]]]", '[{"a": 1, "a": 2}]', '[1, {"b": [2]}]',
        '{"a": [1], "a": [2.5]}', '[{"a": [1]}, {"a": [1]}]',
        "[]", "[ ]", "[\n\t\r ]", " [ 1 ,\r\n 2 ] ", "[[ ], [\t]]", "[1\f]", "[\u00a01]",
        "[1 2]", "[1,]", "[,1]", "[1.]", "[.5]", "[01]", "[+1]", "[1e]", "[-]", "[0x10]",
        "\ufeff[1]", "[\ufeff1]", "[0.5, true]", "[0.5, null]", '[0.5, "0.5"]', "[1e23, 0.5]",
        "[1.8446744073709552e19, 0.5]", "[-9.2e18, 1.8e19]", "[[0.5], [1], [1.5, 2]]",
        "", "[", "[1, 2", "[[1, 2], [3", '{"P": [[0.5, 0.5]', "[1,", '["a', "[1]]", "[1] [2]",
    ])
    def test_edge_documents(self, path, text):
        self.assert_parity(path, text)


class TestFloatRows:
    """Arrays of floats are decoded to float64 rows and stacked as they are."""

    def test_dense_document_holds_about_its_doubles(self, tmp_path):
        n = 400
        P = random_transition(np.random.default_rng(3), n)
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"labels": [str(i) for i in range(n)], "P": P.entries.tolist()}))
        _read_json(path)  # imports orjson before the traced read
        tracemalloc.start()
        try:
            doc = _read_json(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a list of Python floats per row held 4.9 MB here
        assert held <= 1.5 * n * n * 8, held
        assert np.array_equal(_schema_array(doc["P"], '"P"', 2, n), P.entries)

    @pytest.mark.parametrize("text", [
        "[[0.5, 0.5], [1, 0]]", "[[1, 0], [0.5, 0.5]]", "[[0.5, 0.5], [true, 0.5]]",
        "[[true, false], [0.5, 0.5]]", "[[0.5, 0.5], [false, true]]", "[[0.5, 0.5], [null, 1]]",
        '[[0.5, 0.5], ["a", 1]]', "[[0.5, 0.5], [100000000000000000000000, 1]]",
        "[[0.5, 0.5], [18446744073709551615, 0.5]]", "[[0.5, 0.5], [-9223372036854775809, 0.5]]",
        "[[0.5, 1e23], [0, 1]]", "[[0.5, 0.5], [NaN, 1]]", "[[0.5, 0.5], [0.5]]",
        "[[0.5, 0.5], [0.5, [0.5]]]", '[[0.5, 0.5], "ab"]', "[[0.5, 0.5], {}]", "[0.5, 0.5]",
    ])
    def test_mixed_rows_match_all_lists(self, tmp_path, text):
        # the lists json.load gives take the type-scanning path throughout
        path = tmp_path / "m.json"
        path.write_text(text)

        def schema(doc):
            try:
                a = _schema_array(doc, "matrix", 2)
            except errors.SchemaError as exc:
                return "SchemaError", str(exc)
            return a.dtype, repr(a.tolist())

        assert schema(_read_json(path)) == schema(json.loads(text))
