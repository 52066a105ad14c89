from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liealg.lifting import (
    LiftedOperator,
    MultiIndexSpace,
    full_rank_predicate,
    grid_eval,
    lifted_diff,
    poly_operator_matrix,
    realize,
    space_of,
)
from liealg.linalg import numerical_rank
from liealg.operators import diff_matrix
from liealg.partitions import Partition, jittered_partition, uniform_partition

UNIT_SQUARE = [Partition(np.array([0.0, 1.0])), Partition(np.array([0.0, 1.0]))]
Z01 = np.array([[-1.0, 1.0], [-1.0, 1.0]])


def star(index, dims) -> int:
    """1-based linear index of a multi-index, by the ordering contract of the lifting
    module: dimension 1 varies fastest."""
    return int(np.ravel_multi_index(index, [n + 1 for n in dims], order="F")) + 1


def unstar(linear, dims) -> tuple[int, ...]:
    """Multi-index of a 1-based linear index (inverse of :func:`star`)."""
    return tuple(int(i) for i in np.unravel_index(linear - 1, [n + 1 for n in dims], order="F"))


def code(index) -> float:
    """A multi-index as the decimal number with digit alpha - 1 equal to i_alpha."""
    return float(sum(i * 10**a for a, i in enumerate(index)))


def index_codes(dims) -> np.ndarray:
    """grid_eval of :func:`code` on integer nodes 0..n_alpha: the multi-index at each
    position of a grid value vector."""
    ps = [Partition(np.arange(n + 1.0)) for n in dims]
    return grid_eval(lambda *xs: sum(x * 10.0**a for a, x in enumerate(xs)), ps)


def monomial_factors(op: LiftedOperator) -> list[np.ndarray]:
    """Per-dimension factors (Z_1^{k_1}, ..., Z_d^{k_d}) of a lifted monomial."""
    return [np.linalg.matrix_power(diff_matrix(p), k) if k else np.eye(p.n + 1)
            for p, k in zip(op.partitions, op.exponents)]


def entrywise_realize(op: LiftedOperator) -> np.ndarray:
    """Independent realization straight from the index rule, each product formed
    from dimension d down to dimension 1."""
    factors = monomial_factors(op)
    sizes = [p.n + 1 for p in op.partitions]
    total = prod(sizes)
    out = np.empty((total, total))
    for row in range(total):
        i = np.unravel_index(row, sizes, order="F")
        for col in range(total):
            j = np.unravel_index(col, sizes, order="F")
            value = factors[-1][i[-1], j[-1]]
            for f, ia, ja in zip(factors[-2::-1], i[-2::-1], j[-2::-1]):
                value = value * f[ia, ja]
            out[row, col] = value
    return out


def kron_chain(factors) -> np.ndarray:
    """kron(F_d, ..., F_1) of factors (F_1, ..., F_d), as a chain of np.kron calls."""
    out = np.array([[1.0]])
    for f in reversed(factors):
        out = np.kron(out, f)
    return out


def jittered_monomials(seed):
    """Every monomial with exponents 0..2 on jittered grids of d = 1, 2, 3."""
    rng = np.random.default_rng(seed)
    for ns in ((3,), (2, 3), (2, 1, 2)):
        ps = tuple(jittered_partition(rng, n) for n in ns)
        for exponents in product(range(3), repeat=len(ns)):
            yield LiftedOperator(ps, exponents)


def assert_bit_identical(got, expected):
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


class TestStar:
    # star(i) of the module docstring is where grid_eval puts the value at node i
    def test_origin_maps_to_one(self):
        assert star((0, 0, 0), (2, 3, 4)) == 1
        assert index_codes((2, 3, 4))[0] == code((0, 0, 0))

    def test_first_dimension_varies_fastest(self):
        assert star((3, 0), (3, 2)) == 4
        np.testing.assert_array_equal(index_codes((3, 2))[:5],
                                      [code((0, 0)), code((1, 0)), code((2, 0)), code((3, 0)),
                                       code((0, 1))])

    def test_formula_example(self):
        # i_2 (n_1 + 1) + i_1 + 1 with n_1 = 2
        assert star((1, 2), (2, 3)) == 2 * 3 + 1 + 1
        assert index_codes((2, 3))[7] == code((1, 2))


class TestUnstar:
    def test_one_maps_to_origin(self):
        assert unstar(1, (4, 5)) == (0, 0)
        assert index_codes((4, 5))[0] == code((0, 0))

    def test_formula_example(self):
        assert unstar(8, (2, 3)) == (1, 2)
        assert index_codes((2, 3))[8 - 1] == code((1, 2))

    def test_round_trip_exhaustive(self):
        dims = (2, 3, 1)
        codes = index_codes(dims)
        for linear in range(1, codes.size + 1):
            assert star(unstar(linear, dims), dims) == linear
            assert codes[linear - 1] == code(unstar(linear, dims))

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, dims, data):
        index = tuple(data.draw(st.integers(0, n)) for n in dims)
        assert unstar(star(index, dims), dims) == index
        assert index_codes(dims)[star(index, dims) - 1] == code(index)


class TestMultiIndexSpace:
    def test_dims_are_integers(self):
        # int(2.7) == 2 would quietly describe a smaller grid
        with pytest.raises(TypeError):
            MultiIndexSpace((2.7, 3))
        assert MultiIndexSpace((np.int64(2), True)).dims == (2, 1)
        assert MultiIndexSpace((2, 3)).total == 12

    def test_dims_range(self):
        for dims in ((), (0, 2)):
            with pytest.raises(ValueError, match="d >= 1"):
                MultiIndexSpace(dims)


class TestRealize:
    def test_diff_along_first_dimension_is_block_diagonal(self):
        got = realize(lifted_diff(1, UNIT_SQUARE))
        expected = np.block([[Z01, np.zeros((2, 2))], [np.zeros((2, 2)), Z01]])
        np.testing.assert_array_equal(got, expected)

    def test_diff_along_second_dimension(self):
        got = realize(lifted_diff(2, UNIT_SQUARE))
        expected = np.array([
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ])
        np.testing.assert_array_equal(got, expected)

    def test_identity(self):
        ps = (uniform_partition(0.0, 1.0, 2), uniform_partition(0.0, 1.0, 3))
        np.testing.assert_array_equal(realize(LiftedOperator(ps, (0, 0))), np.eye(12))

    def test_single_dimension_reduces_to_diff_matrix(self):
        p = Partition(np.array([0.0, 0.5, 2.0]))
        np.testing.assert_array_equal(realize(lifted_diff(1, [p])), diff_matrix(p))

    def test_result_is_a_fresh_writable_array(self):
        # for d = 1 the monomial is the stored, read-only Z; for d = 2 the second
        # request is stored on the grid: neither may reach the caller
        p = Partition(np.array([0.0, 0.5, 2.0]))
        got = realize(lifted_diff(1, [p]))
        assert got.flags.writeable and not np.shares_memory(got, diff_matrix(p))
        np.testing.assert_array_equal(got, diff_matrix(p))
        ps = [p, uniform_partition(0.0, 1.0, 2)]
        first, second = realize(lifted_diff(2, ps)), realize(lifted_diff(2, ps))
        assert first.flags.writeable and second.flags.writeable
        assert not np.shares_memory(first, second)
        second[0, 0] = np.nan
        np.testing.assert_array_equal(realize(lifted_diff(2, ps)), first)

    def test_matches_entrywise_rule(self):
        negative_zeros = 0
        for op in jittered_monomials(0):
            got = realize(op)
            assert_bit_identical(got, entrywise_realize(op))
            negative_zeros += np.count_nonzero((got == 0.0) & np.signbit(got))
        assert negative_zeros > 0

    def test_mult_factors(self):
        # multiplying by a coordinate is the constant term with that
        # coordinate's grid vector as row-scaling coefficient
        ps = [uniform_partition(0, 2, 2), uniform_partition(-1, 1, 1)]
        x = grid_eval(lambda x, y: x, ps)
        got = poly_operator_matrix([(x, (0, 0))], ps)
        np.testing.assert_array_equal(got, np.diag([0.0, 1.0, 2.0, 0.0, 1.0, 2.0]))
        y = grid_eval(lambda x, y: y, ps)
        got = poly_operator_matrix([(y, (0, 0))], ps)
        np.testing.assert_array_equal(got, np.diag([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]))

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="dimension index"):
            lifted_diff(3, UNIT_SQUARE)

    def test_alpha_is_an_integer(self):
        # int(1.5) == 1 would pick an operator the caller did not ask for
        with pytest.raises(TypeError):
            lifted_diff(1.5, UNIT_SQUARE)
        assert lifted_diff(True, UNIT_SQUARE) == lifted_diff(1, UNIT_SQUARE)
        assert lifted_diff(np.int64(2), UNIT_SQUARE).exponents == (0, 1)


class TestLiftedOperatorIdentity:
    def test_equal_and_hashed_through_partition_identity(self):
        p, q = Partition(np.array([0.0, 1.0])), Partition(np.array([0.0, 1.0]))
        assert lifted_diff(1, [p, q]) == lifted_diff(1, [p, q])
        assert hash(lifted_diff(1, [p, q])) == hash(lifted_diff(1, [p, q]))
        assert lifted_diff(1, [p, q]) != lifted_diff(1, [q, p])  # equal nodes, other grid
        assert lifted_diff(1, [p, q]) != lifted_diff(2, [p, q])


class TestKroneckerBitIdentity:
    def test_realize_matches_kron_chain(self):
        negative_zeros = 0
        for op in jittered_monomials(13):
            got = realize(op)
            assert_bit_identical(got, kron_chain(monomial_factors(op)))
            assert got.flags.writeable
            negative_zeros += np.count_nonzero((got == 0.0) & np.signbit(got))
        # identity zeros times negative entries give -0.0, as in np.kron
        assert negative_zeros > 0

    def test_poly_operator_matrix_matches_reference_sum(self):
        rng = np.random.default_rng(14)
        for ns in ((3, 2), (2, 1, 2)):
            ps = [jittered_partition(rng, n) for n in ns]
            total = space_of(ps).total
            exponents = [tuple(int(e) for e in rng.integers(0, 3, size=len(ns)))
                         for _ in range(5)]
            coeffs = [-1.5, rng.standard_normal(total), 2.0, rng.standard_normal(total), -0.25]
            terms = list(zip(coeffs, exponents))
            expected = np.zeros((total, total))
            for coeff, exps in terms:
                factors = [np.linalg.matrix_power(diff_matrix(p), e) if e else np.eye(p.n + 1)
                           for p, e in zip(ps, exps)]
                expected += np.reshape(coeff, (-1, 1)) * kron_chain(factors)
            assert_bit_identical(poly_operator_matrix(terms, ps), expected)


class TestCompose:
    def test_power_in_one_slot(self):
        w1 = realize(lifted_diff(1, UNIT_SQUARE))
        squared = poly_operator_matrix([(1.0, (2, 0))], UNIT_SQUARE)
        np.testing.assert_array_equal(squared, np.kron(np.eye(2), Z01 @ Z01))
        np.testing.assert_allclose(squared, w1 @ w1, atol=1e-15)

    def test_disjoint_slots_commute_exactly(self):
        ps = [jittered_partition(np.random.default_rng(1), 3),
              jittered_partition(np.random.default_rng(2), 4)]
        a, b = realize(lifted_diff(1, ps)), realize(lifted_diff(2, ps))
        assert np.abs(a @ b - b @ a).max() == 0.0

    def test_realizes_to_matrix_product(self):
        # a monomial term realizes to the product of the lifted derivative powers
        rng = np.random.default_rng(3)
        ps = [jittered_partition(rng, n) for n in (2, 2, 1)]
        w = [realize(lifted_diff(alpha, ps)) for alpha in (1, 2, 3)]
        for exponents in ((1, 1, 0), (2, 0, 1), (1, 2, 1)):
            right = np.eye(space_of(ps).total)
            for wa, e in zip(w, exponents):
                right = right @ np.linalg.matrix_power(wa, e)
            left = poly_operator_matrix([(1.0, exponents)], ps)
            np.testing.assert_allclose(left, right, atol=1e-12 * np.abs(right).max())


class TestPolyOperatorMatrix:
    def test_vector_coefficients_scale_rows(self):
        rng = np.random.default_rng(11)
        ps = [jittered_partition(rng, 3), jittered_partition(rng, 2)]
        total = space_of(ps).total
        terms = [(rng.standard_normal(total), (1, 0)), (2.5, (0, 2)),
                 (rng.standard_normal(total), (1, 1))]
        expected = np.zeros((total, total))
        for coeff, (k1, k2) in terms:
            factor = np.kron(np.linalg.matrix_power(diff_matrix(ps[1]), k2),
                             np.linalg.matrix_power(diff_matrix(ps[0]), k1))
            expected += np.diag(np.broadcast_to(coeff, total)) @ factor
        np.testing.assert_allclose(poly_operator_matrix(terms, ps), expected,
                                   rtol=1e-13, atol=1e-13 * np.abs(expected).max())

    def test_coefficient_length_check(self):
        with pytest.raises(ValueError, match="coefficient shape"):
            poly_operator_matrix([(np.ones(3), (1, 0))], UNIT_SQUARE)

    def test_exponent_validation(self):
        # Z is nilpotent: a negative power would be a meaningless huge "inverse"
        with pytest.raises(ValueError, match="non-negative"):
            poly_operator_matrix([(1.0, (-1, 0))], [uniform_partition(0.0, 1.0, 2)] * 2)
        with pytest.raises(ValueError, match="wrong length"):
            poly_operator_matrix([(1.0, (1,))], UNIT_SQUARE)
        with pytest.raises(TypeError):
            poly_operator_matrix([(1.0, (1.5, 0))], UNIT_SQUARE)

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="d >= 1"):
            poly_operator_matrix([], [])


class TestGridEval:
    def test_constant(self):
        np.testing.assert_array_equal(grid_eval(lambda x, y: 1.0, UNIT_SQUARE), np.ones(4))

    def test_complex_values_raise(self):
        # astype(float) would drop the imaginary part with only a ComplexWarning
        with pytest.raises(ValueError, match="complex"):
            grid_eval(lambda x, y: x + 1j * y, UNIT_SQUARE)
        with pytest.raises(ValueError, match="complex"):
            grid_eval(lambda x, y: 1j, UNIT_SQUARE)

    def test_result_is_a_fresh_writable_array(self):
        values = grid_eval(lambda x, y: 2.0, UNIT_SQUARE)
        values[0] = 0.0
        np.testing.assert_array_equal(values, [0.0, 2.0, 2.0, 2.0])
        assert grid_eval(lambda x, y: x > 0.5, UNIT_SQUARE).dtype == np.float64

    def test_first_coordinate_fastest(self):
        np.testing.assert_array_equal(
            grid_eval(lambda x, y: x, UNIT_SQUARE), [0.0, 1.0, 0.0, 1.0])
        np.testing.assert_array_equal(
            grid_eval(lambda x, y: y, UNIT_SQUARE), [0.0, 0.0, 1.0, 1.0])

    def test_matches_per_point_loop_in_3d(self):
        rng = np.random.default_rng(12)
        ps = [jittered_partition(rng, n) for n in (3, 1, 2)]
        sizes = [p.n + 1 for p in ps]

        def f(x, y, z):
            return np.sin(x) * y + z**3 - x * z

        expected = np.empty(prod(sizes))
        for k in range(expected.size):
            index = np.unravel_index(k, sizes, order="F")
            expected[k] = f(*(p.nodes[i] for p, i in zip(ps, index)))
        np.testing.assert_array_equal(grid_eval(f, ps), expected)

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="d >= 1"):
            grid_eval(lambda: 1.0, [])


class TestDerivativeExactness:
    def test_lifted_diff_differentiates_tensor_monomials(self):
        rng = np.random.default_rng(4)
        ps = [jittered_partition(rng, 4), jittered_partition(rng, 4)]
        w1 = realize(lifted_diff(1, ps))
        w2 = realize(lifted_diff(2, ps))
        for j in range(5):
            for l in range(5):
                values = grid_eval(lambda x, y: x**j * y**l, ps)
                dx = grid_eval(lambda x, y: j * x ** max(j - 1, 0) * y**l if j else 0.0, ps)
                dy = grid_eval(lambda x, y: l * x**j * y ** max(l - 1, 0) if l else 0.0, ps)
                for w, expected in ((w1, dx), (w2, dy)):
                    scale = max(np.abs(expected).max(), 1.0)
                    assert np.abs(w @ values - expected).max() <= 1e-10 * scale


class TestRankStructure:
    def test_power_ranks(self):
        rng = np.random.default_rng(5)
        ps = [jittered_partition(rng, 4), jittered_partition(rng, 3)]
        space = space_of(ps)
        for alpha in (1, 2):
            n_alpha = space.dims[alpha - 1]
            w = realize(lifted_diff(alpha, ps))
            power = np.eye(space.total)
            for k in range(n_alpha + 1):
                expected = (n_alpha + 1 - k) * space.total // (n_alpha + 1)
                assert numerical_rank(power) == expected
                power = power @ w

    def test_mixed_power_ranks(self):
        rng = np.random.default_rng(6)
        ps = [jittered_partition(rng, 4), jittered_partition(rng, 4)]
        space = space_of(ps)
        w1, w2 = realize(lifted_diff(1, ps)), realize(lifted_diff(2, ps))
        n1, n2 = space.dims
        for k in range(1, n1 + 1):
            for l in range(1, n2 + 1):
                matrix = np.linalg.matrix_power(w1, k) @ np.linalg.matrix_power(w2, l)
                expected = (n1 + 1 - k) * (n2 + 1 - l) * space.total // ((n1 + 1) * (n2 + 1))
                assert numerical_rank(matrix) == expected

    def test_nilpotent_power_vanishes(self):
        rng = np.random.default_rng(7)
        ps = [jittered_partition(rng, 3), jittered_partition(rng, 5)]
        for alpha in (1, 2):
            n_alpha = ps[alpha - 1].n
            w = realize(lifted_diff(alpha, ps))
            top = np.linalg.matrix_power(w, n_alpha + 1)
            norm_w = np.abs(w).sum(axis=1).max()
            assert np.abs(top).sum(axis=1).max() <= 1e-8 * norm_w ** (n_alpha + 1)


class TestFullRankPredicate:
    def test_shifted_derivative_is_full_rank(self):
        ps = [uniform_partition(0, 1, 3), uniform_partition(0, 1, 3)]
        terms = [(1.0, (0, 0)), (1.0, (1, 0))]
        assert full_rank_predicate(terms, ps)
        assert numerical_rank(poly_operator_matrix(terms, ps)) == space_of(ps).total

    def test_pure_derivative_is_deficient(self):
        ps = [uniform_partition(0, 1, 3), uniform_partition(0, 1, 3)]
        terms = [(1.0, (1, 0))]
        assert not full_rank_predicate(terms, ps)
        assert numerical_rank(poly_operator_matrix(terms, ps)) < space_of(ps).total

    def test_constant_plus_mixed_term(self):
        ps = [uniform_partition(0, 1, 3), uniform_partition(0, 1, 3)]
        terms = [(5.0, (0, 0)), (1.0, (1, 1))]
        assert full_rank_predicate(terms, ps)
        assert numerical_rank(poly_operator_matrix(terms, ps)) == space_of(ps).total

    def test_cancelling_constants(self):
        ps = [uniform_partition(0, 1, 2), uniform_partition(0, 1, 2)]
        terms = [(2.0, (0, 0)), (-2.0, (0, 0)), (1.0, (2, 0))]
        assert not full_rank_predicate(terms, ps)

    def test_exponents_are_integers(self):
        # int(0.5) == 0 would read (0.5, 0) as a constant term
        with pytest.raises(TypeError):
            full_rank_predicate([(1.0, (0.5, 0))], UNIT_SQUARE)
        assert full_rank_predicate([(1.0, (np.int64(0), 0))], UNIT_SQUARE)
        with pytest.raises(ValueError, match="non-negative"):
            full_rank_predicate([(1.0, (0, 0)), (1.0, (-1, 0))], UNIT_SQUARE)

    def test_exponent_length_check(self):
        for exponents in ((0,), (0, 0, 0)):
            with pytest.raises(ValueError, match="wrong length"):
                full_rank_predicate([(1.0, exponents)], UNIT_SQUARE)
        with pytest.raises(ValueError, match="d >= 1"):
            full_rank_predicate([(1.0, ())], [])

    def test_vector_coefficient_raises(self):
        # the theorem covers constant coefficients only; diag(c) @ I is singular
        # wherever c has a zero, and a vector on a derivative term breaks nilpotency
        for exponents in ((0, 0), (1, 0)):
            with pytest.raises(ValueError, match="constant coefficients"):
                full_rank_predicate([(1.0, (0, 0)), (np.array([1.0, 0.0, 1.0, 1.0]), exponents)],
                                    UNIT_SQUARE)

    def test_complex_coefficient_raises(self):
        with pytest.raises(ValueError, match="complex"):
            full_rank_predicate([(1j, (0, 0))], UNIT_SQUARE)

    def test_returns_python_bool(self):
        assert full_rank_predicate([(np.float64(2.0), (0, 0))], UNIT_SQUARE) is True
        assert full_rank_predicate([(1.0, (1, 0))], UNIT_SQUARE) is False

    def test_poly_matrix_exponent_length_check(self):
        ps = [uniform_partition(0, 1, 2)]
        with pytest.raises(ValueError, match="exponent"):
            poly_operator_matrix([(1.0, (1, 1))], ps)
