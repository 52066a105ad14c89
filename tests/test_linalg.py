import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liealg.audits import audit_nilpotent_poly_rank, counterexample_det, default_suite
from liealg.bvp import (
    _hyperbolic_system,
    error_metrics,
    hyperbolic_rhs,
    solve_hyperbolic,
    two_point_coefficients,
)
from liealg.lifting import full_rank_predicate, grid_eval, poly_operator_matrix
from liealg.linalg import (
    SingularSystemError,
    _format_rows,
    _powers,
    _substitute,
    as_matrix,
    as_vector,
    format_matrix,
    lu_factor,
    lu_solve,
    numerical_rank,
)
from liealg.operators import diff_matrix
from liealg.partitions import Partition, uniform_partition


def small_matrix(rows, cols):
    return st.lists(
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(np.array)


dims = st.integers(min_value=1, max_value=3)


def kron(a, b):
    """The standard two-factor Kronecker product, as the package forms it."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


class TestKron:
    def test_identities(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal_blocks(self):
        got = kron(np.diag([1.0, 2.0]), np.eye(2))
        np.testing.assert_array_equal(got, np.diag([1.0, 1.0, 2.0, 2.0]))

    def test_rank_multiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            assert numerical_rank(kron(a, b)) == numerical_rank(a) * numerical_rank(b)

    def test_rank_multiplicative_rank_deficient_factors(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m, p = rng.integers(2, 7, size=2)
            ra, rb = rng.integers(1, m + 1), rng.integers(1, p + 1)
            a = rng.standard_normal((m, ra)) @ rng.standard_normal((ra, m))
            b = rng.standard_normal((p, rb)) @ rng.standard_normal((rb, p))
            assert numerical_rank(kron(a, b)) == numerical_rank(a) * numerical_rank(b)

    @given(a=dims.flatmap(lambda r: dims.flatmap(lambda c: small_matrix(r, c))),
           b=dims.flatmap(lambda r: dims.flatmap(lambda c: small_matrix(r, c))),
           c=dims.flatmap(lambda r: dims.flatmap(lambda c: small_matrix(r, c))))
    @settings(max_examples=50, deadline=None)
    def test_associativity(self, a, b, c):
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        np.testing.assert_allclose(left, right, atol=1e-14)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_mixed_product(self, data):
        m, n, p = (data.draw(dims) for _ in range(3))
        r, s, t = (data.draw(dims) for _ in range(3))
        a = data.draw(small_matrix(m, n))
        c = data.draw(small_matrix(n, p))
        b = data.draw(small_matrix(r, s))
        d = data.draw(small_matrix(s, t))
        left = kron(a, b) @ kron(c, d)
        right = kron(a @ c, b @ d)
        scale = max(np.abs(right).max(), 1.0)
        np.testing.assert_allclose(left, right, atol=1e-12 * scale)


def chain(m, top):
    """M^0 .. M^top of one matrix by the 2-D chain from M itself: M^k = M^(k-1) @ M."""
    out = [np.eye(len(m)), m]
    while len(out) <= top:
        out.append(out[-1] @ m)
    return out[:top + 1]


class TestPowers:
    def test_each_slice_is_the_2d_chain_of_its_matrix(self):
        rng = np.random.default_rng(31)
        for shape in ((1, 1), (4, 4), (3, 1, 1), (4, 2, 2), (5, 6, 6), (2, 3, 5, 5)):
            stack = rng.standard_normal(shape)
            stack[rng.random(shape) < 0.3] = 0.0
            stack[rng.random(shape) < 0.2] = -0.0
            got = _powers(stack, 7)
            assert got.shape == (8, *shape)
            matrices = stack.reshape(-1, *shape[-2:])
            for i, m in enumerate(matrices):
                for k, expected in enumerate(chain(m, 7)):
                    assert got[k].reshape(matrices.shape)[i].tobytes() == expected.tobytes()

    def test_top_zero_is_identity_and_top_one_is_the_matrix(self):
        m = np.array([[-0.0, 2.0, 0.0], [1.5, -0.0, -3.0], [0.0, -0.0, 0.25]])
        assert _powers(m, 0).tobytes() == np.eye(3)[None].tobytes()
        low = _powers(m, 1)
        assert low[0].tobytes() == np.eye(3).tobytes()
        assert low[1].tobytes() == m.tobytes()
        stack = np.stack([m, -m])
        assert _powers(stack, 0).tobytes() == np.stack([np.eye(3)] * 2)[None].tobytes()
        assert _powers(stack, 1)[1].tobytes() == stack.tobytes()

    def test_every_power_goes_through_the_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.matrix_power called")

        monkeypatch.setattr(np.linalg, "matrix_power", refuse)
        assert all(report.passed for report in default_suite(42))
        assert poly_operator_matrix([(1.0, (5,))], [Partition(np.arange(7.0))]).shape == (7, 7)
        assert solve_hyperbolic(10, 10).error_max < 1e-2


def reference_lu_factor(a):
    """The elimination loop with fancy-index row swaps and an ``np.outer`` per step."""
    lu = np.array(a, dtype=float)
    n = lu.shape[0]
    piv = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if lu[p, k] == 0.0:
            raise SingularSystemError(k)
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            piv[[k, p]] = piv[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, piv


def two_point_system(n):
    """The collocation matrix and right-hand side of the ``table1`` 1-D solve."""
    part = uniform_partition(0.001, math.pi / 2.0, n)
    p, q, r, s = two_point_coefficients(part.nodes)
    return poly_operator_matrix([(r, (0,)), (q, (1,)), (p, (2,))], [part]), s


# elimination of this matrix overflows: its factors hold +inf, -inf, NaN and -0.0
OVERFLOWING = np.array([[3.0, 3.0, 1.0, 0.0],
                        [-2.0, -1.0, -2.0, 1.0],
                        [-1e308, 1e308, -0.0, 1e308],
                        [-1e308, 0.0, -1.0, -1e308]])


def signed_zero_matrices():
    """40 seeded random matrices, about 30% of their entries -0.0 and 20% +0.0."""
    rng = np.random.default_rng(31)
    for _ in range(40):
        size = int(rng.integers(2, 12))
        a = rng.standard_normal((size, size))
        a[rng.random(a.shape) < 0.3] = -0.0
        a[rng.random(a.shape) < 0.2] = 0.0
        yield a


def factor_or_breakdown(factor, a):
    try:
        return factor(a)
    except SingularSystemError as exc:
        return exc.pivot_index


class TestLuFactor:
    def assert_same_factors(self, a):
        got = factor_or_breakdown(lu_factor, a)
        expected = factor_or_breakdown(reference_lu_factor, a)
        if isinstance(expected, int):
            assert got == expected
            return
        (lu, piv), (ref_lu, ref_piv) = got, expected
        np.testing.assert_array_equal(lu, ref_lu)
        np.testing.assert_array_equal(np.signbit(lu), np.signbit(ref_lu))
        np.testing.assert_array_equal(piv, ref_piv)

    @pytest.mark.parametrize("n1, n2", [(4, 4), (10, 10), (12, 7), (15, 15)])
    def test_hyperbolic_operator_matches_reference_loop(self, n1, n2):
        k, _ = _hyperbolic_system([uniform_partition(-1.0, 1.0, n1),
                                   uniform_partition(-1.0, 1.0, n2)])
        self.assert_same_factors(k)

    def test_random_matrices_match_reference_loop(self):
        rng = np.random.default_rng(12)
        breakdowns = 0
        for _ in range(60):
            size = int(rng.integers(1, 40))
            a = rng.standard_normal((size, size))
            a[rng.random(a.shape) < 0.3] = 0.0  # zeros give signed-zero products
            a[:, rng.random(size) < 0.05] = 0.0  # a zero column breaks down
            self.assert_same_factors(a)
            breakdowns += isinstance(factor_or_breakdown(reference_lu_factor, a), int)
        assert breakdowns > 0

    def test_input_is_not_modified(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        lu_factor(a)
        np.testing.assert_array_equal(a, [[1.0, 2.0], [3.0, 4.0]])

    def test_negative_zero_entries_match_reference_loop(self):
        # a -0.0 below the pivot gives a -0.0 multiplier, which later steps must keep
        a = np.array([[2.0, 1.0, 3.0], [-0.0, 4.0, 1.0], [-0.0, 1.0, 5.0]])
        self.assert_same_factors(a)
        lu, _ = lu_factor(a)
        assert lu[1, 0] == 0.0 and np.signbit(lu[1, 0]) and np.signbit(lu[2, 0])
        for a in signed_zero_matrices():
            self.assert_same_factors(a)

    @pytest.mark.parametrize("a", [[[5.0]], [[-0.0]], [[-3.0]], [[1.0, 2.0], [3.0, 4.0]],
                                   [[-0.0, 2.0], [3.0, -0.0]], [[0.0, 1.0], [0.0, 2.0]]])
    def test_one_and_two_rows_match_reference_loop(self, a):
        self.assert_same_factors(np.array(a))

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_two_point_operators_match_reference_loop(self, n):
        self.assert_same_factors(two_point_system(n)[0])

    def test_20x20_hyperbolic_operator_matches_reference_loop(self):
        k, _ = _hyperbolic_system([uniform_partition(-1.0, 1.0, 20)] * 2)
        self.assert_same_factors(k)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflow_to_infinity_matches_reference_loop(self):
        self.assert_same_factors(OVERFLOWING)
        lu, _ = lu_factor(OVERFLOWING)
        assert np.isposinf(lu).any() and np.isneginf(lu).any() and np.isnan(lu).any()
        rng = np.random.default_rng(32)
        values = [1e308, -1e308, 1.0, -1.0, 0.0, -0.0, 3.0, -2.0]
        for _ in range(100):
            self.assert_same_factors(rng.choice(values, size=(5, 5)))

    def test_caller_buffer_size_is_restored(self, caller_bufsize):
        lu_factor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.getbufsize() == caller_bufsize
        with pytest.raises(SingularSystemError):
            lu_factor(np.zeros((3, 3)))
        assert np.getbufsize() == caller_bufsize

    def test_overflow_keeps_caller_error_state_and_buffer_size(self, caller_bufsize):
        # a caller that raises on overflow gets non-finite factors, not a FloatingPointError
        with np.errstate(over="raise", invalid="raise", divide="warn", under="warn"):
            caller = np.geterr()
            lu, _ = lu_factor(OVERFLOWING)
            assert not np.isfinite(lu).all()
            assert np.geterr() == caller and np.getbufsize() == caller_bufsize
            with pytest.raises(SingularSystemError):
                lu_factor(np.zeros((3, 3)))
            assert np.geterr() == caller and np.getbufsize() == caller_bufsize

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_factors_do_not_depend_on_caller_buffer_size(self, caller_bufsize):
        # the loop is elementwise, so its bits cannot depend on how NumPy buffers it
        k, _ = _hyperbolic_system([uniform_partition(-1.0, 1.0, 15)] * 2)
        self.assert_same_factors(k)
        self.assert_same_factors(OVERFLOWING)
        for a in signed_zero_matrices():
            self.assert_same_factors(a)


def factor_in_place(a):
    return lu_factor(a, overwrite_a=True)


class TestOverwrite:
    """``overwrite_a=True`` writes the copying path's factors into the caller's array."""

    def assert_same_factors_in_place(self, a):
        expected = factor_or_breakdown(lu_factor, a)
        work = a.copy()
        got = factor_or_breakdown(factor_in_place, work)
        if isinstance(expected, int):
            assert got == expected
            return
        (lu, piv), (ref_lu, ref_piv) = got, expected
        assert np.shares_memory(lu, work)
        np.testing.assert_array_equal(lu, ref_lu)
        np.testing.assert_array_equal(np.signbit(lu), np.signbit(ref_lu))
        np.testing.assert_array_equal(piv, ref_piv)

    @pytest.mark.parametrize("n", [10, 15, 20])
    def test_hyperbolic_operators(self, n):
        k, _ = _hyperbolic_system([uniform_partition(-1.0, 1.0, n)] * 2)
        self.assert_same_factors_in_place(k)

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_two_point_operators(self, n):
        self.assert_same_factors_in_place(two_point_system(n)[0])

    def test_signed_zeros_and_overflow(self):
        for a in signed_zero_matrices():
            self.assert_same_factors_in_place(a)
        self.assert_same_factors_in_place(OVERFLOWING)

    @pytest.mark.parametrize("kind", ["transposed", "fortran", "read-only", "int"])
    def test_unusable_input_gets_a_copy(self, kind):
        base = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 1.0], [0.0, 5.0, 6.0]])
        if kind == "transposed":
            a = base.T
        elif kind == "fortran":
            a = np.asfortranarray(base)
        elif kind == "read-only":
            a = base.copy()
            a.flags.writeable = False
        else:
            a = base.astype(int)
        before = a.copy()
        lu, piv = lu_factor(a, overwrite_a=True)
        assert not np.shares_memory(lu, a)
        np.testing.assert_array_equal(a, before)
        ref_lu, ref_piv = lu_factor(a)
        np.testing.assert_array_equal(lu, ref_lu)
        np.testing.assert_array_equal(piv, ref_piv)

    def assert_same_solve_in_place(self, a, b):
        x, rcond = lu_solve(a, b)
        factors = lu_factor(a)[0]
        got_x, got_rcond = lu_solve(a, b, overwrite_a=True)  # norm_inf(a) comes first
        np.testing.assert_array_equal(got_x, x)
        np.testing.assert_array_equal(np.signbit(got_x), np.signbit(x))
        assert got_rcond == rcond
        assert a.tobytes() == factors.tobytes()  # a now holds the factors

    @pytest.mark.parametrize("n", [10, 15, 20])
    def test_hyperbolic_solves(self, n):
        ps = [uniform_partition(-1.0, 1.0, n)] * 2
        self.assert_same_solve_in_place(_hyperbolic_system(ps)[0], grid_eval(hyperbolic_rhs, ps))

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_two_point_solves(self, n):
        self.assert_same_solve_in_place(*two_point_system(n))


def reference_lu_apply(lu, piv, b):
    """The substitution loop that updates ``x[k]`` by item assignment, copying each row back."""
    x = b[piv].astype(float, copy=True)
    n = lu.shape[0]
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x


def random_system(rng, size):
    a = rng.standard_normal((size, size)) + size * np.eye(size)
    a[rng.random(a.shape) < 0.2] = -0.0
    return a


class TestLuApply:
    def assert_same_bits(self, got, expected):
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))

    def assert_same_solves(self, a, b):
        lu, piv = lu_factor(a)
        x, inv = _substitute(lu, piv, b)
        self.assert_same_bits(x, reference_lu_apply(lu, piv, b))
        self.assert_same_bits(inv, reference_lu_apply(lu, piv, np.eye(a.shape[0])))
        solved, rcond = lu_solve(a, b)
        self.assert_same_bits(solved, x)
        norm_a, norm_inv = np.linalg.matrix_norm(np.stack([a, inv]), ord=np.inf)
        assert rcond == 1.0 / (norm_a * norm_inv)

    @pytest.mark.parametrize("n", [10, 15, 20])
    def test_hyperbolic_systems_match_reference_loop(self, n):
        k, rhs = _hyperbolic_system([uniform_partition(-1.0, 1.0, n)] * 2)
        self.assert_same_solves(k, rhs)

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_two_point_systems_match_reference_loop(self, n):
        self.assert_same_solves(*two_point_system(n))

    def test_random_systems_match_reference_loop(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            size = int(rng.integers(1, 30))
            b = rng.standard_normal(size)
            b[rng.random(size) < 0.3] = -0.0
            self.assert_same_solves(random_system(rng, size), b)

    def test_right_hand_side_is_not_modified(self):
        a, b = random_system(np.random.default_rng(34), 6), np.arange(6.0)
        lu, piv = lu_factor(a)
        _substitute(lu, piv, b)
        np.testing.assert_array_equal(b, np.arange(6.0))


class TestLuSolve:
    def test_identity(self):
        x, _ = lu_solve(np.eye(3), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(x, [1.0, 2.0, 3.0])

    def test_diagonal(self):
        x, rcond = lu_solve(np.diag([2.0, 4.0]), [2.0, 8.0])
        np.testing.assert_array_equal(x, [1.0, 2.0])
        assert rcond == pytest.approx(0.5)

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularSystemError) as err:
            lu_solve(np.zeros((2, 2)), [1.0, 1.0])
        assert err.value.pivot_index == 0

    def test_tiny_nonzero_pivot_is_not_singular(self):
        # only an exactly zero pivot raises; near-singularity shows in rcond
        x, rcond = lu_solve(np.diag([1e-300, 1.0]), [1e-300, 1.0])
        np.testing.assert_array_equal(x, [1.0, 1.0])
        assert rcond == pytest.approx(1e-300)

    def test_overflowing_factors_are_an_error(self):
        # lu_factor itself overflows to +-inf and NaN; the solve must not return them
        with pytest.raises(ValueError, match="not finite"):
            lu_solve(OVERFLOWING, [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("a, b", [
        ([[1e-310, 0.0, 1.0], [0.0, 1e-310, 0.0], [0.0, 0.0, 1.0]], [1.0, 1.0, 1.0]),  # x = [nan, inf, 1]
        ([[1e-310, 0.0], [0.0, 1.0]], [1.0, 1.0]),  # x = [inf, 1]
    ])
    def test_overflowing_substitution_is_an_error(self, a, b):
        with pytest.raises(ValueError, match="not finite"):
            lu_solve(a, b)

    def test_infinite_inverse_with_finite_solution_gives_zero_rcond(self):
        x, rcond = lu_solve([[1e-310, 0.0], [0.0, 1.0]], [0.0, 1.0])
        np.testing.assert_array_equal(x, [0.0, 1.0])
        assert rcond == 0.0

    def test_singular_pivot_index_reported(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularSystemError) as err:
            lu_solve(a, [1.0, 2.0])
        assert err.value.pivot_index == 1

    def test_caller_error_state_and_buffer_size_are_restored(self, caller_bufsize):
        # one np.errstate block covers the norm, the factors and the substitution
        with np.errstate(over="raise", invalid="raise", divide="warn", under="ignore"):
            caller = np.geterr()
            lu_solve(np.diag([2.0, 4.0]), [2.0, 8.0])
            assert np.geterr() == caller and np.getbufsize() == caller_bufsize
            with pytest.raises(SingularSystemError):
                lu_solve(np.zeros((2, 2)), [1.0, 1.0])
            assert np.geterr() == caller and np.getbufsize() == caller_bufsize
            with pytest.raises(ValueError, match="not finite"):
                lu_solve(OVERFLOWING, [1.0, 2.0, 3.0, 4.0])
            assert np.geterr() == caller and np.getbufsize() == caller_bufsize

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="square"):
            lu_solve(np.ones((2, 3)), [1.0, 1.0])
        with pytest.raises(ValueError, match="length"):
            lu_solve(np.eye(2), [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="1-D vector"):
            lu_solve(np.eye(2), np.ones((2, 1)))

    def test_non_finite_right_hand_side_is_an_error(self):
        with pytest.raises(ValueError, match="vector entries must be finite"):
            lu_solve(np.eye(2), [1.0, np.inf])

    def test_residual_bound_random_systems(self):
        rng = np.random.default_rng(11)
        for size in (3, 10, 50, 200):
            a = rng.standard_normal((size, size)) + size * np.eye(size)
            b = rng.standard_normal(size)
            x, rcond = lu_solve(a, b)
            residual = np.abs(a @ x - b).max()
            bound = 1e-10 * (np.abs(a).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())
            assert residual <= bound
            assert 0.0 < rcond <= 1.0


P3 = [uniform_partition(0.0, 1.0, 3)]
NON_FINITE_CALLS = {
    "poly_operator_matrix, scalar": lambda v: poly_operator_matrix([(v, (1,))], P3),
    "poly_operator_matrix, vector": lambda v: poly_operator_matrix(
        [(np.array([1.0, v, 1.0, 1.0]), (1,))], P3),
    "full_rank_predicate": lambda v: full_rank_predicate([(v, (0,))], P3),
    "counterexample_det": lambda v: counterexample_det(v, 0.0),
    "error_metrics": lambda v: error_metrics([v, 1.0], [1.0, 1.0]),
    "grid_eval": lambda v: grid_eval(lambda x: np.full_like(x, v), P3),
    "audit_nilpotent_poly_rank": lambda v: audit_nilpotent_poly_rank(
        np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0, v], 1),
    "as_matrix": lambda v: as_matrix([[1.0, v]]),
    "as_vector": lambda v: as_vector([1.0, v]),
    "numerical_rank, matrix": lambda v: numerical_rank([[1.0, v]]),
    "numerical_rank, stack": lambda v: numerical_rank([[[1.0]], [[v]]]),
    "Partition": lambda v: Partition(np.array([0.0, v])),
    "lu_solve, a": lambda v: lu_solve([[1.0, 0.0], [0.0, v]], [1.0, 1.0]),
    "lu_solve, b": lambda v: lu_solve(np.eye(2), [1.0, v]),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", NON_FINITE_CALLS)
def test_non_finite_input_is_an_error(name, value):
    """Every public entry takes its input through the one real-and-finite check."""
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_CALLS[name](value)


def test_non_finite_messages_name_the_input():
    for call, message in ((lambda: as_matrix([[math.nan]]), "matrix entries must be finite"),
                          (lambda: as_vector([math.inf]), "vector entries must be finite"),
                          (lambda: numerical_rank(np.full((2, 1, 1), -math.inf)),
                           "matrix entries must be finite"),
                          (lambda: Partition(np.array([0.0, math.nan])),
                           "partition nodes must be finite")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestComplexInput:
    """A cast to float would drop the imaginary parts with only a ComplexWarning."""

    def test_as_matrix_rejects(self):
        with pytest.raises(ValueError, match="complex"):
            as_matrix(np.array([[1.0 + 2.0j]]))
        with pytest.raises(ValueError, match="complex"):
            as_matrix([[1.0, 2.0 + 0.0j]])

    def test_as_vector_rejects(self):
        with pytest.raises(ValueError, match="complex"):
            as_vector(np.array([1.0, 1.0j]))

    def test_numerical_rank_rejects(self):
        with pytest.raises(ValueError, match="complex"):
            numerical_rank(np.eye(2) * 1.0j)

    def test_real_input_is_unchanged(self):
        np.testing.assert_array_equal(as_matrix([[1, 2]]), np.array([[1.0, 2.0]]))
        assert as_vector(np.arange(3)).dtype == float


def reference_rank(a, rel_tol):
    """The rank rule on one matrix, with its own 2-D SVD."""
    s = np.linalg.svd(a, compute_uv=False)
    return 0 if s[0] == 0.0 else int(np.count_nonzero(s > rel_tol * s[0]))


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_diff_matrix_three_nodes(self):
        z = diff_matrix(Partition(np.array([0.0, 1.0, 2.0])))
        assert numerical_rank(z) == 2

    def test_threshold_definition(self):
        assert numerical_rank(np.diag([1.0, 1e-15]), rel_tol=1e-8) == 1

    def test_rel_tol_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="rel_tol"):
                numerical_rank(np.eye(2), rel_tol=bad)
            with pytest.raises(ValueError, match="rel_tol"):
                numerical_rank(np.eye(2)[None], rel_tol=bad)

    def test_matrix_gives_python_int(self):
        assert type(numerical_rank(np.eye(2))) is int
        with pytest.raises(ValueError, match="2-D"):
            numerical_rank(np.ones(3))
        # the message names the caller's shape, not that of a stack of one
        for bad, shape in ((np.zeros((0, 3)), r"\(0, 3\)"), (np.ones(3), r"\(3,\)")):
            with pytest.raises(ValueError, match=f"got shape {shape}$"):
                numerical_rank(bad)

    def test_stack_of_mixed_ranks(self):
        stack = np.array([np.zeros((3, 3)), np.diag([2.0, 0.0, 0.0]), np.eye(3),
                          np.diag([1.0, 1e-15, 1.0])])
        np.testing.assert_array_equal(numerical_rank(stack), [0, 1, 3, 2])

    def test_empty_stack(self):
        for shape in ((0, 3, 3), (0, 3, 2)):
            ranks = numerical_rank(np.zeros(shape))
            assert ranks.shape == (0,) and ranks.dtype == numerical_rank(np.eye(2)[None]).dtype

    def test_stack_validation(self):
        with pytest.raises(ValueError, match="stack"):
            numerical_rank(np.zeros((2, 0, 3)))
        bad = np.ones((2, 2, 2))
        bad[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            numerical_rank(bad)

    @given(rows=st.integers(1, 6), cols=st.integers(1, 6),
           ranks=st.lists(st.integers(0, 6), min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_per_matrix_calls(self, rows, cols, ranks, seed):
        rng = np.random.default_rng(seed)
        stack = np.empty((len(ranks), rows, cols))
        for i, r in enumerate(ranks):
            r = min(r, rows, cols)  # r = 0 gives the zero matrix
            scale = 10.0 ** rng.uniform(-3, 3)
            stack[i] = scale * rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        for rel_tol in (1e-8, 0.5):
            got = numerical_rank(stack, rel_tol)
            assert got.shape == (len(ranks),)
            assert got.tolist() == [numerical_rank(m, rel_tol) for m in stack]
            assert got.tolist() == [reference_rank(m, rel_tol) for m in stack]


def test_format_matrix_round_trips_17_digits():
    a = np.array([[np.pi, -1.0 / 3.0], [1e-12, 2.0]])
    text = format_matrix(a)
    parsed = np.array([[float(v) for v in line.split()] for line in text.splitlines()])
    np.testing.assert_array_equal(parsed, a)


def reference_format(a):
    """The per-entry f-string dump that the row-template kernel replaced."""
    return "\n".join(" ".join(f"{v:.16e}" for v in row) for row in np.asarray(a, dtype=float))


# signed zeros, subnormals, the normal range's ends and integer-valued floats
SPECIAL_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308,
                   1e300, -1e300, 1.7976931348623157e308, 1.0, -3.0, 12345678.0, 2.0**53]
entries = st.one_of(
    st.sampled_from(SPECIAL_ENTRIES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**9, 10**9).map(float),
)


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_format_matrix_equals_per_entry_reference(rows, cols, data):
    values = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    a = np.array(values).reshape(rows, cols)
    assert format_matrix(a) == reference_format(a)


def test_format_matrix_special_entries_and_integer_input():
    a = np.array(SPECIAL_ENTRIES[:12]).reshape(3, 4)
    text = format_matrix(a)
    assert text == reference_format(a)
    assert "-0.0000000000000000e+00" in text and "4.9406564584124654e-324" in text
    assert format_matrix(a.T) == reference_format(a.T)  # a transposed view, rows in order
    assert format_matrix(np.array([[1, -2], [0, 7]])) == reference_format([[1, -2], [0, 7]])


def test_format_kernel_prints_non_finite_values():
    rows = np.array([[np.nan, np.inf], [-np.inf, -0.0]])
    assert _format_rows(rows) == "nan inf\n-inf -0.0000000000000000e+00"
    assert _format_rows(rows) == reference_format(rows)
    with pytest.raises(ValueError, match="finite"):
        format_matrix(rows)
