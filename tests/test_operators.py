import gc
import hashlib
import math
import warnings
import weakref

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liealg.bvp import _hyperbolic_system
from liealg.lifting import poly_operator_matrix
from liealg.linalg import _kron, _norm_inf, numerical_rank
from liealg.operators import (
    _diff_matrices,
    _monomial,
    diff_matrix,
)
from liealg.partitions import Partition, _jittered_nodes, jittered_partition, uniform_partition

P01 = Partition(np.array([0.0, 1.0]))
P012 = Partition(np.array([0.0, 1.0, 2.0]))

Z01 = np.array([[-1.0, 1.0], [-1.0, 1.0]])
Z012 = np.array([[-1.5, 2.0, -0.5], [-0.5, 0.0, 0.5], [0.5, -2.0, 1.5]])


class TestDiffMatrix:
    def test_two_nodes(self):
        np.testing.assert_allclose(diff_matrix(P01), Z01, atol=1e-15)

    def test_three_nodes(self):
        np.testing.assert_allclose(diff_matrix(P012), Z012, atol=1e-15)

    def test_rows_annihilate_constants(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = jittered_partition(rng, int(rng.integers(1, 13)))
            z = diff_matrix(p)
            scale = np.abs(z).sum(axis=1).max()
            assert np.abs(z.sum(axis=1)).max() <= 1e-13 * scale

    def test_exact_derivatives_of_low_degree_polynomials(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            p = jittered_partition(rng, n)
            z = diff_matrix(p)
            coeffs = rng.uniform(-1, 1, n + 1)
            poly = np.polynomial.Polynomial(coeffs)
            expected = poly.deriv()(p.nodes)
            got = z @ poly(p.nodes)
            scale = max(np.abs(expected).max(), 1.0)
            assert np.abs(got - expected).max() <= 1e-10 * scale

    def test_nilpotent_at_power_n_plus_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            z = diff_matrix(jittered_partition(rng, n))
            power = np.linalg.matrix_power(z, n + 1)
            norm_z = np.abs(z).sum(axis=1).max()
            assert np.abs(power).sum(axis=1).max() <= 1e-8 * norm_z ** (n + 1)

    def test_rank_ladder(self):
        for p in (P01, P012, Partition(np.arange(4.0)), jittered_partition(np.random.default_rng(6), 6)):
            n = p.n
            z = diff_matrix(p)
            power = np.eye(n + 1)
            for k in range(n + 1):
                assert numerical_rank(power) == n + 1 - k
                power = power @ z
            # the (n+1)-th power is zero only up to round-off; judge by norm decay
            norm_z = np.abs(z).sum(axis=1).max()
            assert np.abs(power).sum(axis=1).max() <= 1e-8 * norm_z ** (n + 1)

    def test_columns_interpolate_basis_derivatives(self):
        # independent oracle: each l_k in power-basis coefficients, from its roots,
        # then d/dx l_k against the interpolant sum_j Z[j,k] l_j(x)
        rng = np.random.default_rng(7)
        p = jittered_partition(rng, 5)
        z = diff_matrix(p)
        basis = []
        for k, x_k in enumerate(p.nodes):
            numerator = P.polyfromroots(np.delete(p.nodes, k))
            basis.append(numerator / P.polyval(x_k, numerator))
        for x in rng.uniform(0.0, 1.0, 50):
            values = np.array([P.polyval(x, l_k) for l_k in basis])
            for k, l_k in enumerate(basis):
                assert abs(P.polyval(x, P.polyder(l_k)) - values @ z[:, k]) <= 1e-10


def chebyshev_lobatto_partition(n: int, a: float, b: float) -> Partition:
    """Nodes (a + b)/2 - (b - a)/2 cos(pi i / n), i = 0..n."""
    return Partition((a + b) / 2 - (b - a) / 2 * np.cos(np.pi * np.arange(n + 1) / n))


@st.composite
def partitions(draw):
    """Jittered or Chebyshev-Lobatto partitions with n <= 12 on a drawn interval."""
    n = draw(st.integers(1, 12))
    a = draw(st.floats(-5.0, 5.0))
    b = a + draw(st.sampled_from([1e-2, 0.5, 1.0, 3.0, 10.0]))
    if draw(st.booleans()):
        return chebyshev_lobatto_partition(n, a, b)
    return jittered_partition(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, a, b)


def chebyshev_row(n: int) -> np.ndarray:
    """Chebyshev-Lobatto nodes on [-1, 1] as a one-row stack, rounded to 12 digits so
    that they do not depend on the last bit of the platform's cosine."""
    return np.array([[round(-math.cos(math.pi * i / n), 12) for i in range(n + 1)]])


def pinned_node_stacks():
    """Per n = 1..40 a stack of a uniform row on [0, 1], a jittered row on [-2, 1] and a
    jittered row on the wide interval [-1e3, 1e3]; then Chebyshev-Lobatto rows for
    n = 700, 750, 800, where 123 rows of pi-weight partial products at n = 800 pass
    through subnormals although every weight is normal."""
    for n in range(1, 41):
        rng = np.random.default_rng(n)
        yield np.stack([np.linspace(0.0, 1.0, n + 1), _jittered_nodes(rng, n, -2.0, 1.0),
                        _jittered_nodes(rng, n, -1e3, 1e3)])
    for n in (700, 750, 800):
        yield chebyshev_row(n)


# sha256 of the Z bytes of pinned_node_stacks(), recorded when the pi-weights were
# formed by a function of their own, before they moved into the Z kernel
PINNED_Z_SHA256 = "cc6b2034057cbecddec14a2516ec56b1c6e18901149853a400c3a60f726575ef"


def reference_diff_matrix(x):
    """The closed form of Z for one node row, one matrix at a time."""
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    pi = diff.prod(axis=1)
    np.fill_diagonal(diff, np.inf)
    z = (pi[:, None] / pi[None, :]) / diff
    np.fill_diagonal(z, (1.0 / diff).sum(axis=1))
    return z


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


class TestDiffMatrices:
    """The stacked Z kernel against the per-partition closed form, bit for bit."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_rows_and_stacks_equal_per_partition_reference(self, n):
        rng = np.random.default_rng(100 + n)
        rows = [uniform_partition(0.0, 1.0, n).nodes, uniform_partition(-1.0, 1.0, n).nodes,
                chebyshev_lobatto_partition(n, -1.0, 1.0).nodes,
                chebyshev_lobatto_partition(n, 0.0, 3.0).nodes]
        rows += [jittered_partition(rng, n, -2.0, 1.0).nodes for _ in range(6)]
        stack = _diff_matrices(np.stack(rows))
        assert stack.shape == (len(rows), n + 1, n + 1)
        for x, z in zip(rows, stack):
            reference = reference_diff_matrix(x)
            assert_same_bits(z, reference)
            assert_same_bits(_diff_matrices(x[None])[0], reference)
            assert_same_bits(diff_matrix(Partition(x)), reference)

    def test_non_finite_row_raises(self):
        rows = np.stack([np.linspace(-1.0, 1.0, 1001), np.linspace(0.0, 1000.0, 1001)])
        with pytest.raises(ValueError, match="1001 nodes is not finite"):
            _diff_matrices(rows)

    def test_bytes_are_pinned(self):
        digest = hashlib.sha256()
        for stack in pinned_node_stacks():
            digest.update(_diff_matrices(stack).tobytes())
        assert digest.hexdigest() == PINNED_Z_SHA256
        for rows, m in ((np.linspace(-1.0, 1.0, 1001)[None], 1001), (chebyshev_row(900), 901)):
            with pytest.raises(ValueError, match=f"{m} nodes is not finite"):
                _diff_matrices(rows)


class TestDiffMatrixProperties:
    """Exactness of Z on polynomials of degree <= n, judged as the benchmark's
    ``diffmat`` check judges it: residual <= 1e-12 * norm_inf(Z) * max|x^j|."""

    @given(p=partitions())
    @settings(max_examples=80, deadline=None)
    def test_annihilates_constants(self, p):
        z = diff_matrix(p)
        assert np.abs(z @ np.ones(p.n + 1)).max() <= 1e-12 * _norm_inf(z)

    @given(p=partitions())
    @settings(max_examples=80, deadline=None)
    def test_differentiates_monomials_exactly(self, p):
        z, x = diff_matrix(p), p.nodes
        for j in range(p.n + 1):
            v = x**j
            expected = j * x ** (j - 1) if j else np.zeros_like(x)
            residual = np.abs(z @ v - expected).max()
            assert residual <= 1e-12 * _norm_inf(z) * np.abs(v).max(), j


def power(p, k):
    """Z^k of one partition: the d = 1 monomial, stored under ``((), (k,))``."""
    return _monomial([p], (k,))


def powers(p):
    """The powers in a partition's store, by k."""
    return {key[1][0]: matrix for key, matrix in p._monomials.items() if not key[0]}


def products(p):
    """The product entries in a partition's store: a ``None`` marker or a matrix each."""
    return {key: matrix for key, matrix in p._monomials.items() if key[0]}


def stored(p):
    """The product matrices stored on a partition."""
    return [matrix for matrix in products(p).values() if matrix is not None]


class TestDiffPowerPerPartition:
    def test_read_only_repeated_and_exact(self):
        p = jittered_partition(np.random.default_rng(16), 6)
        z = diff_matrix(p)
        assert power(p, 1) is z and p._monomials[((), (1,))] is z
        chain = [np.eye(7), z]  # the 2-D chain from Z: Z^k = Z^(k-1) @ Z
        while len(chain) < 9:
            chain.append(chain[-1] @ z)
        for k in range(9):
            kth = power(p, k)
            assert power(p, k) is kth
            assert not kth.flags.writeable
            if k >= 2:  # its own array, not a view holding the lower powers
                assert kth.base is None
            np.testing.assert_array_equal(kth, chain[k])
        np.testing.assert_array_equal(power(p, 0), np.eye(7))

    def test_assemblers_store_and_reuse_powers(self):
        p = jittered_partition(np.random.default_rng(17), 4)
        poly_operator_matrix([(1.0, (2,)), (1.0, (0,))], [p])
        assert sorted(powers(p)) == [0, 1, 2]  # Z^2 is built from Z, stored as power 1
        kept = powers(p)[2]
        poly_operator_matrix([(1.0, (2, 1))], [p, p])
        assert powers(p)[2] is kept and sorted(powers(p)) == [0, 1, 2]

    def test_equal_partition_gets_its_own_powers(self):
        nodes = np.array([0.0, 0.5, 2.0, 2.5])
        first, second = Partition(nodes), Partition(nodes.copy())
        assert power(first, 2) is not power(second, 2)
        np.testing.assert_array_equal(power(first, 2), power(second, 2))

    def test_overflowing_power_raises_each_call_and_is_not_stored(self):
        # Z has entries of 1e200, so Z^2 overflows float64
        p = Partition(np.array([0.0, 1e-200, 1.0]))
        assert np.all(np.isfinite(diff_matrix(p)))
        for _ in range(2):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
                poly_operator_matrix([(1.0, (2,))], [p])
        assert 2 not in powers(p)


def fresh_kron_sum(terms, ps):
    """sum_t diag(c_t) kron(Z_d^{k_d}, ..., Z_1^{k_1}), every product built anew."""
    total = int(np.prod([p.n + 1 for p in ps]))
    out = np.zeros((total, total))
    for coeff, exponents in terms:
        factors = [np.linalg.matrix_power(diff_matrix(p), k) if k else np.eye(p.n + 1)
                   for p, k in zip(ps, exponents)]
        product = _kron(factors)
        out += (coeff[:, None] if np.ndim(coeff) else coeff) * product
    return out


class TestLiftedMonomialStore:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("vector", [False, True])
    def test_bit_identical_to_fresh_kron_chain(self, d, vector):
        rng = np.random.default_rng(40 + d)
        ps = [jittered_partition(rng, n) for n in (3, 2, 2)[:d]]
        total = int(np.prod([p.n + 1 for p in ps]))
        exponents = [(1, 0, 2)[:d], (0, 2, 1)[:d], (2, 1, 0)[:d], (0,) * d, (1, 1, 1)[:d]]
        if vector:
            coeffs = [rng.uniform(-1.0, 1.0, total) for _ in exponents]
            coeffs[0][::3] = -0.0
            coeffs[1][::2] = 0.0
        else:
            coeffs = [-0.0, 1.5, -2.0, 0.0, -0.25]
        terms = list(zip(coeffs, exponents))
        expected = fresh_kron_sum(terms, ps)
        for _ in range(3):  # built unstored, stored, then served from the store
            got = poly_operator_matrix(terms, ps)
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
        assert len(stored(ps[0])) == len(exponents)

    def test_stored_from_second_request_read_only_and_reused(self):
        ps = [jittered_partition(np.random.default_rng(44), n) for n in (3, 4)]
        first = _monomial(ps, (2, 1))
        assert first.flags.writeable and not stored(ps[0])
        assert products(ps[0]) == {((ps[1],), (2, 1)): None}
        second = _monomial(ps, (2, 1))
        [kept] = stored(ps[0])
        assert kept is second and not second.flags.writeable
        assert _monomial(ps, (2, 1)) is second
        np.testing.assert_array_equal(first, second)

    def test_one_dimension_is_the_stored_power(self):
        p = jittered_partition(np.random.default_rng(45), 4)
        assert _monomial([p], (2,)) is p._monomials[((), (2,))]
        assert diff_matrix(p) is p._monomials[((), (1,))]
        assert not products(p)

    def test_equal_partitions_get_their_own_entries(self):
        nodes = np.array([0.0, 0.5, 2.0, 2.5])
        p, q, q_copy = Partition(nodes), Partition(nodes), Partition(nodes.copy())
        for grid in ([p, q], [p, q_copy]):
            _monomial(grid, (1, 2))
            _monomial(grid, (1, 2))
        first, second = stored(p)
        assert first is not second
        np.testing.assert_array_equal(first, second)
        assert _monomial([p, q], (1, 2)) is first and _monomial([p, q_copy], (1, 2)) is second

    def test_entry_of_another_grid_is_never_served(self):
        # the key holds the grid's other partitions, so it keeps them alive: no
        # partition made later can stand in for one of them
        p, q, r = (jittered_partition(np.random.default_rng(46 + i), 3) for i in range(3))
        _monomial([p, q], (1, 1))
        kept = _monomial([p, q], (1, 1))
        q_ref, p_ref = weakref.ref(q), weakref.ref(p)
        del q
        gc.collect()
        [(key, entry)] = products(p).items()
        assert q_ref() is not None and key == ((q_ref(),), (1, 1)) and entry is kept
        for _ in range(3):
            got = _monomial([p, r], (1, 1))
            assert got is not kept
            np.testing.assert_array_equal(got, fresh_kron_sum([(1.0, (1, 1))], [p, r]))
        assert not np.array_equal(got, kept)
        first, second = stored(p)
        assert first is kept and second is got
        del p, kept, got, key, entry, first, second
        gc.collect()
        assert p_ref() is None and q_ref() is None  # the store goes with its partition

    def test_monomials_asked_for_once_store_no_matrix(self):
        # a 2-D solve asks for each monomial once: no N x N product outlives it
        ps = [uniform_partition(-1.0, 1.0, 15), uniform_partition(-1.0, 1.0, 15)]
        _hyperbolic_system(ps)
        markers = products(ps[0])
        assert len(markers) == 4 and not stored(ps[0])  # Dx, Dy, Dx^2, Dy^2
        assert {exponents for _, exponents in markers} == {(1, 0), (0, 1), (2, 0), (0, 2)}
        assert not products(ps[1])

    @pytest.mark.parametrize("position", [0, 1])
    def test_overflowing_power_raises_each_call_and_is_not_stored(self, position):
        # Z has entries of 1e200, so Z^2 overflows float64
        ps = [uniform_partition(0.0, 1.0, 2), uniform_partition(0.0, 1.0, 3)]
        ps[position] = Partition(np.array([0.0, 1e-200, 1.0]))
        for _ in range(3):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
                poly_operator_matrix([(1.0, (2, 2))], ps)
        assert not products(ps[0]) and 2 not in powers(ps[position])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_product_raises_each_call_and_is_not_stored(self):
        # each Z is finite, with entries of 2e160, but Z x Z overflows float64
        nodes = np.array([0.0, 1e-160, 2e-160])
        ps = [Partition(nodes), Partition(nodes)]
        for _ in range(3):
            with pytest.raises(ValueError, match=r"lifted monomial \(1, 1\) overflows float64"):
                poly_operator_matrix([(1.0, (1, 1))], ps)
        assert not products(ps[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("exponents, root", [((1, 1), 2), ((1, 0, 1), 2), ((1, 1, 1), 3)])
    def test_overflow_check_is_exact_at_the_boundary(self, exponents, root):
        # spacings around the one where the product's largest entry reaches the largest float:
        # the monomial raises exactly when a full entrywise product holds an infinite entry
        edge = 2.0 / np.finfo(float).max ** (1.0 / root)  # Z[1, 0] = -2/h is its largest
        outcomes = set()
        for step in range(-40, 41):
            h = edge * (1.0 + step * 2.0**-50)
            ps = [Partition(np.array([0.0, h, 2.0 * h])) for _ in exponents]
            with np.errstate(over="ignore"):
                overflows = not np.isfinite(fresh_kron_sum([(1.0, exponents)], ps)).all()
            if overflows:
                with pytest.raises(ValueError, match="overflows float64"):
                    _monomial(ps, exponents)
            else:
                np.testing.assert_array_equal(_monomial(ps, exponents),
                                              fresh_kron_sum([(1.0, exponents)], ps))
            outcomes.add(overflows)
        assert outcomes == {True, False}


class TestOperatorPoly:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            poly_operator_matrix([(1.0, (-1,))], [P012])
        with pytest.raises(TypeError):
            poly_operator_matrix([(1.0, (1.5,))], [P012])
        with pytest.raises(ValueError, match="coefficient shape"):
            poly_operator_matrix([(np.ones(2), (1,))], [P012])

    def test_second_derivative_plus_identity(self):
        for p in (P012, jittered_partition(np.random.default_rng(8), 5)):
            z = diff_matrix(p)
            np.testing.assert_allclose(poly_operator_matrix([(1.0, (2,)), (1.0, (0,))], [p]),
                                       z @ z + np.eye(p.n + 1), rtol=1e-14, atol=1e-14)

    def test_single_derivative_term(self):
        np.testing.assert_allclose(poly_operator_matrix([(1.0, (1,))], [P01]), Z01, atol=1e-15)

    def test_coordinate_coefficient_reduces_to_mult_matrix(self):
        np.testing.assert_array_equal(poly_operator_matrix([(P012.nodes, (0,))], [P012]),
                                      np.diag(P012.nodes))

    def test_matches_diagonal_times_power_reference(self):
        rng = np.random.default_rng(13)
        for n in (1, 4, 9):
            p = jittered_partition(rng, n)
            z = diff_matrix(p)
            terms = [(rng.standard_normal(n + 1), (k,)) for k in range(min(n, 3) + 1)]
            expected = sum(np.diag(c) @ np.linalg.matrix_power(z, k) for c, (k,) in terms)
            got = poly_operator_matrix(terms, [p])
            np.testing.assert_allclose(got, expected, rtol=1e-13,
                                       atol=1e-13 * np.abs(expected).max())

    def test_bit_identical_to_scaled_power_sum(self):
        rng = np.random.default_rng(23)
        for n in (1, 4, 9):
            p = jittered_partition(rng, n)
            z = diff_matrix(p)
            terms = [(rng.standard_normal(n + 1), (0,)), (-1.5, (1,)),
                     (rng.standard_normal(n + 1), (2,)), (0.25, (0,))]
            expected = np.zeros((n + 1, n + 1))
            for coeff, (k,) in terms:
                expected += np.reshape(coeff, (-1, 1)) * np.linalg.matrix_power(z, k)
            got = poly_operator_matrix(terms, [p])
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


    def test_float_coefficient_fast_path_is_bit_identical(self):
        rng = np.random.default_rng(29)
        p = jittered_partition(rng, 6)
        for value in (2.5, -1.0, -0.0, 0.0):
            expected = poly_operator_matrix([(np.array(value), (1,)), (np.array(value), (0,))], [p])
            for coeff in (value, np.float64(value)):
                got = poly_operator_matrix([(coeff, (1,)), (coeff, (0,))], [p])
                np.testing.assert_array_equal(got, expected)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
        np.testing.assert_array_equal(poly_operator_matrix([(2, (1,))], [p]),
                                      poly_operator_matrix([(2.0, (1,))], [p]))

    def test_complex_coefficients_raise(self):
        # a float cast would drop the imaginary part with only a ComplexWarning
        for coeff in (1 + 2j, np.complex128(1.0), np.full(3, 1 + 0j)):
            with pytest.raises(ValueError, match="complex"):
                poly_operator_matrix([(coeff, (1,))], [P012])
        with pytest.raises(ValueError, match="complex"):
            poly_operator_matrix([(np.full(9, 1j), (1, 0))], [P012, P012])


class TestNonFiniteDiffMatrix:
    def test_overflowing_pi_weights_raise(self):
        # 1001 uniform nodes on [-1, 1]: the pi-weights overflow float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                diff_matrix(uniform_partition(-1.0, 1.0, 1000))


class TestDiffMatrixPerPartition:
    def test_repeat_call_returns_same_array(self):
        p = jittered_partition(np.random.default_rng(15), 5)
        assert diff_matrix(p) is diff_matrix(p)

    def test_read_only(self):
        z = diff_matrix(Partition(np.array([0.0, 1.0, 3.0])))
        with pytest.raises(ValueError, match="read-only"):
            z[0, 0] = 1.0

    def test_equal_partition_gets_its_own_array(self):
        nodes = np.array([0.0, 0.5, 2.0, 2.5])
        first, second = Partition(nodes), Partition(nodes.copy())
        z1, z2 = diff_matrix(first), diff_matrix(second)
        assert z1 is not z2
        assert not np.shares_memory(z1, z2)
        np.testing.assert_array_equal(z1, z2)

    def test_failure_is_not_stored(self):
        p = uniform_partition(-1.0, 1.0, 1000)
        for _ in range(2):
            with pytest.raises(ValueError, match="not finite"):
                diff_matrix(p)


class TestDifferentiateValues:
    """Nodal derivatives of an interpolant: ``diff_matrix(p) @ values``."""

    def test_square_on_three_nodes(self):
        np.testing.assert_array_equal(
            diff_matrix(P012) @ np.array([0.0, 1.0, 4.0]), [0.0, 2.0, 4.0])

    def test_constants_map_to_zero(self):
        p = jittered_partition(np.random.default_rng(9), 7)
        got = diff_matrix(p) @ np.full(8, 3.5)
        assert np.abs(got).max() <= 1e-10

    def test_identity_map_to_ones(self):
        p = jittered_partition(np.random.default_rng(10), 9)
        np.testing.assert_allclose(diff_matrix(p) @ p.nodes, np.ones(10), atol=1e-11)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            diff_matrix(P01) @ np.array([1.0, 2.0, 3.0])
