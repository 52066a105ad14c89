import dataclasses
import math
import tracemalloc
from itertools import product

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liealg import bvp
from liealg.bvp import (
    TWO_POINT_LEFT,
    _hyperbolic_system,
    two_point_coefficients,
    error_metrics,
    format_surface,
    hyperbolic_rhs,
    shooting_two_point,
    solve_two_point,
    solve_hyperbolic,
)
from liealg.lifting import _grid_coordinates, grid_eval, lifted_diff, poly_operator_matrix, realize
from liealg.linalg import lu_solve
from liealg.operators import diff_matrix
from liealg.partitions import jittered_partition, uniform_partition


BIT_GRID = (4, 6, 9, 10, 15, 17, 20)
# (n1, n2, seed): uniform grids on [-1, 1]^2 (seed None), then seeded jittered grids
BIT_GRIDS = ([(n1, n2, None) for n1, n2 in product(BIT_GRID, repeat=2)]
             + [(7, 12, 1), (12, 7, 2), (5, 19, 3), (16, 9, 4), (13, 13, 5), (20, 17, 6)])


def reference_hyperbolic_system(ps):
    """K and the mask built the long way, for bit comparison with _hyperbolic_system:
    Dx and Dy as Kronecker products of Z with the identity, and a three-term
    principal part that forms its own y Dx."""
    x, y = _grid_coordinates(ps)
    mask = 1.0 - x * x - y * y
    dx = np.kron(np.eye(ps[1].n + 1), diff_matrix(ps[0]))
    dy = np.kron(diff_matrix(ps[1]), np.eye(ps[0].n + 1))
    principal = poly_operator_matrix([(1.0, (2, 0)), (-1.0, (0, 2)), (y, (1, 0))], ps)
    k = (mask[:, None] * principal - (4.0 * x)[:, None] * dx + (4.0 * y)[:, None] * dy
         - np.diag(2.0 * x * y))
    return k, mask


# hand-differentiated p(x) = -(2/pi) x^3 + 3 x^2 - pi x
def dp(x):
    return -(6.0 / math.pi) * x**2 + 6.0 * x - math.pi


def d2p(x):
    return -(12.0 / math.pi) * x + 6.0


class TestCoefficients:
    def test_values_at_zero(self):
        p, q, r, s = two_point_coefficients(0.0)
        assert (p, r, s) == (0.0, 6.0, -2.0)
        assert q == pytest.approx(-2.0 * math.pi, abs=1e-15)

    def test_leading_coefficient_vanishes_at_right_endpoint(self):
        p, _, _, _ = two_point_coefficients(math.pi / 2.0)
        assert p == pytest.approx(0.0, abs=1e-15)

    def test_first_order_coefficient_is_twice_derivative(self):
        x = 0.7
        _, q, _, _ = two_point_coefficients(x)
        assert q == pytest.approx(2.0 * dp(x), abs=1e-12)

    def test_structural_identities_random_points(self):
        rng = np.random.default_rng(12)
        for x in rng.uniform(0.0, math.pi / 2.0, 100):
            p, q, r, s = two_point_coefficients(x)
            assert abs(q - 2.0 * dp(x)) <= 1e-12
            assert abs(r - (d2p(x) + p)) <= 1e-12
            assert abs(s - (-(2.0 - 2.0 * x / math.pi))) <= 1e-12


@pytest.mark.parametrize("a", [TWO_POINT_LEFT, 0.0])
def test_coefficients_are_numpy_polyval_bit_for_bit(a):
    # np.polyval stands in for numpy.polynomial, which the package does not import; a
    # Python float gives a NumPy scalar and a float32 array a float64 array, as there
    xs = [uniform_partition(a, math.pi / 2.0, n).nodes for n in range(2, 21)]
    xs += [a, -a, 0.7, np.linspace(-a, math.pi / 2.0, 9, dtype=np.float32)]
    for x in xs:
        for got, c in zip(two_point_coefficients(x), (bvp._P_COEFFS, bvp._Q_COEFFS,
                                                      bvp._R_COEFFS, bvp._S_COEFFS)):
            expected = npoly.polyval(x, c)
            assert type(got) is type(expected) and got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


def signed_entries():
    return st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))


@st.composite
def folding_case(draw):
    """(c, A, B, side): a general factor and a factor of entries 0, -0, 1 and -1 (an
    identity's entries and their negatives), in either order, and a coefficient vector
    for the rows of the factor on ``side``, with +-0.0 among every input."""
    (m, n), (p, q) = (draw(st.tuples(st.integers(1, 4), st.integers(1, 4))) for _ in range(2))
    general = np.array(draw(st.lists(signed_entries(), min_size=m * n, max_size=m * n)))
    unit = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                                  min_size=p * q, max_size=p * q)))
    a, b = general.reshape(m, n), unit.reshape(p, q)
    if draw(st.booleans()):
        a, b = b, a
    scaled = draw(st.sampled_from(["left", "right"]))
    rows = a.shape[0] if scaled == "left" else b.shape[0]
    c = np.array(draw(st.lists(signed_entries(), min_size=rows, max_size=rows)))
    return c, a, b, scaled


@given(folding_case())
@settings(max_examples=300, deadline=None)
def test_folded_coordinate_factor_is_the_row_scaled_product(case):
    # the identity _hyperbolic_system rests on: a coefficient of one coordinate scales that
    # coordinate's factor, and with the other or the scaled factor all 0s and +-1s the
    # product has the row-scaled product's bits, signed zeros included
    c, a, b, scaled = case
    if scaled == "left":
        got, rows = np.kron(c[:, None] * a, b), np.repeat(c, b.shape[0])
    else:
        got, rows = np.kron(a, c[:, None] * b), np.tile(c, a.shape[0])
    expected = rows[:, None] * np.kron(a, b)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


class TestSolveTwoPoint:
    def test_right_boundary_enforced_identically(self):
        for n in (4, 9, 16):
            report = solve_two_point(n)
            assert abs(report.u_sigma[-1] - 1.0) <= 1e-12

    def test_errors_shrink_with_refinement(self):
        errors = [solve_two_point(n).error_sum for n in (4, 8, 12, 16)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_reference_error_at_four_subintervals(self):
        report = solve_two_point(4)
        assert report.error_sum == pytest.approx(2.2788e-4, rel=0.05)
        assert report.error_max == pytest.approx(1.1466e-4, rel=0.05)
        assert report.error_avg == pytest.approx(report.error_sum / 5.0)

    def test_range_guard(self):
        for bad in (1, 21):
            with pytest.raises(ValueError, match="2..20"):
                solve_two_point(bad)


class TestShooting:
    def test_analytic_combination_recovers_exact_solution(self):
        # with the marches replaced by the exact flows w = 2 cos, v = sin,
        # the combination u = w + (1 - w(pi/2)) / v(pi/2) * v is exact
        x = np.linspace(0.0, math.pi / 2.0, 33)
        w, v = 2.0 * np.cos(x), np.sin(x)
        u = w + (1.0 - w[-1]) / v[-1] * v
        e_sum, _, _ = error_metrics(u, np.sin(x) + 2.0 * np.cos(x))
        assert e_sum <= 1e-12

    def test_second_order_convergence(self):
        for n in (8, 16, 32):
            ratio = shooting_two_point(2 * n).error_max / shooting_two_point(n).error_max
            assert 0.2 <= ratio <= 0.3

    def test_reference_magnitudes(self):
        assert shooting_two_point(4).error_sum == pytest.approx(2.71e-2, rel=0.15)
        assert shooting_two_point(16).error_max == pytest.approx(6.7013e-4, rel=0.15)

    def test_small_n_guard(self):
        with pytest.raises(ValueError, match="at least 2"):
            shooting_two_point(1)


class TestHyperbolicRhs:
    def test_origin(self):
        assert hyperbolic_rhs(0.0, 0.0) == 0.0

    def test_on_unit_circle_reduces_to_cosine_term(self):
        for theta in np.linspace(0.0, 2.0 * math.pi, 17):
            x, y = math.cos(theta), math.sin(theta)
            expected = 4.0 * (y * y - x * x) * math.sin(1.0 - x * x - y * y) - 2.0 * x * y
            assert hyperbolic_rhs(x, y) == pytest.approx(expected, abs=1e-12)
            assert hyperbolic_rhs(x, y) == pytest.approx(-2.0 * x * y, abs=1e-12)

    def test_exact_solution_satisfies_equation(self):
        # hand derivatives of u = sin(phi), phi = 1 - x^2 - y^2:
        #   u_x = -2x cos(phi), u_xx = -2 cos(phi) - 4x^2 sin(phi), and symmetrically in y
        rng = np.random.default_rng(13)
        for x, y in rng.uniform(-1.0, 1.0, size=(100, 2)):
            phi = 1.0 - x * x - y * y
            u_x = -2.0 * x * math.cos(phi)
            u_xx = -2.0 * math.cos(phi) - 4.0 * x * x * math.sin(phi)
            u_yy = -2.0 * math.cos(phi) - 4.0 * y * y * math.sin(phi)
            residual = u_xx - u_yy + y * u_x - hyperbolic_rhs(x, y)
            assert abs(residual) <= 1e-10


def fd1(f, t, h=0.01):
    return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)


def fd2(f, t, h=0.01):
    return (-f(t + 2 * h) + 16 * f(t + h) - 30 * f(t) + 16 * f(t - h) - f(t - 2 * h)) / (12 * h * h)


class TestSolveHyperbolic:
    def test_substitution_identity_by_finite_differences(self):
        # the substituted operator applied to v must agree with the original
        # operator applied to u = phi * v; checked with fourth-order stencils
        # on a quadratic v (u is then quartic, so the stencils are exact)
        def v(x, y):
            return 0.7 * x * x - 1.3 * x * y + 0.4 * y * y + 0.9 * x - 0.2 * y + 1.1

        def phi(x, y):
            return 1.0 - x * x - y * y

        def u(x, y):
            return phi(x, y) * v(x, y)

        rng = np.random.default_rng(14)
        for x, y in rng.uniform(-1.0, 1.0, size=(100, 2)):
            v_x = fd1(lambda t: v(t, y), x)
            v_y = fd1(lambda t: v(x, t), y)
            v_xx = fd2(lambda t: v(t, y), x)
            v_yy = fd2(lambda t: v(x, t), y)
            lhs = phi(x, y) * (v_xx - v_yy + y * v_x) - 4 * x * v_x + 4 * y * v_y - 2 * x * y * v(x, y)
            rhs = fd2(lambda t: u(t, y), x) - fd2(lambda t: u(x, t), y) + y * fd1(lambda t: u(t, y), x)
            assert abs(lhs - rhs) <= 1e-9

    def test_reconstruction_vanishes_on_circle_nodes(self):
        report = solve_hyperbolic(10, 10)
        # grid nodes on the unit circle: (+-1, 0) and (0, +-1) since 0 is a node
        for i, j in ((0, 5), (10, 5), (5, 0), (5, 10)):
            assert abs(report.u_sigma[j * 11 + i]) <= 1e-12

    @pytest.mark.parametrize("n1, n2", [(4, 4), (10, 10), (12, 7), (20, 20)])
    def test_disk_error_is_emax_over_the_nodes_inside_the_disk(self, n1, n2):
        report = solve_hyperbolic(n1, n2)
        px, py = report.partitions
        errors = [abs(report.u_sigma[j * (px.n + 1) + i] - math.sin(1.0 - x * x - y * y))
                  for j, y in enumerate(py.nodes.tolist())
                  for i, x in enumerate(px.nodes.tolist()) if 1.0 - x * x - y * y >= 0.0]
        disk_max, disk_nodes = bvp._disk_error_max(report)
        assert disk_nodes == len(errors)
        assert disk_max == pytest.approx(max(errors), rel=1e-9)

    # Emax inside the disk on n x n grids, 1 BLAS thread; the same to three digits under
    # the SkylakeX, Haswell and Prescott OpenBLAS kernels.  From 14 x 14 on it is rounding
    # error and moves with the kernel (2.6e-9 .. 2.3e-8 at 14), so those sizes are left out.
    @pytest.mark.parametrize("n, measured", [
        (4, 1.54e-3), (5, 8.88e-4), (6, 2.46e-4), (7, 1.22e-4), (8, 1.47e-5),
        (9, 3.91e-6), (10, 3.15e-6), (11, 6.21e-7), (12, 3.51e-8), (13, 1.92e-8)])
    def test_disk_error_is_discretization_error(self, n, measured):
        assert bvp._disk_error_max(solve_hyperbolic(n, n))[0] < 2.0 * measured

    def test_reference_errors_coarse_grid(self):
        report = solve_hyperbolic(10, 10)
        assert report.error_max == pytest.approx(0.0064, rel=0.2)
        assert report.error_avg == pytest.approx(2.56e-4, rel=0.2)
        assert 0.0 < report.rcond < 1e-6

    @pytest.mark.parametrize("n1, n2", [(4, 4), (10, 10), (12, 7), (15, 15)])
    def test_assembly_matches_dense_reference(self, n1, n2):
        # the operator as products of dense lifted matrices, the way it reads
        ps = [uniform_partition(-1.0, 1.0, n1), uniform_partition(-1.0, 1.0, n2)]
        dx, dy = realize(lifted_diff(1, ps)), realize(lifted_diff(2, ps))
        xm = np.diag(np.tile(ps[0].nodes, n2 + 1))
        ym = np.diag(np.repeat(ps[1].nodes, n1 + 1))
        mask = np.eye(xm.shape[0]) - xm @ xm - ym @ ym
        expected = (mask @ (dx @ dx - dy @ dy + ym @ dx) - 4.0 * xm @ dx + 4.0 * ym @ dy
                    - 2.0 * xm @ ym)
        k, mask_vector = _hyperbolic_system(ps)
        scale = np.abs(expected).max()
        assert np.abs(k - expected).max() <= 1e-13 * scale
        np.testing.assert_array_equal(np.diag(mask_vector), mask)

    @pytest.mark.parametrize("n1, n2, seed", BIT_GRIDS, ids=[
        f"{n1}-{n2}" if seed is None else f"jittered{seed}-{n1}-{n2}" for n1, n2, seed in BIT_GRIDS])
    def test_assembly_bit_identical_to_reference(self, n1, n2, seed):
        if seed is None:
            ps = [uniform_partition(-1.0, 1.0, n1), uniform_partition(-1.0, 1.0, n2)]
        else:  # asymmetric intervals, and no node an exact zero
            rng = np.random.default_rng(seed)
            ps = [jittered_partition(rng, n1, -1.3, 0.9), jittered_partition(rng, n2, -0.8, 1.7)]
            assert all(np.all(p.nodes != 0.0) for p in ps)
        k, mask = _hyperbolic_system(ps)
        expected_k, expected_mask = reference_hyperbolic_system(ps)
        for got, expected in ((k, expected_k), (mask, expected_mask)):
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_operator_raises(self, bad, monkeypatch):
        def poisoned(ps):
            k, mask = system(ps)
            k[3, 5] = bad
            return k, mask

        system = bvp._hyperbolic_system
        monkeypatch.setattr(bvp, "_hyperbolic_system", poisoned)
        with pytest.raises(ValueError, match="finite"):
            solve_hyperbolic(6, 6)

    def test_report_carries_partitions(self):
        report = solve_hyperbolic(6, 4)
        assert [p.n for p in report.partitions] == [6, 4]
        np.testing.assert_array_equal(report.partitions[1].nodes, np.linspace(-1.0, 1.0, 5))

    def test_range_guard(self):
        with pytest.raises(ValueError, match="4..20"):
            solve_hyperbolic(3, 10)
        with pytest.raises(ValueError, match="4..20"):
            solve_hyperbolic(10, 21)


def traced_peak(f, *args):
    """Peak bytes that tracemalloc sees allocated while ``f(*args)`` runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [15, 20])
def test_solve_peak_memory_in_n_squared_doubles(n):
    # the assembly holds K and one Kronecker term; the solve holds the factors and the
    # update buffer or the inverse; a fresh array per term peaked above 5 N^2 doubles.
    # Factored in place, K is the factors, so the whole solve holds two N x N arrays
    unit = 8 * ((n + 1) ** 2) ** 2
    ps = [uniform_partition(-1.0, 1.0, n) for _ in range(2)]
    assert traced_peak(_hyperbolic_system, ps) <= 2.5 * unit
    k, _ = _hyperbolic_system(ps)
    rhs = grid_eval(hyperbolic_rhs, ps)
    assert traced_peak(lu_solve, k, rhs) <= 2.25 * unit
    assert traced_peak(lambda: lu_solve(k, rhs, overwrite_a=True)) <= 1.25 * unit
    assert traced_peak(solve_hyperbolic, n, n) <= 2.5 * unit


class TestErrorMetrics:
    def test_identical_vectors(self):
        assert error_metrics([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0, 0.0)

    def test_simple_arithmetic(self):
        assert error_metrics([1.0, 2.0], [0.0, 0.0]) == (3.0, 2.0, 1.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            error_metrics([1.0], [1.0, 2.0])

    def test_complex_input_raises(self):
        # a float cast would read [1+1j] against [1.0] as an exact match
        with pytest.raises(ValueError, match="complex"):
            error_metrics(np.array([1 + 1j]), np.array([1.0]))
        with pytest.raises(ValueError, match="complex"):
            error_metrics([1.0], [1 + 0j])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_sum_dominates_max(self, xs, ys):
        size = min(len(xs), len(ys))
        e_sum, e_max, e_avg = error_metrics(xs[:size], ys[:size])
        assert e_sum >= e_max >= e_avg
        assert e_sum == pytest.approx(e_avg * size)


def test_surface_format_blocks():
    report = solve_hyperbolic(4, 4)
    text = format_surface(report)
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 5
    first = blocks[0].splitlines()
    assert len(first) == 5
    x, y, u = (float(v) for v in first[0].split())
    assert (x, y) == (-1.0, -1.0)
    assert u == pytest.approx(report.u_sigma[0])


def reference_surface(report):
    """The per-triple f-string dump that the row-template kernel replaced."""
    px, py = report.partitions
    grid = report.u_sigma.reshape(py.n + 1, px.n + 1)
    blocks = ["\n".join(f"{x:.16e} {y:.16e} {u:.16e}" for x, u in zip(px.nodes, row))
              for y, row in zip(py.nodes, grid)]
    return "\n\n".join(blocks) + "\n"


@pytest.mark.parametrize("n1, n2", [(4, 9), (20, 5)])
def test_surface_format_equals_per_triple_reference(n1, n2):
    report = solve_hyperbolic(n1, n2)
    assert format_surface(report) == reference_surface(report)
    u = report.u_sigma.copy()
    u[[0, 1, 2, -1]] = [np.nan, np.inf, -0.0, -np.inf]
    odd = dataclasses.replace(report, u_sigma=u)
    text = format_surface(odd)
    assert text == reference_surface(odd)
    assert " nan\n" in text and " inf\n" in text and text.endswith(" -inf\n")
