import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liealg.partitions import (
    Partition,
    _check_nodes,
    jittered_partition,
    lagrange_basis_row,
    pi_weights,
    read_partition,
    tensor_interpolate,
    uniform_partition,
)


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            Partition(np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="two nodes"):
            Partition(np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            Partition(np.array([0.0, np.inf]))

    def test_rejects_complex_nodes(self):
        # a cast to float would keep [0.0, 1.0] and drop the imaginary parts
        with pytest.raises(ValueError, match="complex"):
            Partition(np.array([0.0, 1.0 + 2.0j]))
        with pytest.raises(ValueError, match="complex"):
            Partition([0.0, 1.0 + 0.0j])

    def test_stack_gets_the_same_checks(self):
        _check_nodes(np.array([[0.0, 1.0], [-1.0, 5.0]]), ndim=2)
        for stack, match in (
                (np.array([[0.0, 1.0], [1.0, 0.0]]), "increasing"),
                (np.array([[0.0, 1.0], [0.0, np.nan]]), "finite"),
                (np.array([[0.0], [1.0]]), "two nodes"),
                (np.array([0.0, 1.0]), "two nodes")):
            with pytest.raises(ValueError, match=match):
                _check_nodes(stack, ndim=2)

    def test_endpoints_and_size(self):
        p = Partition(np.array([-1.0, 0.5, 2.0]))
        assert (p.a, p.b, p.n) == (-1.0, 2.0, 2)

    def test_nodes_are_immutable(self):
        p = Partition(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            p.nodes[0] = 5.0


class TestUniformPartition:
    def test_two_nodes(self):
        np.testing.assert_array_equal(uniform_partition(0, 1, 1).nodes, [0.0, 1.0])

    def test_three_nodes(self):
        np.testing.assert_array_equal(uniform_partition(-1, 1, 2).nodes, [-1.0, 0.0, 1.0])

    def test_shifted_quarter_pi_grid(self):
        p = uniform_partition(0.001, math.pi / 2, 4)
        step = (math.pi / 2 - 0.001) / 4
        expected = [0.001 + i * step for i in range(5)]
        np.testing.assert_allclose(p.nodes, expected, rtol=1e-15)
        assert p.nodes[-1] == math.pi / 2

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="a < b"):
            uniform_partition(1.0, 1.0, 3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_rejects_non_finite_endpoint_before_spacing(self, a, b):
        with pytest.raises(ValueError, match="finite a < b"):
            uniform_partition(a, b, 3)


@given(n=st.integers(2, 12), seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_jittered_partition_is_valid(n, seed):
    p = jittered_partition(np.random.default_rng(seed), n, a=-2.0, b=3.0)
    assert p.a == -2.0 and p.b == 3.0 and p.n == n
    gaps = np.diff(p.nodes)
    h = 5.0 / n
    assert gaps.min() >= 0.4 * h - 1e-12 and gaps.max() <= 1.6 * h + 1e-12


# nodes of the jittered partitions of fixed seeds, as first drawn
JITTERED_NODES = {
    (0, 4, 0.0, 1.0): [0.0, 0.27054425309821817, 0.4654680070645805, 0.6811460285904292, 1.0],
    (7, 6, -2.0, 3.0): [-2.0, -1.104118933364333, -0.1347264328485455, 0.6378428451225967,
                        1.1959369283286294, 2.0667498091222796, 3.0],
    (42, 1, 0.0, 1.0): [0.0, 1.0],
}


@pytest.mark.parametrize("key", sorted(JITTERED_NODES))
def test_jittered_nodes_unchanged_for_fixed_seeds(key):
    seed, n, a, b = key
    rng = np.random.default_rng(seed)
    np.testing.assert_array_equal(jittered_partition(rng, n, a, b).nodes, JITTERED_NODES[key])
    # the generator advanced by exactly the n - 1 interior shifts
    reference = np.random.default_rng(seed)
    reference.uniform(size=max(n - 1, 0))
    assert rng.bit_generator.state == reference.bit_generator.state


class TestPiWeights:
    @pytest.mark.parametrize("nodes,expected", [
        ([0.0, 1.0], [-1.0, 1.0]),
        ([0.0, 1.0, 2.0], [2.0, -1.0, 2.0]),
        ([-1.0, 0.0, 1.0], [2.0, -1.0, 2.0]),
    ])
    def test_direct_products(self, nodes, expected):
        np.testing.assert_array_equal(pi_weights(Partition(np.array(nodes))), expected)


class TestLagrangeEval:
    def test_cardinal_property(self):
        p = Partition(np.array([0.0, 1.0, 2.0]))
        for j in range(3):
            np.testing.assert_allclose(lagrange_basis_row(p, p.nodes[j]), np.eye(3)[j],
                                       atol=1e-12)

    def test_midpoint_value(self):
        # l_1(0.5) = 0.5 * (0.5 - 2) / pi_1 = 0.75
        p = Partition(np.array([0.0, 1.0, 2.0]))
        assert lagrange_basis_row(p, 0.5)[1] == pytest.approx(0.75)

    def test_partition_of_unity_fixed_point(self):
        p = Partition(np.array([0.0, 0.3, 1.1, 2.0]))
        assert lagrange_basis_row(p, 0.37).sum() == pytest.approx(1.0, abs=1e-11)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_partition_of_unity_random_points(self, draw):
        rng = np.random.default_rng(draw)
        p = jittered_partition(rng, int(rng.integers(1, 11)))
        x = rng.uniform(p.a, p.b)
        assert lagrange_basis_row(p, x).sum() == pytest.approx(1.0, abs=1e-11)


def interpolate_1d(p, values, x):
    """The 1-D interpolant, as the one-dimensional tensor interpolant."""
    return tensor_interpolate([p], values, [x])


class TestNonFinitePoint:
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_basis_row_rejects(self, x):
        with pytest.raises(ValueError, match="finite"):
            lagrange_basis_row(Partition(np.array([0.0, 1.0, 2.0])), x)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_tensor_interpolate_rejects(self, x):
        ps = [Partition(np.array([0.0, 1.0])), Partition(np.array([0.0, 1.0]))]
        with pytest.raises(ValueError, match="finite"):
            tensor_interpolate(ps, np.ones(4), [0.5, x])

    def test_tensor_interpolate_rejects_complex_input(self):
        ps = [Partition(np.array([0.0, 1.0])), Partition(np.array([0.0, 1.0]))]
        with pytest.raises(ValueError, match="complex"):
            tensor_interpolate(ps, np.ones(4), [0.5, 0.5 + 1.0j])
        with pytest.raises(ValueError, match="complex"):
            tensor_interpolate(ps, np.ones(4) * 1.0j, [0.5, 0.5])


class TestInterpolate1D:
    def test_reproduces_square(self):
        p = Partition(np.array([0.0, 1.0, 2.0]))
        assert interpolate_1d(p, p.nodes**2, 1.5) == pytest.approx(2.25)

    def test_linear_midpoint(self):
        p = Partition(np.array([0.0, 1.0]))
        assert interpolate_1d(p, [2.0, 1.0], 0.5) == pytest.approx(1.5)

    def test_node_identity_is_exact(self):
        p = Partition(np.array([0.0, 0.7, 1.3, 2.0]))
        values = np.array([4.0, -1.0, 0.5, 9.0])
        for j in range(4):
            assert interpolate_1d(p, values, p.nodes[j]) == values[j]

    def test_length_mismatch(self):
        p = Partition(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="values"):
            interpolate_1d(p, [1.0, 2.0, 3.0], 0.5)

    def test_extrapolation_is_allowed(self):
        # the basis functions are global polynomials; outside [a, b] the
        # interpolant simply extrapolates
        p = Partition(np.array([0.0, 1.0]))
        assert interpolate_1d(p, [0.0, 2.0], 3.0) == pytest.approx(6.0)
        assert interpolate_1d(p, [0.0, 2.0], -1.0) == pytest.approx(-2.0)

    def test_polynomial_reproduction(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            p = jittered_partition(rng, n)
            coeffs = rng.uniform(-1, 1, n + 1)
            poly = np.polynomial.Polynomial(coeffs)
            x = rng.uniform(p.a, p.b)
            got = interpolate_1d(p, poly(p.nodes), x)
            assert abs(got - poly(x)) <= 1e-11 * max(1.0, abs(poly(x)))


class TestTensorInterpolate:
    def grid(self):
        return [Partition(np.array([0.0, 1.0])), Partition(np.array([0.0, 1.0]))]

    def test_bilinear(self):
        # f(x, y) = x*y sampled with the dimension-1 index fastest
        values = np.array([0.0, 0.0, 0.0, 1.0])
        assert tensor_interpolate(self.grid(), values, [0.5, 0.5]) == pytest.approx(0.25)

    def test_grid_node_identity(self):
        ps = self.grid()
        values = np.array([3.0, -2.0, 7.0, 0.5])
        assert tensor_interpolate(ps, values, [1.0, 0.0]) == values[1]
        assert tensor_interpolate(ps, values, [0.0, 1.0]) == values[2]

    def test_one_dimension_matches_1d(self):
        p = Partition(np.array([0.0, 0.4, 1.0]))
        values = np.array([1.0, -1.0, 2.0])
        for x in (0.1, 0.7, 0.95):
            assert tensor_interpolate([p], values, [x]) == float(
                lagrange_basis_row(p, x) @ values)

    def test_matches_kron_chain_reference_exactly(self):
        rng = np.random.default_rng(22)
        for d in (1, 2, 3):
            ps = [jittered_partition(rng, n, -1.0, 1.0) for n in rng.integers(1, 5, size=d)]
            values = rng.standard_normal(int(np.prod([p.n + 1 for p in ps])))
            points = [rng.uniform(-1.5, 1.5, d) for _ in range(10)]
            points.append([p.nodes[1] for p in ps])
            for point in points:
                weights = np.array([1.0])
                for p, x in zip(reversed(ps), reversed(point)):
                    weights = np.kron(weights, lagrange_basis_row(p, float(x)))
                assert tensor_interpolate(ps, values, point) == float(weights @ values)

    def test_length_checks(self):
        ps = self.grid()
        with pytest.raises(ValueError, match="grid values"):
            tensor_interpolate(ps, np.zeros(3), [0.5, 0.5])
        with pytest.raises(ValueError, match="dimension"):
            tensor_interpolate(ps, np.zeros(4), [0.5])

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="d >= 1"):
            tensor_interpolate([], [1.0], [])


def test_partition_file_round_trip(tmp_path):
    p = Partition(np.array([0.001, 0.3932, math.pi / 2]))
    path = tmp_path / "nodes.txt"
    path.write_text("".join(f"{x:.17g}\n" for x in p.nodes))
    np.testing.assert_array_equal(read_partition(path).nodes, p.nodes)
