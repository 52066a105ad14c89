import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liealg.operators import _diff_matrices
from liealg.partitions import (
    Partition,
    _check_nodes,
    _jittered_nodes,
    jittered_partition,
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
        assert (p.nodes[0], p.nodes[-1], p.n) == (-1.0, 2.0, 2)

    def test_nodes_are_immutable(self):
        p = Partition(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            p.nodes[0] = 5.0

    def test_compared_by_identity(self):
        nodes = np.array([0.0, 1.0, 2.0])
        p, q = Partition(nodes), Partition(nodes.copy())
        assert (p == q) is False and p != q
        assert (p == p) is True

    def test_hashed_by_identity(self):
        p, q = Partition(np.array([0.0, 1.0])), Partition(np.array([0.0, 1.0]))
        assert hash(p) == hash(p) and len({p, q, p}) == 2
        keyed = {p: "p", q: "q"}
        assert keyed[p] == "p" and keyed[q] == "q"


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

    def test_rejects_no_subintervals(self):
        with pytest.raises(ValueError, match="n >= 1, got 0"):
            uniform_partition(0.0, 1.0, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_rejects_non_finite_endpoint_before_spacing(self, a, b):
        with pytest.raises(ValueError, match="finite a < b"):
            uniform_partition(a, b, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowingSpan:
    """Finite endpoints whose difference overflows float64: the constructors name the
    span instead of leaking NumPy's overflow warnings, and a node check never subtracts."""

    def test_uniform_partition_names_the_span(self):
        with pytest.raises(ValueError, match=r"span b - a of \[-1e\+308, 1e\+308\]"):
            uniform_partition(-1e308, 1e308, 2)

    def test_jittered_partition_names_the_span_before_any_draw(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        for make in (jittered_partition, _jittered_nodes):
            with pytest.raises(ValueError, match="span b - a"):
                make(rng, 3, a=-1e308, b=1e308)
        assert rng.bit_generator.state == state

    def test_partition_checks_order_without_subtracting(self):
        np.testing.assert_array_equal(Partition([-1e308, 1e308]).nodes, [-1e308, 1e308])
        with pytest.raises(ValueError, match="increasing"):
            Partition([1e308, -1e308])
        with pytest.raises(ValueError, match="increasing"):
            _check_nodes(np.array([[-1e308, 1e308], [1e308, -1e308]]), ndim=2)


@given(n=st.integers(2, 12), seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_jittered_partition_is_valid(n, seed):
    p = jittered_partition(np.random.default_rng(seed), n, a=-2.0, b=3.0)
    assert p.nodes[0] == -2.0 and p.nodes[-1] == 3.0 and p.n == n
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


# sha256 of the float64 nodes of jittered_partition(default_rng(n), n), n = 1..12, in turn
JITTERED_NODES_1_TO_12_SHA256 = "91b9e16e09c2ab43fa7bd28481a478ad4f2c2e8a411298b5b4e5194da034b574"


def test_jittered_nodes_keep_their_bits_for_n_1_to_12():
    nodes = np.concatenate([jittered_partition(np.random.default_rng(n), n).nodes
                            for n in range(1, 13)])
    assert hashlib.sha256(nodes.astype("<f8").tobytes()).hexdigest() == \
        JITTERED_NODES_1_TO_12_SHA256


@pytest.mark.parametrize("n, b, error, match", [
    (0, 0.3, ValueError, "n >= 1"),
    (-1, 0.3, ValueError, "n >= 1"),
    (np.int64(0), 0.3, ValueError, "n >= 1"),
    (2.0, 0.3, TypeError, "integer"),
    (1.5, 0.3, TypeError, "integer"),
])
def test_jittered_rejects_bad_input_before_any_draw(n, b, error, match):
    # [0, b] is a good interval, so only n is at fault
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    for make in (jittered_partition, _jittered_nodes):
        with pytest.raises(error, match=match):
            make(rng, n, 0.0, b)
    assert rng.bit_generator.state == state


Z_012 = [[-1.5, 2.0, -0.5], [-0.5, 0.0, 0.5], [0.5, -2.0, 1.5]]


class TestPiWeights:
    """The pi-weights of a partition, read through the exact entries of the Z built
    from them: pi = (-1, 1) for [0, 1] and (2, -1, 2) for [0, 1, 2] and [-1, 0, 1]."""

    @pytest.mark.parametrize("nodes,expected", [
        ([0.0, 1.0], [[-1.0, 1.0], [-1.0, 1.0]]),
        ([0.0, 1.0, 2.0], Z_012),
        ([-1.0, 0.0, 1.0], Z_012),
    ])
    def test_direct_products(self, nodes, expected):
        np.testing.assert_array_equal(_diff_matrices(np.array([nodes]))[0], expected)
