"""Partitions of an interval and Lagrange interpolation on them.

A partition is a strictly increasing node set x_0 < x_1 < ... < x_n.  The
basis polynomial attached to node k is

    l_k(x) = prod_{m != k} (x - x_m) / pi_k,   pi_k = prod_{m != k} (x_k - x_m),

evaluated by the direct product formula with precomputed pi-weights.  Points
outside [x_0, x_n] are allowed: the basis functions are global polynomials,
so evaluation there is extrapolation, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import _as_real, _kron

__all__ = [
    "Partition",
    "uniform_partition",
    "jittered_partition",
    "pi_weights",
    "lagrange_basis_row",
    "tensor_interpolate",
    "read_partition",
]


@dataclass(frozen=True)
class Partition:
    """Strictly increasing nodes x_0 .. x_n on the interval [x_0, x_n]."""

    nodes: np.ndarray
    # read-only powers Z^k by k (Z itself at k = 1), stored by operators on first use
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # lifted monomials of grids that start with this partition, stored by the assembler
    _lifted: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = _as_real(self.nodes).copy()
        _check_nodes(nodes)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @property
    def n(self) -> int:
        """Number of subintervals (one less than the node count)."""
        return self.nodes.size - 1


def _check_nodes(nodes: np.ndarray, ndim: int = 1) -> None:
    """The checks of :class:`Partition`, on one row of nodes or (``ndim=2``) a stack."""
    if nodes.ndim != ndim or nodes.shape[-1] < 2:
        raise ValueError("a partition needs at least two nodes")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("partition nodes must be finite")
    if not np.all(np.diff(nodes) > 0):
        raise ValueError("partition nodes must be strictly increasing")


def uniform_partition(a: float, b: float, n: int) -> Partition:
    """Equally spaced partition x_i = a + (i/n)(b - a) with exact endpoints."""
    if not (np.isfinite(a) and np.isfinite(b) and a < b):  # before linspace can warn
        raise ValueError(f"need finite a < b, got a={a}, b={b}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Partition(np.linspace(a, b, n + 1))


def jittered_partition(rng: np.random.Generator, n: int, a: float = 0.0,
                       b: float = 1.0, max_shift: float = 0.3) -> Partition:
    """Random partition: equispaced grid with interior nodes shifted by up to
    ``max_shift`` of the spacing.

    Bounded shifts keep adjacent gaps within a factor of a few of each other,
    so pi-weight ratios stay moderate and rank thresholds remain decisive in
    float64.  (Sorting i.i.d. uniform draws instead produces occasional node
    clusters whose differentiation matrices defeat any fixed tolerance.)
    """
    return Partition(_jittered_nodes(rng, n, a, b, max_shift))


def _jittered_nodes(rng: np.random.Generator, n: int, a: float = 0.0, b: float = 1.0,
                    max_shift: float = 0.3) -> np.ndarray:
    """The nodes of :func:`jittered_partition`, from the same draws, unchecked."""
    if not 0.0 <= max_shift < 0.5:
        raise ValueError("max_shift must lie in [0, 0.5)")
    h = (b - a) / n
    nodes = a + h * np.arange(n + 1, dtype=float)
    nodes[1:-1] += h * rng.uniform(-max_shift, max_shift, size=max(n - 1, 0))
    nodes[-1] = b
    return nodes


def pi_weights(p: Partition) -> np.ndarray:
    """Weights pi_k = prod_{m != k} (x_k - x_m), computed by direct product."""
    return _pi_weights(p.nodes)


def _pi_weights(nodes: np.ndarray) -> np.ndarray:
    """pi-weights of each row of a ``(..., m)`` node array: the one pi formula."""
    m = nodes.shape[-1]
    diff = nodes[..., :, None] - nodes[..., None, :]
    diff.reshape(-1, m * m)[:, ::m + 1] = 1.0  # the diagonal of each matrix
    return diff.prod(axis=-1)


def lagrange_basis_row(p: Partition, x: float) -> np.ndarray:
    """All basis values (l_0(x), ..., l_n(x)) at once; ``x`` must be finite."""
    if not np.isfinite(x):
        raise ValueError(f"interpolation point must be finite, got {x}")
    nodes = p.nodes
    diffs = x - nodes
    hit = np.flatnonzero(diffs == 0.0)
    if hit.size:  # x is a node: the row is exactly a unit vector
        row = np.zeros(nodes.size)
        row[hit[0]] = 1.0
        return row
    full = np.prod(diffs)
    return full / (diffs * pi_weights(p))


def tensor_interpolate(ps: list[Partition], values, point) -> float:
    """Evaluate the tensor-product interpolant at a d-dimensional point.

    ``values`` is ordered with the dimension-1 index varying fastest, matching
    the grid linearization used throughout (see :mod:`liealg.lifting`).
    """
    if not ps:
        raise ValueError("need d >= 1 partitions")
    point = _as_real(point)
    if point.shape != (len(ps),):
        raise ValueError(f"expected a point of dimension {len(ps)}, got shape {point.shape}")
    values = _as_real(values)
    total = np.prod([p.n + 1 for p in ps])
    if values.shape != (total,):
        raise ValueError(f"expected {total} grid values, got shape {values.shape}")
    rows = [lagrange_basis_row(p, float(x))[None, :] for p, x in zip(ps, point)]
    return float(_kron(rows).ravel() @ values)


def read_partition(path) -> Partition:
    with open(path) as fh:
        nodes = [float(line) for line in fh if line.strip()]
    return Partition(np.array(nodes))
