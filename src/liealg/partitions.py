"""Partitions of an interval: strictly increasing node sets x_0 < x_1 < ... < x_n.

The differentiation matrix of :mod:`liealg.operators` is built from their nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import index

import numpy as np

from .linalg import _as_real

__all__ = [
    "Partition",
    "uniform_partition",
    "jittered_partition",
]


@dataclass(frozen=True, eq=False)
class Partition:
    """Strictly increasing nodes x_0 .. x_n on the interval [x_0, x_n], compared and
    hashed by identity: partitions with equal nodes are distinct."""

    nodes: np.ndarray
    # read-only monomials of grids that start with this partition, keyed by
    # (the grid's other partitions, exponents); stored by operators._monomial
    _monomials: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        nodes = _check_nodes(self.nodes).copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def n(self) -> int:
        """Number of subintervals (one less than the node count)."""
        return self.nodes.size - 1


def _check_nodes(nodes, ndim: int = 1) -> np.ndarray:
    """The checks of :class:`Partition`, on one row of nodes or (``ndim=2``) a stack,
    which is returned as a float array."""
    nodes = _as_real(nodes, "partition nodes")
    if nodes.ndim != ndim or nodes.shape[-1] < 2:
        raise ValueError("a partition needs at least two nodes")
    if not np.all(nodes[..., 1:] > nodes[..., :-1]):  # no subtraction to overflow
        raise ValueError("partition nodes must be strictly increasing")
    return nodes


def uniform_partition(a: float, b: float, n: int) -> Partition:
    """Equally spaced partition x_i = a + (i/n)(b - a) with exact endpoints."""
    if not (np.isfinite(a) and np.isfinite(b) and a < b):  # before linspace can warn
        raise ValueError(f"need finite a < b, got a={a}, b={b}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _span(a, b)
    return Partition(np.linspace(a, b, n + 1))


def jittered_partition(rng: np.random.Generator, n: int, a: float = 0.0,
                       b: float = 1.0) -> Partition:
    """Random partition: equispaced grid with interior nodes shifted by up to
    0.3 of the spacing.

    Bounded shifts keep adjacent gaps within a factor of a few of each other,
    so pi-weight ratios stay moderate and rank thresholds remain decisive in
    float64.  (Sorting i.i.d. uniform draws instead produces occasional node
    clusters whose differentiation matrices defeat any fixed tolerance.)
    """
    return Partition(_jittered_nodes(rng, n, a, b))


def _jittered_nodes(rng: np.random.Generator, n: int, a: float = 0.0,
                    b: float = 1.0) -> np.ndarray:
    """The nodes of :func:`jittered_partition`, from the same draws, unchecked; a bad
    ``n`` or span raises before any draw."""
    n = index(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    h = _span(a, b) / n
    nodes = a + h * np.arange(n + 1, dtype=float)
    nodes[1:-1] += h * rng.uniform(-0.3, 0.3, size=n - 1)
    nodes[-1] = b
    return nodes


def _span(a: float, b: float) -> float:
    """b - a, or a ``ValueError`` naming the span when it is not finite in float64."""
    span = float(b) - float(a)  # Python floats: an overflow gives inf, with no warning
    if not math.isfinite(span):
        raise ValueError(f"span b - a of [{a}, {b}] is not finite in float64")
    return span
