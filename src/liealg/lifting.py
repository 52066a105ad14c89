"""Tensor-grid lifting of 1-D operator matrices to the full grid.

Grid ordering contract
----------------------
A node of the d-dimensional grid is addressed by a multi-index
(i_1, ..., i_d) with 0 <= i_alpha <= n_alpha.  Its 1-based linear index is

    star(i) = i_d (n_1+1)...(n_{d-1}+1) + ... + i_2 (n_1+1) + i_1 + 1,

so the dimension-1 index varies fastest.  This single convention fixes
everything else in the module: grid value vectors are filled in star order,
and a monomial Z_1^{k_1} ... Z_d^{k_d} in the lifted derivatives, each Z_alpha
acting on dimension alpha alone, realizes concretely as the conventional
Kronecker product of its per-dimension factors in *reversed* order,
kron(Z_d^{k_d}, ..., Z_1^{k_1}), because the conventional product varies its
second factor's index fastest.  The realization is also exactly the
entrywise rule

    M[star(i), star(j)] = prod_alpha (Z_alpha^{k_alpha})[i_alpha, j_alpha],

which the test suite checks against the Kronecker route.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, prod
from operator import index

import numpy as np

from .linalg import _as_real
from .operators import _exponents, _monomial, _poly_matrix
from .partitions import Partition

__all__ = [
    "MultiIndexSpace",
    "LiftedOperator",
    "space_of",
    "lifted_diff",
    "realize",
    "grid_eval",
    "full_rank_predicate",
    "poly_operator_matrix",
]


@dataclass(frozen=True)
class MultiIndexSpace:
    """Index set of a tensor grid with per-dimension maxima (n_1, ..., n_d)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(map(index, self.dims))  # 2.7 is rejected, never truncated
        if len(dims) < 1 or any(n < 1 for n in dims):
            raise ValueError(f"need d >= 1 dimensions with n_alpha >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        """Total number of grid nodes N."""
        return prod(n + 1 for n in self.dims)


@dataclass(frozen=True)
class LiftedOperator:
    """The monomial kron(Z_d^{k_d}, ..., Z_1^{k_1}) of a grid, as one term of the
    term-list representation: its partitions and its exponents (k_1, ..., k_d)."""

    partitions: tuple[Partition, ...]
    exponents: tuple[int, ...]


def space_of(ps: list[Partition]) -> MultiIndexSpace:
    return MultiIndexSpace(tuple(p.n for p in ps))


def lifted_diff(alpha: int, ps: list[Partition]) -> LiftedOperator:
    """Differentiation along dimension ``alpha`` (1-based), identity elsewhere."""
    alpha = index(alpha)
    if not 1 <= alpha <= len(ps):
        raise ValueError(f"dimension index {alpha} out of range 1..{len(ps)}")
    return LiftedOperator(tuple(ps), tuple(int(a == alpha) for a in range(1, len(ps) + 1)))


def realize(op: LiftedOperator) -> np.ndarray:
    """N x N matrix of a lifted monomial, as a fresh writable array."""
    ps = list(op.partitions)
    return np.array(_monomial(ps, _exponents(op.exponents, len(ps))))


def _grid_coordinates(ps: list[Partition]) -> list[np.ndarray]:
    """Per-dimension coordinate vectors of all grid nodes, in star order."""
    if not ps:
        raise ValueError("need d >= 1 partitions")
    grids = np.meshgrid(*(p.nodes for p in reversed(ps)), indexing="ij")
    return [g.ravel() for g in reversed(grids)]


def grid_eval(f, ps: list[Partition]) -> np.ndarray:
    """Vector of f at all grid nodes, in star order (dimension 1 fastest).

    ``f`` is called once, on the coordinate vectors of all nodes, so it must
    accept arrays; a scalar result is broadcast to every node.
    """
    coords = _grid_coordinates(ps)
    return np.broadcast_to(_as_real(f(*coords), "values of f"), coords[0].shape).copy()


def poly_operator_matrix(terms, ps: list[Partition]) -> np.ndarray:
    """Realized matrix of a polynomial in the d lifted differentiation operators.

    ``terms`` is a list of ``(coefficient, exponents)`` pairs, ``exponents``
    giving the per-dimension derivative orders of one monomial.  The
    coefficient is a scalar or a vector of grid values in star order; each
    term adds ``diag(c) @ kron(Z_d^{k_d}, ..., Z_1^{k_1})``, in the given order.
    A term or a sum that overflows float64 raises ``ValueError``, with no NumPy warning.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _poly_matrix(terms, ps)
    except FloatingPointError as error:
        raise ValueError(f"polynomial operator matrix overflows float64 ({error})") from None


def full_rank_predicate(terms, ps: list[Partition]) -> bool:
    """Whether the realized polynomial operator has full rank.

    True exactly when the constant term is nonzero: the lifted
    differentiation matrices commute and are nilpotent, so every monomial of
    positive degree is nilpotent and the constant term alone decides
    invertibility.  ``poly_operator_matrix`` plus :func:`numerical_rank`
    gives the desk-scale numerical cross-check.

    The terms are checked as the assembler checks them.  The theorem covers
    constant coefficients only, so a vector coefficient raises ``ValueError``.
    """
    if not ps:
        raise ValueError("need d >= 1 partitions")
    constant = 0.0
    for coeff, exponents in terms:
        exponents = _exponents(exponents, len(ps))
        if not (isinstance(coeff, float) and isfinite(coeff)):
            coeff = _as_real(coeff, "coefficients")
            if coeff.ndim:
                raise ValueError("the full-rank predicate covers constant coefficients only, "
                                 f"got a coefficient of shape {coeff.shape}")
        if not any(exponents):
            constant += coeff
    return bool(constant != 0.0)
