"""Matrix representations of d/dx and x on a partition, and polynomial operator assembly."""

from __future__ import annotations

from functools import reduce
from math import isfinite, prod
from operator import index

import numpy as np

from .linalg import _as_real, _powers, as_matrix
from .partitions import Partition

__all__ = [
    "diff_matrix",
]

# refuse Z once max|pi_j| / min|pi_k| * eps, about its error on smooth data, passes this
MAX_PREDICTED_ERROR = 1e-4
_TINY = np.finfo(float).tiny  # the smallest normal float64


def diff_matrix(p: Partition) -> np.ndarray:
    """Differentiation matrix of the partition: entry (j, k) is dl_k/dx(x_j).

    Assembled from the closed form, with pi-weights pi_j = prod_{m != j} (x_j - x_m),

        Z[j, j] = sum_{m != j} 1 / (x_j - x_m),
        Z[j, k] = (pi_j / pi_k) / (x_j - x_k)   for k != j,

    never by numerically differentiating interpolants, so results are
    bit-reproducible.  Applied to nodal values of a polynomial of degree <= n
    it returns the exact nodal derivatives; its (n+1)-th power vanishes.

    Raises ``ValueError`` when an entry comes out infinite or NaN (e.g. 1001 uniform nodes
    on [-1, 1]), when max|pi_j| / min|pi_k| * eps, about Z's error on smooth data,
    exceeds ``MAX_PREDICTED_ERROR`` (43 uniform nodes on any interval), or when a partial
    product of a pi-weight underflows float64 (771 Chebyshev-Lobatto nodes on [-1, 1]).

    The store on ``p`` builds it once and keeps it, read-only, from first use, so
    later calls return the same array.  A failure is not stored, so it repeats.
    """
    return _monomial([p], (1,))


def _diff_matrices(nodes: np.ndarray) -> np.ndarray:
    """The :func:`diff_matrix` of each row of a ``(B, m)`` node stack, as ``(B, m, m)``: the
    one formula for Z and its pi-weights.  A row's matrix is the same, bit for bit, whatever
    rows share its stack; one failing row fails the stack.  The rows must pass the checks
    of :class:`Partition`."""
    m = nodes.shape[-1]
    with np.errstate(all="ignore"):
        diff = nodes[:, :, None] - nodes[:, None, :]
        # 1 on the diagonal: the factor pi_j omits, and a divisor for Z's placeholder diagonal
        diff.reshape(-1, m * m)[:, ::m + 1] = 1.0
        pi = diff.prod(axis=-1)
        # each factor is at least min(1, gap), so above this bound no partial product of pi
        # underflows; cumprod ends in prod's result bit for bit (tested), so it sees them
        gap = -diff.reshape(-1, m * m)[:, 1::m + 1].max()  # the superdiagonal holds -gaps
        underflow = (min(1.0, gap) ** (m - 1) < 2.0 * _TINY
                     and np.abs(np.cumprod(diff, axis=-1)).min() < _TINY)
        ratios = pi[:, :, None] / pi[:, None, :]
        z = ratios / diff
        spread = np.abs(ratios, out=ratios).max()  # max|pi_j| / min|pi_k| over every row
        inverse = np.divide(1.0, diff, out=diff)
        inverse.reshape(-1, m * m)[:, ::m + 1] = 0.0
        z.reshape(-1, m * m)[:, ::m + 1] = inverse.sum(axis=-1)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"differentiation matrix of {m} nodes is not finite: "
                         "the pi-weights overflow or underflow float64")
    predicted = spread * np.finfo(float).eps
    if predicted > MAX_PREDICTED_ERROR:
        raise ValueError(f"differentiation matrix of {m} nodes is ill-conditioned: the "
                         f"pi-weights spread by {spread:.1e}, so its error is about "
                         f"{predicted:.1e}, beyond {MAX_PREDICTED_ERROR:.0e}")
    if underflow:
        raise ValueError(f"differentiation matrix of {m} nodes is inaccurate: a partial "
                         "product of the pi-weights underflows float64")
    return z


def _scale_rows(coeff, m: np.ndarray) -> np.ndarray:
    """``diag(coeff) @ m`` for a vector coefficient, ``coeff * m`` for a real scalar."""
    if isinstance(coeff, float) and isfinite(coeff):  # the common case, with no array round trip
        return coeff * m
    coeff = _as_real(coeff, "coefficients")
    if coeff.ndim == 0:
        return coeff * m
    if coeff.shape != (m.shape[0],):
        raise ValueError(f"coefficient shape {coeff.shape} does not match {m.shape[0]} rows")
    return coeff[:, None] * m


def _exponents(exponents, d: int) -> tuple[int, ...]:
    """The derivative orders of one term, checked: d non-negative integers.

    Each order goes through ``operator.index``, so 1.5 is rejected, never
    truncated.
    """
    if d < 1:
        raise ValueError("need d >= 1 partitions")
    exponents = tuple(map(index, exponents))
    if len(exponents) != d:
        raise ValueError(f"exponent vector {exponents} has wrong length")
    if min(exponents) < 0:
        raise ValueError(f"derivative order must be non-negative, got {min(exponents)}")
    return exponents


def _poly_matrix(terms, ps: list[Partition]) -> np.ndarray:
    """sum_t diag(c_t) @ kron(Z_d^{k_d}, ..., Z_1^{k_1}) over the partitions of a grid.

    The one assembler of polynomial operators, for every dimension d >= 1:
    ``terms`` holds ``(c_t, (k_1, ..., k_d))`` pairs, ``c_t`` a scalar or a
    vector of grid values (dimension 1 fastest), summed in the given order.
    """
    if not ps:
        raise ValueError("need d >= 1 partitions")
    total = prod(p.n + 1 for p in ps)
    out = np.zeros((total, total))
    for coeff, exponents in terms:
        out += _scale_rows(coeff, _monomial(ps, _exponents(exponents, len(ps))))
    return out


def _monomial(ps: list[Partition], exponents) -> np.ndarray:
    """kron(Z_d^{k_d}, ..., Z_1^{k_1}) of a grid, for exponents checked by :func:`_exponents`,
    from the store on ``ps[0]`` keyed by ``(tuple(ps[1:]), exponents)``.  Each monomial, I, Z,
    Z^k or a product of stored powers, is built once and stored read-only on first use; one
    that is not finite raises ``ValueError`` on every call and is never stored."""
    store, key = ps[0]._monomials, (tuple(ps[1:]), exponents)
    matrix = store.get(key)
    if matrix is not None:
        return matrix
    # as_matrix rejects overflow, with no warning whether a kernel signals it or inf - inf
    with np.errstate(all="ignore"):
        if len(ps) > 1:
            matrix = reduce(np.kron, [_monomial([p], (k,)) for p, k in zip(ps, exponents)][::-1])
        elif exponents == (0,):
            matrix = np.eye(ps[0].n + 1)
        elif exponents == (1,):
            matrix = _diff_matrices(ps[0].nodes[None])[0]
        else:  # its own array, not a view holding the lower powers
            matrix = _powers(_monomial(ps, (1,)), exponents[0])[-1].copy()
    matrix = as_matrix(matrix)
    matrix.flags.writeable = False
    store[key] = matrix
    return matrix
