"""Matrix representations of d/dx and x on a partition, and polynomial operator assembly."""

from __future__ import annotations

import numpy as np

from .partitions import Partition, pi_weights

__all__ = [
    "diff_matrix",
    "mult_matrix",
    "apply_operator_poly",
    "differentiate_values",
]


def diff_matrix(p: Partition) -> np.ndarray:
    """Differentiation matrix of the partition: entry (j, k) is dl_k/dx(x_j).

    Assembled from the closed form

        Z[j, j] = sum_{m != j} 1 / (x_j - x_m),
        Z[j, k] = (pi_j / pi_k) / (x_j - x_k)   for k != j,

    never by numerically differentiating interpolants, so results are
    bit-reproducible.  Applied to nodal values of a polynomial of degree <= n
    it returns the exact nodal derivatives; its (n+1)-th power vanishes.

    Raises ``ValueError`` when the pi-weights leave the float64 range and an
    entry comes out infinite or NaN (e.g. 1001 uniform nodes on [-1, 1]).

    The matrix is built once per partition and stored on it, read-only; later
    calls return the same array.  A failure is not stored, so it repeats.
    """
    if p._diff is not None:
        return p._diff
    x = p.nodes
    with np.errstate(all="ignore"):
        pi = pi_weights(p)
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        z = (pi[:, None] / pi[None, :]) / diff
        np.fill_diagonal(z, (1.0 / diff).sum(axis=1))
    if not np.all(np.isfinite(z)):
        raise ValueError(f"differentiation matrix of {x.size} nodes is not finite: "
                         "the pi-weights overflow or underflow float64")
    z.flags.writeable = False
    object.__setattr__(p, "_diff", z)
    return z


def mult_matrix(p: Partition) -> np.ndarray:
    """Diagonal matrix of the partition nodes (multiplication by the coordinate)."""
    return np.diag(p.nodes)


def _scale_rows(coeff, m: np.ndarray) -> np.ndarray:
    """``diag(coeff) @ m`` for a vector coefficient, ``coeff * m`` for a scalar."""
    coeff = np.asarray(coeff, dtype=float)
    if coeff.ndim == 0:
        return coeff * m
    if coeff.shape != (m.shape[0],):
        raise ValueError(f"coefficient shape {coeff.shape} does not match {m.shape[0]} rows")
    return coeff[:, None] * m


def apply_operator_poly(terms, p: Partition) -> np.ndarray:
    """Collocation matrix sum_k diag(c_k) @ Z^k (with Z^0 = I).

    ``terms`` is a list of ``(c_k, k)`` pairs, ``c_k`` a scalar or the nodal
    values of the coefficient of the k-th derivative; terms are summed in the
    given order.  No invertibility is implied: non-constant coefficients can
    destroy full rank, so callers should watch the solver's condition estimate.
    """
    z = diff_matrix(p)
    out = np.zeros((p.n + 1, p.n + 1))
    for coeff, order in terms:
        if order < 0:
            raise ValueError(f"derivative order must be non-negative, got {order}")
        out += _scale_rows(coeff, np.linalg.matrix_power(z, order))
    return out


def differentiate_values(p: Partition, values) -> np.ndarray:
    """Nodal derivatives of the interpolant of ``values`` (exact for degree <= n)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (p.n + 1,):
        raise ValueError(f"expected {p.n + 1} values, got shape {values.shape}")
    return diff_matrix(p) @ values
