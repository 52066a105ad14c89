"""Dense real matrix arithmetic: matrix powers, pivoted LU, numerical rank."""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularSystemError",
    "as_matrix",
    "lu_factor",
    "lu_solve",
    "numerical_rank",
    "format_matrix",
]


class SingularSystemError(RuntimeError):
    """Raised when LU elimination meets a pivot column whose best pivot is exactly zero.

    Carries ``pivot_index``, the elimination step at which the breakdown
    occurred.  Near-singular but formally invertible systems do not raise;
    they are solved and flagged through the reciprocal condition estimate.
    """

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"singular system: no usable pivot at step {pivot_index}")


def _as_real(a, what: str = "entries") -> np.ndarray:
    """``a`` as a float array of finite entries, the one input check of the package: complex
    input is an error, never silently truncated, and so is a NaN or an infinity."""
    if np.iscomplexobj(a):
        raise ValueError(f"{what} must be real, got complex input")
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-D float array with finite entries."""
    m = _as_real(a, "matrix entries")
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def as_vector(a) -> np.ndarray:
    m = _as_real(a, "vector entries")
    if m.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {m.shape}")
    return m


def _powers(m: np.ndarray, top: int) -> np.ndarray:
    """M^0 .. M^top of a matrix or a ``(..., m, m)`` stack, as ``(top + 1, ...)``: M^0 = I,
    M^1 = M bit for bit, M^k = M^(k-1) @ M.  A stacked matmul repeats the 2-D products slice
    by slice, so each matrix of a stack gets the bits of its own 2-D chain."""
    out = np.empty((top + 1, *m.shape))
    out[0] = np.eye(m.shape[-1])
    out[1:2] = m  # empty when top = 0
    for k in range(2, top + 1):
        np.matmul(out[k - 1], m, out=out[k])
    return out


# Ufunc buffer size (elements) of the elimination loop.  NumPy's buffered iterator
# slows a strided 2-D ufunc as the buffer grows: lu_factor of the 256x256 table3
# operator took 7.7-8.2 ms at 16..512, 10.7 ms at 1024, 14.3 ms at the default 8192
# and 40 ms at 65536 (NumPy 2.4.6, 2-vCPU x86-64 VM).
_ELIMINATION_BUFSIZE = 256


def lu_factor(a, overwrite_a: bool = False):
    """LU factorization with partial pivoting, packed in a single array.

    Returns ``(lu, piv)`` where ``piv`` is the row permutation applied to the
    input.  Raises :class:`SingularSystemError` when the best available pivot
    is exactly zero.

    With ``overwrite_a=True`` the factors are written into the float array that
    :func:`as_matrix` makes of ``a``, if it is writable and C-contiguous (the
    flat subtract needs one buffer), and ``lu`` is that array; otherwise, and by
    default, they go into a copy and ``a`` is left intact.  The factors are the
    same either way.

    Step ``k`` subtracts its rank-1 update from rows ``k+1..n-1`` as one flat
    subtract, as a strided block costs NumPy more.  ``update`` holds the
    products in columns ``j > k``, rounded as in a block update, and ``+0.0``
    in the finished columns ``j <= k``: ``x - (+0.0)`` is ``x`` for every
    double, ``-0.0``, infinities and NaN included.  Step ``k`` zeroes column
    ``k``, the only one of those columns that step ``k-1`` wrote.

    The loop runs under a ufunc buffer of ``_ELIMINATION_BUFSIZE`` elements,
    where NumPy's buffered iterator handles the strided multiply fastest, and
    the caller's buffer size is restored on return or error.  Every operation
    of the loop is elementwise, so the factors do not depend on the buffer size.
    Factors that overflow come back holding infinities or NaN, with no NumPy
    warning; :func:`lu_solve` rejects them.
    """
    lu = as_matrix(a)
    if not (overwrite_a and lu.flags.writeable and lu.flags.c_contiguous):
        lu = lu.copy()
    n, m = lu.shape
    if n != m:
        raise ValueError(f"square matrix required, got shape {lu.shape}")
    piv = list(range(n))
    row = np.empty(n)  # buffer of a row swap
    magnitudes = np.empty(n)
    update = np.zeros((n, n))  # the rank-1 update of each step, in its first rows
    flat_lu, flat_update = lu.reshape(-1), update.reshape(-1)
    with np.errstate(all="ignore"):  # restores the caller's buffer size too
        np.setbufsize(_ELIMINATION_BUFSIZE)
        for k in range(n):
            p = k + int(np.abs(lu[k:, k], out=magnitudes[k:]).argmax())
            if magnitudes[p] == 0.0:
                raise SingularSystemError(k)
            if p != k:
                row[:] = lu[k]
                lu[k] = lu[p]
                lu[p] = row
                piv[k], piv[p] = piv[p], piv[k]
            rest = n - k - 1
            l = np.divide(lu[k + 1:, k], lu[k, k], out=lu[k + 1:, k])
            update[:rest, k] = 0.0
            np.multiply(l[:, None], lu[k, k + 1:], out=update[:rest, k + 1:])
            tail = flat_lu[(k + 1) * n:]
            np.subtract(tail, flat_update[:rest * n], out=tail)
    return lu, np.array(piv)


def _substitute(lu: np.ndarray, piv: np.ndarray, b: np.ndarray):
    """``(x, inv)`` from packed factors: the solution for the float vector ``b`` and the
    inverse, updating ``x[k]`` and row ``k`` of ``inv`` at each step of one pass per triangle.
    An entry of ``x`` is a scalar, which a ufunc call would handle far slower; a row of
    ``inv`` is updated in place through its view, with no copy back."""
    n = lu.shape[0]
    x, inv = b[piv], np.zeros((n, n))
    inv[np.arange(n), piv] = 1.0  # the rows of the identity in pivot order
    for k in range(1, n):
        l, row = lu[k, :k], inv[k]
        x[k] -= l @ x[:k]
        row -= l @ inv[:k]
    for k in range(n - 1, -1, -1):
        u, d, row = lu[k, k + 1:], lu[k, k], inv[k]
        x[k] = (x[k] - u @ x[k + 1:]) / d
        row -= u @ inv[k + 1:]
        row /= d
    return x, inv


def lu_solve(a, b, overwrite_a: bool = False):
    """Solve ``a x = b`` by partially pivoted LU.

    Returns ``(x, rcond)`` where ``rcond = 1 / (norm_inf(a) * norm_inf(a^-1))``
    is computed from the factors; it is the caller's signal for
    ill-conditioning, which is deliberately not an error here.  A solve that
    overflows to a non-finite ``x`` or a NaN ``rcond`` raises ``ValueError``; an
    infinite inverse with a finite ``x`` gives ``rcond = 0.0``.

    Besides its input, a solve holds at most two N x N arrays at a time: the
    factors, and the elimination's update buffer or the inverse.  With
    ``overwrite_a=True`` the factors may take the place of ``a``, as in
    :func:`lu_factor`, after ``norm_inf(a)`` is taken.
    """
    a = as_matrix(a)
    b = as_vector(b)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"right-hand side length {b.shape[0]} != matrix dimension {a.shape[0]}")
    with np.errstate(all="ignore"):  # |a| is freed before the factors are made
        norm_a = float(np.linalg.matrix_norm(a, ord=np.inf))
        lu, piv = lu_factor(a, overwrite_a=overwrite_a)
        x, inv = _substitute(lu, piv, b)
        norm_inv = float(np.abs(inv, out=inv).sum(axis=-1).max())  # |inv| in place
        rcond = 0.0 if norm_inv == 0.0 else 1.0 / (norm_a * norm_inv)
    if not np.all(np.isfinite(x)) or np.isnan(rcond):
        raise ValueError("solution is not finite: the solve overflows float64")
    return x, rcond


def numerical_rank(a, rel_tol: float = 1e-8):
    """Number of singular values exceeding ``rel_tol * sigma_max``.

    The zero matrix has rank 0.  ``rel_tol`` must lie in (0, 1).  A matrix
    gives an ``int``; a stack of shape ``(B, m, n)`` gives an integer array of
    B ranks from one batched SVD of the stack as given, each equal to the rank
    of its matrix alone.  An empty stack (B = 0) gives an empty array and makes
    no SVD.  Every check runs first, so a bad ``rel_tol`` or a non-finite entry
    is refused before any SVD, and a shape error names the caller's shape.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    a = _as_real(a, "matrix entries")
    if a.ndim not in (2, 3) or a.shape[-2] < 1 or a.shape[-1] < 1:
        raise ValueError(f"expected a 2-D matrix or a stack of matrices, got shape {a.shape}")
    if a.size == 0:
        return np.zeros(0, dtype=np.intp)
    s = np.linalg.svd(a, compute_uv=False)
    # a zero matrix has s[0] == 0, so none of its singular values counts
    ranks = np.count_nonzero(s > rel_tol * s[..., :1], axis=-1)
    return ranks if ranks.ndim else int(ranks)


def _format_rows(rows: np.ndarray) -> str:
    """Text of a 2-D float array: one line per row, entries ``%.16e``, space-separated.

    The row template, repeated once per row, formats all entries as Python
    floats in one ``%``.  It uses the same float-to-text conversion as
    ``f"{v:.16e}"``, so the text is the same, signed zeros included; ``nan``
    and ``inf`` print as such.  One tuple of all entries, not one per row:
    CPython keeps freed tuples of up to 20 items in free lists, which held
    about 0.4 MB after repeated ``diffmat`` dumps.
    """
    m, n = rows.shape
    template = "\n".join([" ".join(["%.16e"] * n)] * m)
    return template % tuple(rows.ravel().tolist())


def format_matrix(a) -> str:
    """Text dump: one row per line, entries space-separated, 17 significant digits."""
    return _format_rows(as_matrix(a))
