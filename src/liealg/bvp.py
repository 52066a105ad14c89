"""Two boundary-value experiments driven by the operator matrices.

1-D problem:  u'' + u = 0 on [0, pi/2], u(0) = 2, u(pi/2) = 1, exact solution
u(x) = sin x + 2 cos x.  A direct collocation matrix of u'' + u is invertible
and therefore cannot see the boundary data, so the unknown is changed to v via

    u = (2 - 2x/pi) * (x (x - pi/2) v + 1),

which satisfies both boundary values identically for any v.  Writing
g = 2 - 2x/pi and h = x(x - pi/2), the transformed equation is

    p v'' + q v' + r v = s,  p = g h,  q = 2(gh)',  r = (gh)'' + gh,  s = -g

(g'' = 0).  The same problem is solved by a shooting baseline: two
second-order finite-difference initial-value marches combined to match the
right boundary value.

2-D problem:  u_xx - u_yy + y u_x = f on the unit disk with u = 0 on the
boundary, exact solution u = sin(1 - x^2 - y^2).  The substitution
u = (1 - x^2 - y^2) v absorbs the boundary condition; collocation runs on a
tensor grid of the enclosing square [-1, 1]^2 and errors are taken over all
grid nodes against the extended exact formula.  The operator's near-null
modes live in the square's corners, outside the disk, so a 2-D run's error
is also measured over the nodes inside the disk alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lifting import _grid_coordinates, grid_eval
from .linalg import _as_real, _format_rows, lu_solve
from .operators import _monomial, _poly_matrix
from .partitions import Partition, uniform_partition

__all__ = [
    "BvpReport",
    "error_metrics",
    "two_point_coefficients",
    "solve_two_point",
    "shooting_two_point",
    "hyperbolic_rhs",
    "solve_hyperbolic",
    "format_surface",
]

TWO_POINT_LEFT = 0.001  # left end of the 1-D problem, off 0 as in the reference results
# subintervals per dimension: at most MAX_N for either experiment (and for the
# command line's uniform partitions), at least MIN_N_2D for the 2-D experiment
MAX_N = 20
MIN_N_2D = 4


@dataclass(frozen=True)
class BvpReport:
    """Nodal solution values and error metrics of one experiment run on its partitions."""

    partitions: tuple[Partition, ...]
    u_sigma: np.ndarray
    error_sum: float
    error_max: float
    error_avg: float
    rcond: float


def error_metrics(approx, exact) -> tuple[float, float, float]:
    """Sum, max, and mean of absolute componentwise differences."""
    approx = _as_real(approx, "approximate values")
    exact = _as_real(exact, "exact values")
    if approx.shape != exact.shape or approx.ndim != 1:
        raise ValueError(f"length mismatch: {approx.shape} vs {exact.shape}")
    err = np.abs(approx - exact)
    return float(err.sum()), float(err.max()), float(err.mean())


# ascending-power coefficient vectors of p, q, r, s, as float64 arrays
_P_COEFFS = np.array((0.0, -math.pi, 3.0, -2.0 / math.pi))
_Q_COEFFS = np.array((-2.0 * math.pi, 12.0, -12.0 / math.pi))
_R_COEFFS = np.array((6.0, -12.0 / math.pi - math.pi, 3.0, -2.0 / math.pi))
_S_COEFFS = np.array((-2.0, 2.0 / math.pi))


def two_point_coefficients(x):
    """Coefficient values (p, q, r, s) of the transformed 1-D equation at x."""
    return tuple(np.polyval(c[::-1], x) for c in (_P_COEFFS, _Q_COEFFS, _R_COEFFS, _S_COEFFS))


def _exact_two_point(x):
    return np.sin(x) + 2.0 * np.cos(x)


def solve_two_point(n: int) -> BvpReport:
    """Collocation solve of the transformed 1-D problem on n subintervals of [0.001, pi/2]."""
    if not 2 <= n <= MAX_N:
        raise ValueError(f"n must lie in 2..{MAX_N}, got {n}")
    part = uniform_partition(TWO_POINT_LEFT, math.pi / 2.0, n)
    x = part.nodes
    p, q, r, s = two_point_coefficients(x)
    v, rcond = lu_solve(_poly_matrix([(r, (0,)), (q, (1,)), (p, (2,))], [part]), s,
                        overwrite_a=True)
    u = (2.0 - 2.0 * x / math.pi) * (x * (x - math.pi / 2.0) * v + 1.0)
    e_sum, e_max, e_avg = error_metrics(u, _exact_two_point(x))
    return BvpReport((part,), u, e_sum, e_max, e_avg, rcond)


def shooting_two_point(n: int) -> BvpReport:
    """Shooting baseline on a uniform n-subinterval grid of [0, pi/2].

    Both initial-value problems y'' = -y (one with y(0)=2, y'(0)=0, one with
    y(0)=0, y'(0)=1) are marched with the second-order central scheme
    y_{i+1} = 2 y_i - y_{i-1} - h^2 y_i, the first step taken from the
    second-order Taylor expansion; the two solutions are then combined to hit
    the right boundary value.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    h = (math.pi / 2.0) / n
    part = uniform_partition(0.0, math.pi / 2.0, n)
    x = part.nodes
    w = np.empty(n + 1)
    v = np.empty(n + 1)
    w[0], v[0] = 2.0, 0.0
    w[1] = w[0] - h * h * w[0] / 2.0          # w'(0) = 0
    v[1] = h                                  # v'(0) = 1
    for i in range(1, n):
        w[i + 1] = 2.0 * w[i] - w[i - 1] - h * h * w[i]
        v[i + 1] = 2.0 * v[i] - v[i - 1] - h * h * v[i]
    u = w + (1.0 - w[n]) / v[n] * v
    e_sum, e_max, e_avg = error_metrics(u, _exact_two_point(x))
    return BvpReport((part,), u, e_sum, e_max, e_avg, math.nan)


def hyperbolic_rhs(x, y):
    """Right-hand side of the 2-D problem: matches u = sin(1 - x^2 - y^2)."""
    phi = 1.0 - x * x - y * y
    return 4.0 * (y * y - x * x) * np.sin(phi) - 2.0 * x * y * np.cos(phi)


def _exact_hyperbolic(x, y):
    return np.sin(1.0 - x * x - y * y)


def _hyperbolic_system(ps: list[Partition]) -> tuple[np.ndarray, np.ndarray]:
    """Operator K of the substituted 2-D problem and the mask 1 - x^2 - y^2.

    K is summed as mask * (Dx^2 - Dy^2 + y Dx) - 4x Dx + 4y Dy - 2xy, the mask a
    row scaling by a grid vector.  The grouping is kept as written: at 15x15
    the solve amplifies a one-ulp change of K into a change of Emax of the
    order of Emax itself.

    Each term is one ``np.kron`` of the stored powers I, Z, Z^2 of each
    partition, added into K in place, so the assembly holds two N x N arrays.
    A coefficient of one coordinate scales that coordinate's factor before the
    product, as in ``kron(y Zy^0, Zx)`` for y Dx.  Each such term has an
    identity factor, so each entry is c z or a zero of the sign of c z in
    either order: the bits, signed zeros included, of the row-scaled product.
    """
    x, y = _grid_coordinates(ps)
    xs, ys = (p.nodes[:, None] for p in ps)
    mask = 1.0 - x * x - y * y
    zx, zy = ([_monomial([p], (k,)) for k in range(3)] for p in ps)
    k = np.kron(zy[0], zx[2])
    k += 0.0  # a sum started from zeros: -0.0 becomes +0.0
    k -= np.kron(zy[2], zx[0])
    k += np.kron(ys * zy[0], zx[1])
    k *= mask[:, None]
    k -= np.kron(zy[0], 4.0 * xs * zx[1])
    k += np.kron(4.0 * ys * zy[1], zx[0])
    k.reshape(-1)[::k.shape[0] + 1] -= 2.0 * x * y
    return k, mask


def solve_hyperbolic(n1: int, n2: int) -> BvpReport:
    """Collocation solve of the substituted 2-D problem on an (n1, n2) grid.

    Assembles the lifted operator

        K = (1 - x^2 - y^2)(Dx^2 - Dy^2 + y Dx) - 4x Dx + 4y Dy - 2xy

    on uniform partitions of [-1, 1]^2, solves K v = f at the nodes, and
    reconstructs u = (1 - x^2 - y^2) v.  The full-rank guarantee for pure
    derivative polynomials does not extend to these variable coefficients, so
    the solve reports its condition estimate and fails loudly only on exact
    pivot breakdown.
    """
    if not (MIN_N_2D <= n1 <= MAX_N and MIN_N_2D <= n2 <= MAX_N):
        raise ValueError(f"n1, n2 must lie in {MIN_N_2D}..{MAX_N}, got ({n1}, {n2})")
    ps = [uniform_partition(-1.0, 1.0, n1), uniform_partition(-1.0, 1.0, n2)]
    k, mask = _hyperbolic_system(ps)
    rhs = grid_eval(hyperbolic_rhs, ps)
    v, rcond = lu_solve(k, rhs, overwrite_a=True)  # k now holds the factors
    u = mask * v
    exact = grid_eval(_exact_hyperbolic, ps)
    e_sum, e_max, e_avg = error_metrics(u, exact)
    return BvpReport(tuple(ps), u, e_sum, e_max, e_avg, rcond)


def _disk_error_max(report: BvpReport) -> tuple[float, int]:
    """Emax of a 2-D run over its nodes with 1 - x^2 - y^2 >= 0, where the problem lives,
    and the number of those nodes."""
    x, y = _grid_coordinates(report.partitions)
    inside = 1.0 - x * x - y * y >= 0.0
    err = np.abs(report.u_sigma[inside] - _exact_hyperbolic(x[inside], y[inside]))
    return float(err.max()), int(inside.sum())


def format_surface(report: BvpReport) -> str:
    """Gridded ``x y u`` triples of a 2-D run, blank line between constant-y blocks."""
    px, py = report.partitions
    x, y = _grid_coordinates([px, py])
    xyu = np.column_stack((x, y, report.u_sigma)).reshape(py.n + 1, px.n + 1, 3)
    return "\n\n".join([_format_rows(block) for block in xyu]) + "\n"
