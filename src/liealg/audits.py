"""Executable rank and nilpotency checks for the operator matrices.

Every audit compares a theoretical rank statement against its floating-point
observation and returns :class:`AuditReport` records.  The theory is exact
arithmetic; these audits run at desk scale (small n, moderate N) where
singular-value gaps comfortably clear the rank threshold.  Nilpotency of a
power is judged by norm decay, ``norm(H^k) <= tol * norm(H)^k``, since an
exactly zero floating-point power cannot be expected in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from operator import index

import numpy as np
from numpy.linalg import matrix_norm

from .lifting import full_rank_predicate, poly_operator_matrix, space_of
from .linalg import _as_real, _powers, as_matrix, numerical_rank
from .operators import _diff_matrices, diff_matrix
from .partitions import Partition, _check_nodes, _jittered_nodes, uniform_partition

__all__ = [
    "AuditReport",
    "NILPOTENCY_TOL",
    "audit_rank_ladder",
    "audit_nilpotent_poly_rank",
    "counterexample_det",
    "random_poly_rank_case",
    "default_suite",
    "reports_to_csv",
]

NILPOTENCY_TOL = 1e-8
MAX_LADDER_N = 12
MAX_LIFTED_TOTAL = 256


@dataclass(frozen=True)
class AuditReport:
    case_name: str
    expected: int | bool
    observed: int | bool
    tolerance: float

    def __post_init__(self):
        # normalize numpy scalars so formatting and equality are plain Python; index, not
        # int, so that 3.7 or "3" is refused, never truncated or parsed
        for field in ("expected", "observed"):
            value = getattr(self, field)
            if type(value) is not int and type(value) is not bool:
                object.__setattr__(self, field, bool(value) if isinstance(
                    value, np.bool_) else index(value))

    @property
    def passed(self) -> bool:
        return self.expected == self.observed


def _ranks(stack: np.ndarray, floors, rel_tol: float) -> list[int]:
    """Numerical rank of each matrix of a stack.

    A matrix whose infinity norm is at most its floor has rank 0; every other
    matrix gets its rank from one :func:`numerical_rank` call on the stack of
    those matrices: its checks, then one batched SVD, or none if no matrix is
    left.  A floor of 0.0 gives the plain rank; ``tol * norm(H) ** k`` gives
    the norm-decay test for H^k; an infinite floor marks a matrix known to be
    zero.  The relative threshold of :func:`numerical_rank` is taken against
    the matrix's own largest singular value, which can never certify rank 0 of
    a round-off residue; the decay scale norm(H)^k can.
    """
    # a NaN norm stays live, so the rank checks reject it as non-finite
    live = [not top <= floor for top, floor in zip(matrix_norm(stack, ord=np.inf).tolist(), floors)]
    ranks = iter(numerical_rank(stack if all(live) else stack[live], rel_tol).tolist())
    return [next(ranks) if alive else 0 for alive in live]


def _diff_rank_reports(cases, rel_tol: float) -> list[AuditReport]:
    """Check that the differentiation matrix of each ``(nodes, prefix)`` has rank n and a
    vanishing (n+1)-th power: reports ``prefix`` + ``rank[n=..]`` and ``nilpotent[n=..]``
    for each case, in case order.

    Rows of equal n are checked as one stack of Z and Z^(n+1): one
    :func:`_powers` call and one :func:`_ranks` call per n.
    """
    for nodes, _ in cases:
        if nodes.size - 1 > MAX_LADDER_N:
            raise ValueError(
                f"conditioning guard: n={nodes.size - 1} exceeds {MAX_LADDER_N}; beyond this "
                "the differentiation matrix is too ill-conditioned for float64 rank "
                "checks (exact-arithmetic verification is out of scope)")
    pairs: list = [None] * len(cases)
    for group, zs in _z_stacks([nodes for nodes, _ in cases]):
        n = zs.shape[-1] - 1
        floors = [NILPOTENCY_TOL * z ** (n + 1) for z in matrix_norm(zs, ord=np.inf).tolist()]
        ranks = _ranks(np.concatenate([zs, _powers(zs, n + 1)[-1]]),
                       [0.0] * len(group) + floors, rel_tol)
        for row, i in enumerate(group):
            prefix = cases[i][1]
            pairs[i] = (AuditReport(f"{prefix}rank[n={n}]", n, ranks[row], rel_tol),
                        AuditReport(f"{prefix}nilpotent[n={n}]", True,
                                    ranks[len(group) + row] == 0, NILPOTENCY_TOL))
    return [report for pair in pairs for report in pair]


def _z_stacks(node_rows):
    """``(row indices, their Z stack)`` for each node count, from one checked stack."""
    for size in sorted({nodes.size for nodes in node_rows}):
        group = [i for i, nodes in enumerate(node_rows) if nodes.size == size]
        yield group, _diff_matrices(_check_nodes(np.stack([node_rows[i] for i in group]), ndim=2))


def audit_rank_ladder(h, rel_tol: float = 1e-8, prefix: str = "rank_ladder") -> list[AuditReport]:
    """Check rank H^k == n+1-k for k = 0..n+1, given H of rank n with H^(n+1) == 0.

    Case names are ``prefix`` followed by ``[k=..]``.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"rank ladder needs a square matrix, got shape {h.shape}")
    n = h.shape[0] - 1
    # H^0 .. H^(n+1), then H^(n+1) once more for the nilpotency hypothesis
    powers = _powers(h, n + 1)
    scale = float(matrix_norm(h, ord=np.inf))
    floors = [rel_tol * scale ** k for k in range(n + 2)] + [NILPOTENCY_TOL * scale ** (n + 1)]
    ranks = _ranks(np.concatenate([powers, powers[-1:]]), floors, rel_tol)
    if ranks[1] != n:
        raise ValueError(f"hypothesis failed: numerical rank of H is not {n}")
    if ranks[n + 2] != 0:
        raise ValueError(f"hypothesis failed: H^{n + 1} is not numerically zero")
    return [AuditReport(f"{prefix}[k={k}]", n + 1 - k, ranks[k], rel_tol) for k in range(n + 2)]


def audit_nilpotent_poly_rank(b, coeffs, k: int, rel_tol: float = 1e-8) -> AuditReport:
    """Check rank(a_k B^k + ... + a_m B^m) == rank B^k for nilpotent B and an integer k >= 0."""
    k = index(k)
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    b = as_matrix(b)
    dim = b.shape[0]
    if b.shape[1] != dim:
        raise ValueError("nilpotent input must be square")
    coeffs = _as_real(coeffs, "coefficients")
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("need at least the coefficient a_k")
    if coeffs[0] == 0.0:
        raise ValueError("lowest-order coefficient a_k must be nonzero")
    expected, observed = _poly_ranks(np.stack([b, b]), [(np.ones(1), k), (coeffs, k)], rel_tol)
    name = f"nilpotent_poly_rank[k={k};m={k + coeffs.size - 1}]"
    return AuditReport(name, expected, observed, rel_tol)


def _poly_ranks(bs: np.ndarray, cases, rel_tol: float) -> list[int]:
    """``rank(a_k B^k + ... + a_m B^m)`` of each B of a ``(G, dim, dim)`` stack, given its
    ``(coeffs, k)``, from one :func:`_ranks` call that also checks each B^dim == 0.

    Every power comes from one :func:`_powers` chain, so each matrix has the same bits as
    the 2-D chain of its case alone; the zero padding of the shorter coefficient rows
    only adds +0.0 to sums that never hold -0.0.  The polynomial is B^k (a_k I + a_{k+1} B
    + ...), whose second factor is invertible since a_k != 0 and B is nilpotent, so it is
    zero exactly when B^k is: its floor is infinite where norm(B^k) <= rel_tol norm(B)^k,
    the decay rule of :func:`audit_rank_ladder`, and 0.0 elsewhere.
    """
    count, dim = len(cases), bs.shape[-1]
    coeffs = np.zeros((count, max(c.size for c, _ in cases)))
    for row, (c, _) in zip(coeffs, cases):
        row[:c.size] = c
    ks, rows = np.array([k for _, k in cases]), np.arange(count)
    powers = _powers(bs, max(dim, int(ks.max()) + coeffs.shape[1] - 1))
    poly = np.zeros_like(bs)
    for j, column in enumerate(coeffs.T):
        poly += column[:, None, None] * powers[ks + j, rows]
    scales = matrix_norm(bs, ord=np.inf).tolist()
    tops = matrix_norm(powers[ks, rows], ord=np.inf).tolist()
    floors = ([NILPOTENCY_TOL * scale ** dim for scale in scales]
              + [np.inf if top <= rel_tol * scale ** k else 0.0
                 for top, scale, k in zip(tops, scales, ks.tolist())])
    ranks = _ranks(np.concatenate([powers[dim], poly]), floors, rel_tol)
    if any(ranks[:count]):
        raise ValueError(f"hypothesis failed: B^{dim} is not numerically zero")
    return ranks[count:]


# Fixed 2x2 nilpotent matrix of the variable-coefficient counterexample:
# det(I + diag(a, b) @ B) collapses to 1 + 2(b - a), which vanishes on a line.
COUNTEREXAMPLE_MATRIX = np.array([[-2.0, -1.0], [4.0, 2.0]])


def counterexample_det(a, b):
    """det(I_2 + diag(a, b) @ B) for the fixed nilpotent B; equals 1 + 2(b - a).

    Scalars give a ``float``; arrays (broadcast together) give one
    determinant per entry, from one stacked ``det``.
    """
    a, b = np.broadcast_arrays(_as_real(a, "a"), _as_real(b, "b"))
    # entry (i, j) of diag(a, b) @ B is the single product d_i * B[i, j]
    scaled = np.stack([a, b], axis=-1)[..., :, None] * COUNTEREXAMPLE_MATRIX
    det = np.linalg.det(np.eye(2) + scaled)
    return float(det) if det.ndim == 0 else det


def _lifted_poly_reports(cases, ps: list[Partition], rel_tol: float) -> list[AuditReport]:
    """Check the constant-term full-rank predicate of each term list on one grid against
    the ``rel_tol`` rank of its ``poly_operator_matrix``, all decided by one
    :func:`numerical_rank` call on their stack."""
    total = space_of(ps).total
    if total > MAX_LIFTED_TOTAL:
        raise ValueError(f"size guard: N={total} exceeds {MAX_LIFTED_TOTAL}")
    matrices = np.empty((len(cases), total, total))
    for i, terms in enumerate(cases):
        matrices[i] = poly_operator_matrix(terms, ps)
    reports = []
    for terms, rank in zip(cases, numerical_rank(matrices, rel_tol).tolist()):
        label = "+".join([("%gz" + "%d" * len(e)) % (c, *e) for c, e in terms])
        reports.append(AuditReport(f"lifted_poly_rank[{label}]", full_rank_predicate(terms, ps),
                                   rank == total, rel_tol))
    return reports


def random_poly_rank_case(rng: np.random.Generator, rel_tol: float) -> AuditReport:
    """One random polynomial-rank case on a normalized differentiation matrix.

    Rank statements are scale-invariant, so Z is normalized to unit spectral
    norm; this keeps the sampled polynomial's terms comparably scaled, which
    is what makes the float64 rank observation decisive.
    """
    return _random_poly_reports(rng, 1, rel_tol)[0]


def _random_poly_reports(rng: np.random.Generator, count: int,
                         rel_tol: float) -> list[AuditReport]:
    """``count`` calls of :func:`random_poly_rank_case`, with the same draws and reports:
    every case is drawn first, then the cases of equal n are decided as one stack."""
    draws = []
    for _ in range(count):
        n = int(rng.integers(2, 11))
        nodes = _jittered_nodes(rng, n)
        k = int(rng.integers(0, min(n, 4) + 1))
        coeffs = rng.uniform(-2.0, 2.0, size=int(rng.integers(1, 5)))
        if abs(coeffs[0]) < 0.25:
            coeffs[0] = 0.25 if coeffs[0] >= 0 else -0.25
        draws.append((nodes, coeffs, k))
    reports: list = [None] * count
    for group, zs in _z_stacks([nodes for nodes, _, _ in draws]):
        n = zs.shape[-1] - 1
        bs = zs / np.linalg.svd(zs, compute_uv=False)[:, :1, None]
        ranks = _poly_ranks(bs, [draws[i][1:] for i in group], rel_tol)
        for i, observed in zip(group, ranks):
            k = draws[i][2]
            reports[i] = AuditReport(f"poly_rank_random[n={n};k={k}]", n + 1 - k, observed, rel_tol)
    return reports


def _lifted_poly_family():
    """Exhaustive 2-D family: <= 3 monomials of total degree <= 2, coefficients +-1."""
    monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for size in (1, 2, 3):
        for subset in combinations(monomials, size):
            for coeffs in product((1.0, -1.0), repeat=size):
                yield list(zip(coeffs, subset))


def default_suite(seed: int = 42, rel_tol: float = 1e-8) -> list[AuditReport]:
    """The full audit suite, on the calling thread; deterministic for a fixed seed.  The
    lifted family draws no random numbers and is decided first, while the heap is small;
    its one-case 3x3 grid refuses a bad ``rel_tol`` before any SVD."""
    ps2 = [Partition(np.arange(3.0)), Partition(np.arange(3.0))]
    constant = _lifted_poly_reports([[(-7.0, (0, 0))]], ps2, rel_tol)
    # unit node spacing keeps norm(Z) of order one, so +-1 coefficients stay
    # within the decisive range of the rank threshold
    ps3 = [Partition(np.arange(4.0)), Partition(np.arange(4.0) - 1.5)]
    lifted = _lifted_poly_reports(
        [[(1.0, (0, 0)), (1.0, (1, 0)), (1.0, (0, 1))], [(1.0, (2, 0)), (1.0, (0, 1))],
         *_lifted_poly_family()], ps3, rel_tol)
    rng = np.random.default_rng(seed)
    diff_cases = [(np.array([0.0, 1.0]), "diff_"), (np.array([0.0, 1.0, 2.0]), "diff_")]
    for t in range(100):
        n = int(rng.integers(2, 11))
        diff_cases.append((_jittered_nodes(rng, n), f"diff_random{t:03d}_"))
    reports = _diff_rank_reports(diff_cases, rel_tol)

    for label, h in (
        ("z01", diff_matrix(Partition(np.array([0.0, 1.0])))),
        ("z012", diff_matrix(Partition(np.array([0.0, 1.0, 2.0])))),
        ("jordan2", np.array([[0.0, 1.0], [0.0, 0.0]])),
    ):
        reports += audit_rank_ladder(h, rel_tol, f"rank_ladder_{label}")

    reports.append(audit_nilpotent_poly_rank(
        diff_matrix(uniform_partition(0.0, 1.0, 4)), [1.0, 0.0, 1.0], 0, rel_tol))
    reports.append(audit_nilpotent_poly_rank(
        diff_matrix(Partition(np.array([0.0, 1.0, 2.0]))), [1.0], 2, rel_tol))
    reports.append(audit_nilpotent_poly_rank(COUNTEREXAMPLE_MATRIX, [3.0], 1, rel_tol))
    reports += _random_poly_reports(rng, 50, rel_tol)

    grid_a, grid_b = np.meshgrid(np.linspace(-2.0, 2.0, 20), np.linspace(-2.0, 2.0, 20),
                                 indexing="ij")
    deviation = np.abs(counterexample_det(grid_a, grid_b) - (1.0 + 2.0 * (grid_b - grid_a))).max()
    reports.append(AuditReport("counterexample_identity_20x20", True, deviation <= 1e-12, 1e-12))
    reports.append(AuditReport("counterexample_zero_at(1;0.5)", True,
                               abs(counterexample_det(1.0, 0.5)) <= 1e-12, 1e-12))
    return reports + lifted[:2] + constant + lifted[2:]


def reports_to_csv(reports: list[AuditReport]) -> str:
    lines = ["caseName,expected,observed,tolerance,pass"]
    for r in reports:
        lines.append(f"{r.case_name},{_fmt(r.expected)},{_fmt(r.observed)},"
                     f"{r.tolerance:.4e},{_fmt(r.passed)}")
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
