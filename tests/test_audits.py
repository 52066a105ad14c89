import importlib
import inspect
import threading
from fractions import Fraction
from functools import reduce, wraps
from itertools import product
from math import lcm, prod

import numpy as np
import pytest

from liealg import audits
from liealg.audits import (
    COUNTEREXAMPLE_MATRIX,
    NILPOTENCY_TOL,
    AuditReport,
    _diff_rank_reports,
    _lifted_poly_family,
    _lifted_poly_reports,
    _poly_ranks,
    _random_poly_reports,
    _ranks,
    audit_rank_ladder,
    audit_nilpotent_poly_rank,
    counterexample_det,
    default_suite,
    random_poly_rank_case,
    reports_to_csv,
)
from liealg.lifting import poly_operator_matrix
from liealg.linalg import numerical_rank
from liealg.operators import diff_matrix
from liealg.partitions import Partition, jittered_partition, uniform_partition

P01 = Partition(np.array([0.0, 1.0]))
P012 = Partition(np.array([0.0, 1.0, 2.0]))
JORDAN2 = np.array([[0.0, 1.0], [0.0, 0.0]])


def norm_inf(a):
    return np.abs(a).sum(axis=1).max()


def reference_power_rank(h, k, rel_tol, tol):
    """Rank of H^k from a 2-D power; 0 once norm(H^k) <= tol * norm(H)^k (k > 0)."""
    power = np.linalg.matrix_power(h, k)
    if k > 0 and norm_inf(power) <= tol * norm_inf(h) ** k:
        return 0
    return numerical_rank(power, rel_tol)


def reference_diff_rank(p, prefix, rel_tol=1e-8):
    """_diff_rank_reports one matrix at a time: 2-D rank, 2-D power and norms."""
    n = p.n
    z = diff_matrix(p)
    power = np.linalg.matrix_power(z, n + 1)
    return (AuditReport(f"{prefix}rank[n={n}]", n, numerical_rank(z, rel_tol), rel_tol),
            AuditReport(f"{prefix}nilpotent[n={n}]", True,
                        norm_inf(power) <= NILPOTENCY_TOL * norm_inf(z) ** (n + 1),
                        NILPOTENCY_TOL))


def reference_rank_ladder(h, rel_tol, prefix):
    """Plain 2-D ranks of H^0 .. H^n; H^(n+1) = 0 by the decay test."""
    n = len(h) - 1
    assert numerical_rank(h, rel_tol) == n
    assert reference_power_rank(h, n + 1, rel_tol, NILPOTENCY_TOL) == 0
    return [AuditReport(f"{prefix}[k={k}]", n + 1 - k, reference_power_rank(h, k, rel_tol, 0.0),
                        rel_tol) for k in range(n + 1)] + [
        AuditReport(f"{prefix}[k={n + 1}]", 0, 0, rel_tol)]


def reference_nilpotent_poly_rank(b, coeffs, k, rel_tol):
    """B^k (a_k I + ...) is zero exactly when B^k is, so one decay rule decides both."""
    assert reference_power_rank(b, len(b), rel_tol, NILPOTENCY_TOL) == 0
    power_rank = reference_power_rank(b, k, rel_tol, rel_tol)
    poly = sum(c * np.linalg.matrix_power(b, k + j) for j, c in enumerate(coeffs))
    observed = 0 if power_rank == 0 else numerical_rank(poly, rel_tol)
    return AuditReport(f"nilpotent_poly_rank[k={k};m={k + len(coeffs) - 1}]",
                       power_rank, observed, rel_tol)


def reference_random_poly_rank_case(rng, rel_tol):
    """random_poly_rank_case with the same draws, decided by the 2-D reference."""
    n = int(rng.integers(2, 11))
    z = diff_matrix(jittered_partition(rng, n))
    b = z / np.linalg.svd(z, compute_uv=False)[0]
    k = int(rng.integers(0, min(n, 4) + 1))
    coeffs = rng.uniform(-2.0, 2.0, size=int(rng.integers(1, 5)))
    if abs(coeffs[0]) < 0.25:
        coeffs[0] = 0.25 if coeffs[0] >= 0 else -0.25
    report = reference_nilpotent_poly_rank(b, coeffs, k, rel_tol)
    return AuditReport(f"poly_rank_random[n={n};k={k}]", n + 1 - k, report.observed, rel_tol)


def reference_poly_ranks(cases, rel_tol):
    """The per-case builder that the stacked ``_poly_ranks`` replaced: one 2-D power chain
    per ``(B, coeffs, k)``, matrices ``[B^dim, poly]`` interleaved case by case."""
    matrices, floors = [], []
    for b, coeffs, k in cases:
        dim = b.shape[0]
        chain = [np.eye(dim), b]  # B^j = B^(j-1) @ B, from B itself
        while len(chain) <= max(dim, k + len(coeffs) - 1):
            chain.append(chain[-1] @ b)
        poly = np.zeros_like(b)
        for j, c in enumerate(coeffs):
            poly += c * chain[k + j]
        scale = float(np.linalg.matrix_norm(b, ord=np.inf))
        matrices += [chain[dim], poly]
        floors += [NILPOTENCY_TOL * scale ** dim,
                   np.inf if np.linalg.matrix_norm(chain[k], ord=np.inf) <= rel_tol * scale ** k
                   else 0.0]
    ranks = audits._ranks(np.stack(matrices), floors, rel_tol)
    if any(ranks[::2]):
        raise ValueError(f"hypothesis failed: B^{dim} is not numerically zero")
    return ranks[1::2]


class TestRanks:
    def test_zero_floor_gives_plain_rank(self):
        stack = np.stack([np.eye(3), np.diag([1.0, 1e-12, 0.0]), np.zeros((3, 3))])
        assert _ranks(stack, [0.0] * 3, 1e-8) == [3, 1, 0]
        assert _ranks(stack, [0.0] * 3, 1e-14) == [3, 2, 0]

    def test_norm_at_or_below_floor_gives_rank_zero(self):
        stack = np.stack([np.diag([1e-9, 0.0]), np.eye(2), np.diag([1e-9, 0.0])])
        assert _ranks(stack, [1e-9, 0.0, np.nextafter(1e-9, 0.0)], 1e-8) == [0, 2, 1]
        assert _ranks(stack, [1.0] * 3, 1e-8) == [0, 0, 0]

    def test_non_finite_matrix_is_never_rank_zero(self):
        stack = np.stack([np.zeros((2, 2)), np.full((2, 2), np.nan)])
        with pytest.raises(ValueError, match="finite"):
            _ranks(stack, [1.0, 1.0], 1e-8)

    def test_job_checks_before_its_count_step(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the SVD ran")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for stack, rel_tol, match in ((np.full((1, 2, 2), np.nan), 1e-8, "finite"),
                                      (np.eye(2)[None] * 1j, 1e-8, "real"),
                                      (np.eye(2)[None], 1.0, "rel_tol"),
                                      (np.eye(2)[None], 0.0, "rel_tol")):
            with pytest.raises(ValueError, match=match):
                _ranks(stack, [0.0], rel_tol)
        # every matrix at or below its floor: all ranks 0, no SVD call, and rel_tol still checked
        assert _ranks(np.zeros((2, 3, 3)), [0.0, 0.0], 1e-8) == [0, 0]
        assert _ranks(np.stack([np.eye(2), 2.0 * np.eye(2)]), [1.0, 2.0], 1e-8) == [0, 0]
        with pytest.raises(ValueError, match="rel_tol"):
            _ranks(np.zeros((2, 3, 3)), [0.0, 0.0], 1.0)


class TestDiffRankAudit:
    def test_two_nodes(self):
        rank_report, nil_report = _diff_rank_reports([(P01.nodes, "diff_")], 1e-8)
        assert (rank_report.expected, rank_report.observed) == (1, 1)
        assert nil_report.passed

    def test_three_nodes(self):
        rank_report, nil_report = _diff_rank_reports([(P012.nodes, "diff_")], 1e-8)
        assert rank_report.passed and rank_report.observed == 2
        assert nil_report.passed

    def test_random_eight_node_partition(self):
        p = jittered_partition(np.random.default_rng(0), 7)
        rank_report, nil_report = _diff_rank_reports([(p.nodes, "diff_")], 1e-8)
        assert rank_report.observed == 7
        assert rank_report.passed and nil_report.passed

    def test_node_rows_get_partition_checks(self):
        for nodes, match in ((np.array([0.0, 2.0, 1.0]), "increasing"),
                             (np.array([0.0, np.nan, 1.0]), "finite")):
            with pytest.raises(ValueError, match=match):
                _diff_rank_reports([(P012.nodes, "a_"), (nodes, "b_")], 1e-8)

    @pytest.mark.parametrize("seed", [42, 7, 1])
    def test_stacked_reports_equal_per_partition_loop(self, seed):
        rng = np.random.default_rng(seed)
        cases = [(P01, "diff_"), (P012, "diff_")]
        for t in range(100):
            n = int(rng.integers(2, 11))
            cases.append((jittered_partition(rng, n), f"diff_random{t:03d}_"))
        expected = [r for p, prefix in cases for r in reference_diff_rank(p, prefix)]
        assert _diff_rank_reports([(p.nodes, prefix) for p, prefix in cases], 1e-8) == expected
        assert [r for p, prefix in cases
                for r in _diff_rank_reports([(p.nodes, prefix)], 1e-8)] == expected


class TestRankLadder:
    def test_three_node_diff_matrix(self):
        reports = audit_rank_ladder(diff_matrix(P012))
        assert [r.observed for r in reports] == [3, 2, 1, 0]
        assert all(r.passed for r in reports)

    def test_jordan_block(self):
        reports = audit_rank_ladder(JORDAN2)
        assert [r.observed for r in reports] == [2, 1, 0]
        assert all(r.passed for r in reports)

    def test_two_node_diff_matrix(self):
        reports = audit_rank_ladder(diff_matrix(P01))
        assert [r.observed for r in reports] == [2, 1, 0]

    def test_case_name_prefix(self):
        reports = audit_rank_ladder(JORDAN2, prefix="rank_ladder_jordan2")
        assert [r.case_name for r in reports] == [
            "rank_ladder_jordan2[k=0]", "rank_ladder_jordan2[k=1]", "rank_ladder_jordan2[k=2]"]
        names = [r.case_name for r in _diff_rank_reports([(P012.nodes, "diff_random007_")], 1e-8)]
        assert names == ["diff_random007_rank[n=2]", "diff_random007_nilpotent[n=2]"]

    @pytest.mark.parametrize("seed", [42, 7, 1])
    def test_equals_2d_reference(self, seed):
        rng = np.random.default_rng(seed)
        inputs = [diff_matrix(P01), diff_matrix(P012), JORDAN2]
        inputs += [diff_matrix(jittered_partition(rng, n)) for n in rng.integers(1, 7, size=10)]
        for rel_tol in (1e-8, 1e-10):
            for h in inputs:
                reports = audit_rank_ladder(h, rel_tol, "ladder")
                assert reports == reference_rank_ladder(h, rel_tol, "ladder")
                assert [r.observed for r in reports] == list(range(len(h), -1, -1))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_diff_matrix_ladder_reads_the_theorem(self, n):
        # rank Z^k = n + 1 - k on uniform nodes and on 20 jittered draws, up to n = 16; Z is
        # so non-normal that norm(Z^k) falls below 1e-8 norm(Z)^k while Z^k is nonzero
        rng = np.random.default_rng(n)
        for p in [uniform_partition(0.0, 1.0, n)] + [jittered_partition(rng, n)
                                                      for _ in range(20)]:
            reports = audit_rank_ladder(diff_matrix(p))
            assert [r.observed for r in reports] == list(range(n + 1, -1, -1))
            assert all(r.passed for r in reports)

    def test_overflowing_floor_is_value_error(self):
        with pytest.raises(ValueError, match=r"floor overflows float64 \(1.0000e\+200 \*\* 2\)"):
            audit_rank_ladder(np.array([[0.0, 1e200], [0.0, 0.0]]))

    def test_rejects_full_rank_input(self):
        with pytest.raises(ValueError, match="nilpotent|rank"):
            audit_rank_ladder(np.eye(3))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="rank"):
            audit_rank_ladder(np.zeros((3, 3)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            audit_rank_ladder(np.ones((2, 3)))

    def test_rejects_non_nilpotent_of_rank_n(self):
        # rank 1 = n as the ladder needs, but H^2 = H
        with pytest.raises(ValueError, match=r"H\^2 is not numerically zero"):
            audit_rank_ladder(np.diag([1.0, 0.0]))


class TestNilpotentPolyRankAudit:
    def test_shifted_square_is_full_rank(self):
        z = diff_matrix(uniform_partition(0.0, 1.0, 4))
        report = audit_nilpotent_poly_rank(z, [1.0, 0.0, 1.0], 0)  # z^2 + 1 written in powers of z
        assert report.passed and report.observed == 5

    def test_pure_square_on_three_nodes(self):
        report = audit_nilpotent_poly_rank(diff_matrix(P012), [1.0], 2)
        assert report.passed and report.observed == 1

    def test_scaled_counterexample_matrix(self):
        report = audit_nilpotent_poly_rank(COUNTEREXAMPLE_MATRIX, [3.0], 1)
        assert report.passed and report.observed == 1

    @pytest.mark.parametrize("seed", [42, 7, 1])
    def test_equals_2d_reference(self, seed):
        rng = np.random.default_rng(seed)
        cases = [(diff_matrix(uniform_partition(0.0, 1.0, 4)), [1.0, 0.0, 1.0], 0),
                 (diff_matrix(P012), [1.0], 2), (COUNTEREXAMPLE_MATRIX, [3.0], 1)]
        for _ in range(20):
            n = int(rng.integers(1, 7))
            z = diff_matrix(jittered_partition(rng, n))
            coeffs = rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 2.0, size=rng.integers(1, 5))
            cases.append((z / np.linalg.norm(z, 2), coeffs, int(rng.integers(0, n + 2))))
        for rel_tol in (1e-8, 1e-10):
            for b, coeffs, k in cases:
                assert audit_nilpotent_poly_rank(b, coeffs, k, rel_tol) == (
                    reference_nilpotent_poly_rank(b, coeffs, k, rel_tol))

    @pytest.mark.parametrize("seed", [42, 7, 1])
    def test_random_cases_equal_2d_reference(self, seed):
        for rel_tol in (1e-8, 1e-10):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(50):
                assert random_poly_rank_case(rng, rel_tol) == reference_random_poly_rank_case(
                    reference_rng, rel_tol)

    @pytest.mark.parametrize("seed", [42, 7, 1])
    def test_stacked_family_equals_per_case_calls(self, seed):
        for rel_tol in (1e-8, 1e-10):
            rng, per_case_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            reports = _random_poly_reports(rng, 50, rel_tol)
            assert reports == [reference_random_poly_rank_case(per_case_rng, rel_tol)
                               for _ in range(50)]
            assert rng.bit_generator.state == per_case_rng.bit_generator.state
            assert len({r.case_name for r in reports}) > 10  # several n and k per stack

    @pytest.mark.parametrize("seed", [42, 7, 1])
    def test_stacked_builder_equals_per_case_loop(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        for n in (2, 5, 8):
            zs = np.stack([diff_matrix(jittered_partition(rng, n)) for _ in range(12)])
            bs = zs / np.linalg.svd(zs, compute_uv=False)[:, :1, None]
            # every k in 0..n+1 and every coefficient length 1..4 within one stack
            cases = [(rng.uniform(0.25, 2.0, size=1 + i % 4) * rng.choice([-1.0, 1.0]),
                      i % (n + 2)) for i in range(len(bs))]
            seen = []

            def recording_ranks(stack, floors, rel_tol):
                seen.append((stack, floors))
                return _ranks(stack, floors, rel_tol)

            monkeypatch.setattr(audits, "_ranks", recording_ranks)
            for rel_tol in (1e-8, 1e-10):
                got = _poly_ranks(bs, cases, rel_tol)
                assert got == reference_poly_ranks(
                    [(b, coeffs, k) for b, (coeffs, k) in zip(bs, cases)], rel_tol)
                # the same matrices and floors, bit for bit, only grouped by kind
                (stack, floors), (reference, reference_floors) = seen[-2:]
                regrouped = np.concatenate([reference[0::2], reference[1::2]])
                assert stack.tobytes() == regrouped.tobytes()
                assert floors == reference_floors[0::2] + reference_floors[1::2]
                assert {0.0, np.inf} <= set(floors[len(bs):])  # both verdicts occur

    @pytest.mark.parametrize("seed", [7, 42])
    def test_power_past_nilpotency_index_has_rank_zero(self, seed):
        # once k >= dim, B^k and the polynomial are exactly 0: the verdict must not
        # rest on the round-off residue of the power chain
        rng = np.random.default_rng(seed)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            z = diff_matrix(jittered_partition(rng, n))
            coeffs = rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 2.0, size=rng.integers(1, 5))
            for k, rel_tol in product((n + 1, n + 2), (1e-8, 1e-10)):
                report = audit_nilpotent_poly_rank(z, coeffs, k, rel_tol)
                assert report.expected == report.observed == 0

    @pytest.mark.parametrize("rel_tol", [1e-7, 3e-8])
    def test_random_family_passes_at_loose_tolerances(self, rel_tol):
        # near the top of the decisive range, a polynomial of rank n + 1 - k can sit below
        # any floor scaled on its own norm; only B^k's decay decides that it is zero
        for seed in range(30):
            reports = _random_poly_reports(np.random.default_rng(seed), 50, rel_tol)
            assert [r.case_name for r in reports if not r.passed] == []

    def test_power_zero_below_size(self):
        # B^2 of two 2x2 Jordan blocks is exactly zero, two powers before B^dim
        b = np.kron(np.eye(2), JORDAN2)
        for k, rank in enumerate((4, 2, 0, 0)):
            report = audit_nilpotent_poly_rank(b, [1.0, 0.5], k)
            assert (report.expected, report.observed) == (rank, rank)

    def test_stacked_builder_checks_every_hypothesis(self):
        bs = np.stack([JORDAN2, np.eye(2), JORDAN2])
        with pytest.raises(ValueError, match=r"B\^2 is not numerically zero"):
            _poly_ranks(bs, [(np.array([1.0]), 1)] * 3, 1e-8)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError, match=r"hypothesis failed: B\^2 is not numerically zero"):
            audit_nilpotent_poly_rank(np.eye(2), [1.0], 1)
        with pytest.raises(ValueError, match=r"B\^3 is not numerically zero"):
            audit_nilpotent_poly_rank(np.triu(np.ones((3, 3))), [1.0, 2.0], 0)

    def test_rejects_complex_coefficients(self):
        with pytest.raises(ValueError, match="complex"):
            audit_nilpotent_poly_rank(JORDAN2, [1.0 + 1j], 1)

    def test_overflowing_floor_is_value_error(self):
        with pytest.raises(ValueError, match=r"floor overflows float64 \(1.0000e\+200 \*\* 2\)"):
            audit_nilpotent_poly_rank(np.array([[0.0, 1e200], [0.0, 0.0]]), [1.0], 1)

    def test_rejects_zero_leading_coefficient(self):
        with pytest.raises(ValueError, match="nonzero"):
            audit_nilpotent_poly_rank(JORDAN2, [0.0, 1.0], 0)

    def test_rejects_missing_coefficients(self):
        with pytest.raises(ValueError, match="at least the coefficient a_k"):
            audit_nilpotent_poly_rank(JORDAN2, [], 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            audit_nilpotent_poly_rank(np.ones((2, 3)), [1.0], 0)

    def test_k_is_a_non_negative_integer(self):
        # a negative k would index the power chain from its end
        b = diff_matrix(uniform_partition(0.0, 1.0, 4))
        for k in (-1, -3):
            with pytest.raises(ValueError, match=f"need k >= 0, got {k}"):
                audit_nilpotent_poly_rank(b, [1.0, 0.5], k)
        with pytest.raises(TypeError):
            audit_nilpotent_poly_rank(b, [1.0, 0.5], 2.0)
        for k in range(8):
            assert (audit_nilpotent_poly_rank(b, [1.0, 0.5], np.int64(k))
                    == reference_nilpotent_poly_rank(b, [1.0, 0.5], k, 1e-8))


class TestCounterexample:
    def test_vanishes_on_critical_line(self):
        assert counterexample_det(1.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_zero_scaling(self):
        assert counterexample_det(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_interior_point(self):
        assert counterexample_det(0.25, 0.75) == pytest.approx(2.0, abs=1e-12)

    def test_closed_form_on_grid(self):
        grid = np.linspace(-2.0, 2.0, 20)
        for a in grid:
            for b in grid:
                assert counterexample_det(a, b) == pytest.approx(1.0 + 2.0 * (b - a), abs=1e-12)

    def test_scalar_gives_float(self):
        assert type(counterexample_det(0.25, 0.75)) is float

    def test_array_grid_equals_scalar_calls(self):
        grid = np.linspace(-2.0, 2.0, 20)
        a, b = np.meshgrid(grid, grid, indexing="ij")
        got = counterexample_det(a, b)
        expected = np.array([[counterexample_det(x, y) for y in grid] for x in grid])
        assert got.shape == (20, 20)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))

    def test_rejects_complex_input(self):
        with pytest.raises(ValueError, match="complex"):
            counterexample_det(1.0 + 1j, 0.5)
        with pytest.raises(ValueError, match="complex"):
            counterexample_det(np.zeros(2), np.array([0.5, 1j]))

    def test_arrays_broadcast(self):
        got = counterexample_det(np.array([0.0, 1.0]), 0.5)
        expected = [counterexample_det(0.0, 0.5), counterexample_det(1.0, 0.5)]
        np.testing.assert_array_equal(got, expected)


def exact_diff_matrix(nodes):
    """Z of a node row in rationals, from the closed form of ``diff_matrix``."""
    xs = [Fraction(x) for x in nodes.tolist()]
    pi = [prod(xj - x for x in xs if x != xj) for xj in xs]
    return [[sum(1 / (xj - x) for x in xs if x != xj) if j == k else pi[j] / pi[k] / (xj - xk)
             for k, xk in enumerate(xs)] for j, xj in enumerate(xs)]


def exact_lifted_matrices(cases, ps):
    """The operator of each term list (integer coefficients) times a common positive scale, as
    Python-int object arrays: each Z is scaled by the least common denominator of the Zs'
    entries, and each monomial by that scale's power missing from its total degree."""
    zs = [exact_diff_matrix(p.nodes) for p in ps]
    scale = lcm(*(f.denominator for z in zs for row in z for f in row))
    zs = [np.array([[int(f * scale) for f in row] for row in z], dtype=object) for z in zs]
    top = max(sum(e) for terms in cases for _, e in terms)
    for terms in cases:
        yield sum(int(c) * scale ** (top - sum(e))
                  * reduce(np.kron, [np.linalg.matrix_power(z, k) for z, k in zip(zs, e)][::-1])
                  for c, e in terms)


def bareiss_rank(rows):
    """Exact rank of an integer matrix (a list of rows) by fraction-free elimination: every
    entry stays the minor it stands for, so each division is exact."""
    rows, rank, previous = [list(row) for row in rows], 0, 1
    for col in range(len(rows[0])):
        p = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        pivot_row = rows[rank]
        pivot = pivot_row[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            rows[r] = [(pivot * a - f * b) // previous for a, b in zip(rows[r], pivot_row)]
        previous, rank = pivot, rank + 1
    return rank


class TestLiftedPolyRankAudit:
    PS33 = [uniform_partition(0, 3, 3), uniform_partition(-1.5, 1.5, 3)]

    def test_full_rank_with_constant(self):
        [report] = _lifted_poly_reports([[(1.0, (0, 0)), (1.0, (1, 0)), (1.0, (0, 1))]], self.PS33,
                                         1e-8)
        assert report.passed and report.expected is True

    def test_deficient_without_constant(self):
        [report] = _lifted_poly_reports([[(1.0, (2, 0)), (1.0, (0, 1))]], self.PS33, 1e-8)
        assert report.passed and report.expected is False

    def test_pure_constant(self):
        ps = [uniform_partition(0, 1, 2), uniform_partition(0, 1, 2)]
        [report] = _lifted_poly_reports([[(-7.0, (0, 0))]], ps, 1e-8)
        assert report.passed and report.expected is True

    def test_stacked_family_equals_per_case_calls(self):
        ps = [Partition(np.arange(4.0)), Partition(np.arange(4.0) - 1.5)]
        family = list(_lifted_poly_family())
        reports = _lifted_poly_reports(family, ps, 1e-8)
        assert len(reports) == 232
        assert reports == [r for terms in family for r in _lifted_poly_reports([terms], ps, 1e-8)]
        assert [r.observed for r in reports] == [
            numerical_rank(poly_operator_matrix(terms, ps)) == 16 for terms in family]

    def test_default_suite_ranks_are_exact_and_clear_of_the_threshold(self):
        # the rank threshold is relative to sigma_1, so it cannot certify rank 0 (floor 0.0);
        # no case of the default suite's grid needs it: the exact ranks are 8, 9, 12 or 16,
        # every float rank equals its exact rank, and every singular value lies more than 3
        # decades from rel_tol * sigma_1 (4.1 the closest of the cases with no constant term)
        ps = [Partition(np.arange(4.0)), Partition(np.arange(4.0) - 1.5)]
        cases = [[(1.0, (0, 0)), (1.0, (1, 0)), (1.0, (0, 1))], [(1.0, (2, 0)), (1.0, (0, 1))],
                 *_lifted_poly_family()]
        exact = [bareiss_rank(m.tolist()) for m in exact_lifted_matrices(cases, ps)]
        matrices = np.stack([poly_operator_matrix(terms, ps) for terms in cases])
        assert numerical_rank(matrices).tolist() == exact
        without_constant = [rank for terms, rank in zip(cases, exact)
                            if all(e != (0, 0) for _, e in terms)]
        assert len(without_constant) == 131 and set(without_constant) == {8, 9, 12}
        assert set(exact) == {8, 9, 12, 16}
        s = np.linalg.svd(matrices, compute_uv=False)
        with np.errstate(divide="ignore"):  # an exactly zero singular value is infinitely far
            assert np.abs(np.log10(s / (1e-8 * s[:, :1]))).min() > 3.0
        reports = _lifted_poly_reports(cases, ps, 1e-8)
        assert all(r.passed for r in reports)
        assert [r.observed for r in reports] == [rank == 16 for rank in exact]


class TestAuditReport:
    def test_numpy_scalars_become_python_values(self):
        report = AuditReport("case", np.int64(3), np.bool_(True), 1e-8)
        assert type(report.expected) is int and report.expected == 3
        assert type(report.observed) is bool and report.observed is True
        report = AuditReport("case", np.intp(2), np.int32(2), 1e-8)
        assert type(report.expected) is int and type(report.observed) is int
        assert report.passed is True

    def test_non_integral_values_are_refused(self):
        for value in (3.7, np.float64(2.9), "3"):
            with pytest.raises(TypeError):
                AuditReport("case", value, 3, 1e-8)
            with pytest.raises(TypeError):
                AuditReport("case", 3, value, 1e-8)

    def test_csv_prints_converted_values(self):
        reports = [AuditReport("a", np.int64(3), np.int64(3), 1e-8),
                   AuditReport("b", np.bool_(True), np.bool_(False), 1e-12)]
        assert reports_to_csv(reports) == ("caseName,expected,observed,tolerance,pass\n"
                                           "a,3,3,1.0000e-08,true\n"
                                           "b,true,false,1.0000e-12,false\n")


LIFTED_TOTAL = 16  # the 4x4 grid of default_suite's lifted family; no other stack is as wide


def sequential_suite(seed, rel_tol):
    """default_suite one family after another on one thread, in report order."""
    rng = np.random.default_rng(seed)
    diff_cases = [(np.array([0.0, 1.0]), "diff_"), (np.array([0.0, 1.0, 2.0]), "diff_")]
    for t in range(100):
        diff_cases.append((jittered_partition(rng, int(rng.integers(2, 11))).nodes,
                           f"diff_random{t:03d}_"))
    reports = _diff_rank_reports(diff_cases, rel_tol)
    for label, h in (("z01", diff_matrix(P01)), ("z012", diff_matrix(P012)),
                     ("jordan2", JORDAN2)):
        reports += audit_rank_ladder(h, rel_tol, f"rank_ladder_{label}")
    reports += [audit_nilpotent_poly_rank(diff_matrix(uniform_partition(0.0, 1.0, 4)),
                                          [1.0, 0.0, 1.0], 0, rel_tol),
                audit_nilpotent_poly_rank(diff_matrix(P012), [1.0], 2, rel_tol),
                audit_nilpotent_poly_rank(COUNTEREXAMPLE_MATRIX, [3.0], 1, rel_tol)]
    reports += [random_poly_rank_case(rng, rel_tol) for _ in range(50)]
    grid_a, grid_b = np.meshgrid(np.linspace(-2.0, 2.0, 20), np.linspace(-2.0, 2.0, 20),
                                 indexing="ij")
    deviation = np.abs(counterexample_det(grid_a, grid_b) - (1.0 + 2.0 * (grid_b - grid_a))).max()
    reports += [AuditReport("counterexample_identity_20x20", True, deviation <= 1e-12, 1e-12),
                AuditReport("counterexample_zero_at(1;0.5)", True,
                            abs(counterexample_det(1.0, 0.5)) <= 1e-12, 1e-12)]
    ps3 = [Partition(np.arange(4.0)), Partition(np.arange(4.0) - 1.5)]
    lifted = _lifted_poly_reports(
        [[(1.0, (0, 0)), (1.0, (1, 0)), (1.0, (0, 1))], [(1.0, (2, 0)), (1.0, (0, 1))],
         *_lifted_poly_family()], ps3, rel_tol)
    ps2 = [Partition(np.arange(3.0)), Partition(np.arange(3.0))]
    return (reports + lifted[:2] + _lifted_poly_reports([[(-7.0, (0, 0))]], ps2, rel_tol)
            + lifted[2:])


class TestDefaultSuite:
    def test_everything_passes(self):
        reports = default_suite(seed=42)
        failures = [r.case_name for r in reports if not r.passed]
        assert failures == []
        assert len(reports) > 400

    def test_csv_shape(self):
        reports = default_suite(seed=7)
        csv = reports_to_csv(reports)
        lines = csv.strip().splitlines()
        assert lines[0] == "caseName,expected,observed,tolerance,pass"
        assert len(lines) == len(reports) + 1
        assert all(line.count(",") == 4 for line in lines)

    @pytest.mark.parametrize("seed", [33, 140, 216, 252, 507])
    def test_passes_where_the_polynomial_bound_failed(self, seed):
        # each seed draws a poly_rank_random[n=10;k=4] case of rank 7 whose polynomial
        # has a norm below rel_tol norm(B)^k sum_j |a_j| norm(B)^j
        assert [r.case_name for r in default_suite(seed) if not r.passed] == []

    def test_deterministic_for_fixed_seed(self):
        assert reports_to_csv(default_suite(seed=3)) == reports_to_csv(default_suite(seed=3))

    @pytest.mark.parametrize("seed", [42, 7, 1])
    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
    def test_equals_sequential_family_order(self, seed, rel_tol):
        assert default_suite(seed, rel_tol) == sequential_suite(seed, rel_tol)

    def test_bad_rel_tol_is_refused_before_any_svd(self, monkeypatch):
        svd, shapes = np.linalg.svd, []

        def recording_svd(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        for rel_tol in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match="rel_tol"):
                default_suite(rel_tol=rel_tol)
        assert shapes == []

    def test_lifted_failure_propagates(self, monkeypatch):
        svd = np.linalg.svd

        def failing_svd(a, *args, **kwargs):
            if a.shape[-1] == LIFTED_TOTAL:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        def nan_matrix(terms, ps):
            # one matrix of the 4x4 grid's 234-matrix stack holds a NaN
            m = poly_operator_matrix(terms, ps)
            if terms == [(1.0, (2, 0)), (1.0, (0, 1))]:
                m[0, 0] = np.nan
            return m

        for module, name, patch, error, match in (
                (np.linalg, "svd", failing_svd, np.linalg.LinAlgError, "did not converge"),
                (audits, "poly_operator_matrix", nan_matrix, ValueError, "finite")):
            with monkeypatch.context() as patched:
                patched.setattr(module, name, patch)
                with pytest.raises(error, match=match):
                    default_suite()

    def test_lifted_stack_is_ranked_once_and_never_normed(self, monkeypatch):
        # numerical_rank is the lifted family's one SVD kernel; no norm pass runs before it
        ranked, normed = [], []

        def recording(fn, shapes):
            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return fn(a, *args, **kwargs)
            return wrapper

        expected = sequential_suite(42, 1e-8)
        monkeypatch.setattr(audits, "numerical_rank", recording(numerical_rank, ranked))
        monkeypatch.setattr(audits, "matrix_norm", recording(audits.matrix_norm, normed))
        assert default_suite() == expected
        lifted = (234, LIFTED_TOTAL, LIFTED_TOTAL)
        assert ranked.count(lifted) == 1 and lifted not in normed
        assert ranked.count((1, 9, 9)) == 1 and (1, 9, 9) not in normed

    @pytest.mark.parametrize("seed", [42, 7])
    def test_starts_no_thread(self, monkeypatch, seed):
        def refused(thread):
            raise AssertionError(f"default_suite started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refused)
        assert default_suite(seed) == sequential_suite(seed, 1e-8)

    def test_public_functions_run_on_the_calling_thread(self, monkeypatch):
        calls, svd_calls, svd = [], [], np.linalg.svd

        def recorded(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append((fn.__name__, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        modules = [importlib.import_module(f"liealg.{name}") for name in
                   ("partitions", "operators", "lifting", "linalg", "audits", "bvp", "cli")]
        wrappers = {}
        for module in modules:
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = recorded(fn)
        # every module's binding, as `from .lifting import poly_operator_matrix` makes its own
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    monkeypatch.setattr(module, name, wrappers[value])

        def recording_svd(a, *args, **kwargs):
            svd_calls.append((a.shape, threading.get_ident()))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        me = threading.get_ident()
        reports = audits.default_suite()
        assert {ident for _, ident in calls} == {me}
        assert sum(name == "poly_operator_matrix" for name, _ in calls) == 235
        # every stack, the lifted family's 234 matrices included, is decomposed here
        assert {ident for _, ident in svd_calls} == {me}
        assert (234, LIFTED_TOTAL, LIFTED_TOTAL) in [shape for shape, _ in svd_calls]
        assert len(svd_calls) > 10
        assert reports == sequential_suite(42, 1e-8)

