import numpy as np
import pytest

from liealg.audits import (
    COUNTEREXAMPLE_MATRIX,
    audit_diff_rank,
    audit_lifted_poly_rank,
    audit_rank_ladder,
    audit_nilpotent_poly_rank,
    counterexample_det,
    default_suite,
    reports_to_csv,
)
from liealg.operators import diff_matrix
from liealg.partitions import Partition, jittered_partition, uniform_partition

P01 = Partition(np.array([0.0, 1.0]))
P012 = Partition(np.array([0.0, 1.0, 2.0]))
JORDAN2 = np.array([[0.0, 1.0], [0.0, 0.0]])


class TestDiffRankAudit:
    def test_two_nodes(self):
        rank_report, nil_report = audit_diff_rank(P01)
        assert (rank_report.expected, rank_report.observed) == (1, 1)
        assert nil_report.passed

    def test_three_nodes(self):
        rank_report, nil_report = audit_diff_rank(P012)
        assert rank_report.passed and rank_report.observed == 2
        assert nil_report.passed

    def test_random_eight_node_partition(self):
        p = jittered_partition(np.random.default_rng(0), 7)
        rank_report, nil_report = audit_diff_rank(p)
        assert rank_report.observed == 7
        assert rank_report.passed and nil_report.passed

    def test_conditioning_guard(self):
        with pytest.raises(ValueError, match="conditioning guard"):
            audit_diff_rank(uniform_partition(0, 1, 13))


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
        names = [r.case_name for r in audit_diff_rank(P012, prefix="diff_random007_")]
        assert names == ["diff_random007_rank[n=2]", "diff_random007_nilpotent[n=2]"]

    def test_rejects_full_rank_input(self):
        with pytest.raises(ValueError, match="nilpotent|rank"):
            audit_rank_ladder(np.eye(3))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="rank"):
            audit_rank_ladder(np.zeros((3, 3)))


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

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError, match="nilpotent|zero"):
            audit_nilpotent_poly_rank(np.eye(2), [1.0], 1)

    def test_rejects_zero_leading_coefficient(self):
        with pytest.raises(ValueError, match="nonzero"):
            audit_nilpotent_poly_rank(JORDAN2, [0.0, 1.0], 0)


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


class TestLiftedPolyRankAudit:
    PS33 = [uniform_partition(0, 3, 3), uniform_partition(-1.5, 1.5, 3)]

    def test_full_rank_with_constant(self):
        report = audit_lifted_poly_rank([(1.0, (0, 0)), (1.0, (1, 0)), (1.0, (0, 1))], self.PS33)
        assert report.passed and report.expected is True

    def test_deficient_without_constant(self):
        report = audit_lifted_poly_rank([(1.0, (2, 0)), (1.0, (0, 1))], self.PS33)
        assert report.passed and report.expected is False

    def test_pure_constant(self):
        ps = [uniform_partition(0, 1, 2), uniform_partition(0, 1, 2)]
        report = audit_lifted_poly_rank([(-7.0, (0, 0))], ps)
        assert report.passed and report.expected is True

    def test_size_guard(self):
        ps = [uniform_partition(0, 1, 16), uniform_partition(0, 1, 16)]
        with pytest.raises(ValueError, match="size guard"):
            audit_lifted_poly_rank([(1.0, (0, 0))], ps)


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

    def test_deterministic_for_fixed_seed(self):
        assert reports_to_csv(default_suite(seed=3)) == reports_to_csv(default_suite(seed=3))
