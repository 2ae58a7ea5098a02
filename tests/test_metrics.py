"""Chamfer, Hausdorff, exact earth mover's distance, uniformity
measures, and the report CSV."""

import math

import numpy as np
import pytest

import helpers
from pcup import metrics
from pcup.geometry import pairwise_distances
from pcup.mesh import area_weighted_sample, poisson_disk_sample


class TestChamferHausdorff:
    def test_hand_case_unit_offset(self):
        a = np.array([[0.0, 0, 0]])
        b = np.array([[1.0, 0, 0]])
        assert metrics.chamfer_distance(a, b) == pytest.approx(1.0)
        assert metrics.hausdorff_distance(a, b) == pytest.approx(1.0)

    def test_identical_clouds_are_zero(self, rng):
        a = rng.normal(size=(40, 3))
        assert metrics.chamfer_distance(a, a) == 0.0
        assert metrics.hausdorff_distance(a, a) == 0.0

    def test_against_brute_force(self, rng):
        a = rng.normal(size=(30, 3))
        b = rng.normal(size=(50, 3))
        d = pairwise_distances(a, b)
        cd = 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())
        hd = max(d.min(axis=1).max(), d.min(axis=0).max())
        assert metrics.chamfer_distance(a, b) == pytest.approx(cd, rel=1e-12)
        assert metrics.hausdorff_distance(a, b) == pytest.approx(hd, rel=1e-12)

    def test_hausdorff_dominates_chamfer(self, rng):
        for _ in range(10):
            a = rng.normal(size=(25, 3))
            b = rng.normal(size=(25, 3)) + rng.normal(size=3)
            assert metrics.hausdorff_distance(a, b) >= metrics.chamfer_distance(a, b)

    def test_symmetry(self, rng):
        a = rng.normal(size=(20, 3))
        b = rng.normal(size=(35, 3))
        assert metrics.chamfer_distance(a, b) == metrics.chamfer_distance(b, a)
        assert metrics.hausdorff_distance(a, b) == metrics.hausdorff_distance(b, a)


class TestEmdExact:
    def test_hand_case_cost_two(self):
        a = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        b = np.array([[0.0, 1, 0], [1.0, 1, 0]])
        m = metrics.emd_exact(a, b)
        assert m.cost == pytest.approx(2.0)
        assert list(m.permutation) == [0, 1]

    def test_matches_factorial_oracle(self, rng):
        for n in range(1, 8):
            a = rng.normal(size=(n, 3))
            b = rng.normal(size=(n, 3))
            m = metrics.emd_exact(a, b)
            assert m.cost == pytest.approx(helpers.brute_assignment_cost(a, b), rel=1e-12)

    def test_permutation_is_valid_and_cost_consistent(self, rng):
        a = rng.normal(size=(20, 3))
        b = rng.normal(size=(20, 3))
        m = metrics.emd_exact(a, b)
        assert sorted(m.permutation) == list(range(20))
        direct = np.linalg.norm(a - b[m.permutation], axis=1).sum()
        assert m.cost == pytest.approx(direct, rel=1e-12)

    def test_size_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="size mismatch"):
            metrics.emd_exact(rng.normal(size=(3, 3)), rng.normal(size=(4, 3)))

    def test_identical_clouds_cost_zero(self, rng):
        a = rng.normal(size=(64, 3))
        m = metrics.emd_exact(a, a.copy())
        assert m.cost == 0.0
        assert np.array_equal(a[np.argsort(m.permutation)], a)  # valid bijection

    def test_permutation_invariance_is_bitwise(self, rng):
        a = rng.normal(size=(50, 3))
        b = rng.normal(size=(50, 3))
        base = metrics.emd_exact(a, b).cost
        for _ in range(5):
            pa, pb = rng.permutation(50), rng.permutation(50)
            assert metrics.emd_exact(a[pa], b[pb]).cost == base

    def test_scale_covariance_power_of_two(self, rng):
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(40, 3))
        assert metrics.emd_exact(4.0 * a, 4.0 * b).cost == pytest.approx(
            4.0 * metrics.emd_exact(a, b).cost, rel=1e-12
        )

    def test_single_point(self):
        m = metrics.emd_exact(np.array([[0.0, 0, 0]]), np.array([[3.0, 4, 0]]))
        assert m.cost == pytest.approx(5.0)
        assert list(m.permutation) == [0]

    def test_cost_matches_permutation(self, rng):
        a = rng.normal(size=(30, 3))
        b = rng.normal(size=(30, 3))
        m = metrics.emd_exact(a, b)
        direct = np.linalg.norm(a - b[m.permutation], axis=1).sum()
        assert m.cost == pytest.approx(direct, rel=1e-12)

    def test_large_cloud_recovers_permutation(self, rng):
        # above the 512 points the solver was once capped at
        a = rng.normal(size=(1024, 3))
        perm = rng.permutation(1024)
        m = metrics.emd_exact(a, a[perm])
        assert m.cost == 0.0
        assert np.array_equal(perm[m.permutation], np.arange(1024))


class TestUniformityFormulas:
    def test_expected_ball_count(self):
        assert metrics.expected_ball_count(1024, 0.01) == pytest.approx(10.24)

    def test_hexagonal_spacing_hand_value(self):
        got = metrics.hexagonal_neighbor_spacing(0.1, 10)
        analytic = math.sqrt(2 * math.pi * 0.01 / (10 * math.sqrt(3)))
        assert got == pytest.approx(analytic, abs=1e-9)
        assert got == pytest.approx(0.06023, abs=5e-6)

    def test_imbalance_hand_value(self):
        # 20 points where 1024 * 0.01 = 10.24 are expected
        value = (20 - metrics.expected_ball_count(1024, 0.01)) ** 2 / 10.24
        assert value == pytest.approx(9.3025, abs=1e-9)

    def test_two_isolated_points_score_zero(self):
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        # balls of radius sqrt(0.01)=0.1 hold one point each: no clutter
        assert metrics.uniformity_loss_value(pts, 0.01, 4, 0) == 0.0

    def test_p_domain_checked(self, rng):
        pts = rng.normal(size=(20, 3))
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="p must be"):
                metrics.uniformity_loss_value(pts, bad, 4, 0)

    def test_subsets_are_deterministic_given_seed(self, rng):
        pts = rng.normal(size=(100, 3))
        r1 = metrics.uniformity_loss_value(pts, 0.01, 10, 7)
        r2 = metrics.uniformity_loss_value(pts, 0.01, 10, 7)
        assert r1 == r2

    def test_pattern_ordering_at_one_percent(self):
        from pcup import patterns

        hexa = patterns.hexagonal_disk(625)
        rand = patterns.random_disk(625, seed=0)
        clus = patterns.clustered_disk(625, seed=0)
        vals = [metrics.uniformity_loss_value(p, 0.01, 20, 0) for p in (hexa, rand, clus)]
        assert vals[0] < vals[1] < vals[2]


class TestMeshUniformityReport:
    def test_poisson_beats_random_on_icosphere(self, icosphere_mesh, rng):
        n = 400
        pd = poisson_disk_sample(icosphere_mesh, n, rng)
        rnd = area_weighted_sample(icosphere_mesh, n, rng)
        rep_pd = metrics.uniformity_report_mesh(
            pd.positions, icosphere_mesh, seed_count=60, rng=0, pool_size=3000
        )
        rep_rnd = metrics.uniformity_report_mesh(
            rnd.positions, icosphere_mesh, seed_count=60, rng=0, pool_size=3000
        )
        for p in metrics.P_VALUES:
            assert rep_pd.values[p] < rep_rnd.values[p]

    def test_values_are_finite_and_keyed_by_p(self, icosphere_mesh, rng):
        pts = area_weighted_sample(icosphere_mesh, 200, rng).positions
        rep = metrics.uniformity_report_mesh(
            pts, icosphere_mesh, seed_count=20, rng=0, pool_size=2000
        )
        assert sorted(rep.values) == sorted(metrics.P_VALUES)
        assert all(np.isfinite(v) for v in rep.values.values())
        assert len(rep.ordered_values()) == 5


class TestReportCsv:
    def test_header_and_roundtrip(self, tmp_path):
        report = metrics.UniformityReport(
            {p: float(i) / 7 for i, p in enumerate(metrics.P_VALUES)}, 50
        )
        path = tmp_path / "report.csv"
        metrics.write_report_csv(path, [("modelA", 0.001234, 0.01, 0.0005, report)])
        lines = path.read_text().splitlines()
        assert lines[0] == metrics.REPORT_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "modelA"
        assert float(fields[1]) == 0.001234  # full precision survives
        assert [float(f) for f in fields[4:]] == report.ordered_values()


class TestPointToSurfaceStats:
    def test_tetra_known_points(self, tetra_mesh):
        pts = np.array([[0.0, 0, 0], [0.0, 0, 0]])
        mean, peak = metrics.point_to_surface_stats(pts, tetra_mesh)
        assert mean == pytest.approx(1 / 3)
        assert peak == pytest.approx(1 / 3)
