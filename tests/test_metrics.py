"""Chamfer, Hausdorff, exact earth mover's distance, uniformity
measures, and the report CSV."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import helpers
from pcup import metrics
from pcup.geometry import SpatialIndex, pairwise_distances
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

    def test_solver_sees_priced_reduced_costs(self, rng, monkeypatch):
        seen = []

        def capture(cost):
            seen.append(cost.copy())
            return linear_sum_assignment(cost)

        monkeypatch.setattr(metrics, "linear_sum_assignment", capture)
        # b lies apart from a, so no raw distance is 0
        metrics.emd_exact(rng.normal(size=(64, 3)), rng.normal(size=(64, 3)) + 5.0)
        (cost,) = seen
        assert np.all(np.isfinite(cost))
        assert cost.min() >= 0.0
        assert np.all(np.any(cost == 0.0, axis=1))

    @pytest.mark.parametrize("case", ["collapsed", "near_ties"])
    def test_same_permutation_as_column_reduced_solve(self, case):
        # the column-reduced solve of the lexsorted matrix, as emd_exact
        # ran it before it priced the columns
        a, b = _emd_case(case)
        ia, ib = np.lexsort(a.T[::-1]), np.lexsort(b.T[::-1])
        d = pairwise_distances(a[ia], b[ib])
        assign = linear_sum_assignment(d - d.min(axis=0))[1]
        expected = np.empty(len(a), dtype=np.intp)
        expected[ia] = ib[assign]
        m = metrics.emd_exact(a, b)
        assert np.array_equal(m.permutation, expected)
        assert m.cost == float(d[np.arange(len(a)), assign].sum())

    @pytest.mark.parametrize("apart", [0.0, 1.5])
    def test_zero_span_is_silent(self, apart):
        # every distance equal: no prices, and every bijection is optimal
        a = np.tile([0.2, -0.1, 0.3], (5, 1))
        b = a + [apart, 0.0, 0.0]
        with np.errstate(all="raise"):
            m = metrics.emd_exact(a, b)
        assert np.array_equal(np.sort(m.permutation), np.arange(5))
        assert m.cost == _unreduced_optimum(a, b)

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_extreme_scales_are_silent(self, rng, scale):
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(40, 3))
        with np.errstate(all="raise"):
            scaled = metrics.emd_exact(scale * a, scale * b).cost
            base = metrics.emd_exact(a, b).cost
        assert scaled == pytest.approx(scale * base, rel=1e-12)

    def test_two_points_are_silent(self):
        a = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        b = np.array([[1.0, 0.5, 0], [0.0, 0.5, 0]])
        with np.errstate(all="raise"):
            m = metrics.emd_exact(a, b)
        assert list(m.permutation) == [1, 0]
        assert m.cost == pytest.approx(1.0)

    def test_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        a, b = _emd_case("collapsed")
        np.save(tmp_path / "a.npy", a)
        np.save(tmp_path / "b.npy", b)
        code = ("import hashlib, sys, numpy as np; from pcup import metrics; "
                "m = metrics.emd_exact(np.load(sys.argv[1]), np.load(sys.argv[2])); "
                "print(hashlib.sha256(m.permutation.tobytes() "
                "+ np.float64(m.cost).tobytes()).hexdigest())")
        src = str(Path(metrics.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", code, str(tmp_path / "a.npy"), str(tmp_path / "b.npy")],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("case", ["collapsed", "lattice", "duplicates", "near_ties"])
    def test_cost_equals_unreduced_optimum(self, case):
        a, b = _emd_case(case)
        m = metrics.emd_exact(a, b)
        assert np.array_equal(np.sort(m.permutation), np.arange(len(a)))
        assert m.cost == pytest.approx(np.linalg.norm(a - b[m.permutation], axis=1).sum(),
                                       rel=1e-12)
        assert m.cost == pytest.approx(_unreduced_optimum(a, b), rel=1e-12)

    def test_collapsed_output_cost_bound(self):
        # the matching of an untrained N=256 generator's 1024 points against
        # its target patch, the reconstruction term's worst case: about
        # 0.3 s on 2 cores, so the budget is over 10x the measured time
        a, b = _emd_case("collapsed")
        start = time.perf_counter()
        metrics.emd_exact(a, b)
        assert time.perf_counter() - start < 5.0


def _emd_case(case):
    """Equal-size point-set pairs whose matchings tie or nearly tie."""
    rng = np.random.default_rng(9)
    if case == "collapsed":
        patch = rng.normal(size=(1024, 3)) * [1.0, 1.0, 0.1]
        return helpers.collapsed_generator_output(256), patch / np.linalg.norm(patch, axis=1).max()
    if case == "lattice":
        lattice = helpers.cubic_lattice(6, 0.1)
        return lattice, lattice[rng.permutation(len(lattice))] + [0.05, 0.0, 0.0]
    if case == "duplicates":
        return helpers.with_duplicates(rng), helpers.with_duplicates(rng)
    return helpers.near_tie_cloud(rng), helpers.near_tie_cloud(rng)


def _unreduced_optimum(a, b):
    """The assignment optimum on the lexsorted distance matrix as it is,
    without column reduction."""
    d = pairwise_distances(a[np.lexsort(a.T[::-1])], b[np.lexsort(b.T[::-1])])
    rows, cols = linear_sum_assignment(d)
    assert np.array_equal(np.sort(cols), np.arange(len(a)))
    return float(d[rows, cols].sum())


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
        assert helpers.uniformity_loss_value(pts, 0.01, 4, 0) == 0.0

    def test_p_domain_checked(self, rng):
        pts = rng.normal(size=(20, 3))
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="p must be"):
                metrics.uniformity_crops(SpatialIndex(pts), [(bad, 0)], 4)

    def test_subsets_are_deterministic_given_seed(self, rng):
        pts = rng.normal(size=(100, 3))
        r1 = metrics.uniformity_crops(SpatialIndex(pts), [(0.01, 7)], 10)
        r2 = metrics.uniformity_crops(SpatialIndex(pts), [(0.01, 7)], 10)
        assert all(np.array_equal(a, b) for a, b in zip(r1, r2))

    def test_pattern_ordering_at_one_percent(self):
        hexa = helpers.hexagonal_disk(625)
        rand = helpers.random_disk(625, seed=0)
        clus = helpers.clustered_disk(625, seed=0)
        vals = [helpers.uniformity_loss_value(p, 0.01, 20, 0) for p in (hexa, rand, clus)]
        assert vals[0] < vals[1] < vals[2]


LATTICE_P_VALUES = (0.002, 0.004, 0.006, 0.008, 0.010, 0.012)


def _assert_crops_match_oracle(pts, p_values, seed_count, rng_seed):
    """Every crop's nearest-neighbor picks equal the brute-force oracle;
    returns (members checked, members whose global nearest point lies
    outside their crop)."""
    global_nn = SpatialIndex(pts).nearest_others()
    checked = searched = 0
    for p in p_values:
        _, _, subsets = metrics.uniformity_subsets(pts, p, seed_count, rng_seed)
        for members, nn, _ in subsets:
            if nn is None:
                assert len(members) < 2
                continue
            assert np.array_equal(nn, helpers.brute_crop_nearest(pts, members))
            checked += len(members)
            searched += int((~np.isin(global_nn[members], members)).sum())
    return checked, searched


class TestCropNearest:
    def test_collapsed_generator_output(self):
        pts = helpers.collapsed_generator_output(64)
        checked, _ = _assert_crops_match_oracle(pts, metrics.P_VALUES, 50, 3)
        # collapsed: every crop holds the whole cloud
        assert checked == len(metrics.P_VALUES) * 50 * len(pts)

    def test_lattice_ties_break_by_index(self):
        # crop members come from the ball query in distance order, so a
        # pick by position would break the lattice's exact ties differently
        pts = helpers.cubic_lattice(12, 0.02)
        checked, searched = _assert_crops_match_oracle(pts, LATTICE_P_VALUES, 50, 11)
        assert checked > 10000 and searched > 0

    def test_duplicate_points(self, rng):
        pts = helpers.with_duplicates(rng)
        checked, _ = _assert_crops_match_oracle(pts, (0.01, 0.05), 20, 1)
        assert checked > 0

    def test_ulp_near_ties(self, rng):
        pts = helpers.near_tie_cloud(rng)
        # r = 0.071 and 0.1: crops cut through the clusters
        checked, searched = _assert_crops_match_oracle(pts, (0.005, 0.01), 40, 2)
        assert checked > 0 and searched > 0

    def test_spread_cloud_searches_crop_boundaries(self, rng):
        pts = rng.uniform(-1.0, 1.0, size=(600, 3))
        checked, searched = _assert_crops_match_oracle(pts, (0.01, 0.05), 30, 4)
        assert searched > 0.1 * checked

    def test_mesh_report_picks_match_oracle(self, icosphere_mesh, rng, monkeypatch):
        crop_partners = metrics._crop_partners
        calls = []

        def checked(pts, members, sizes, nearest, inside):
            partners = crop_partners(pts, members, sizes, nearest, inside)
            cuts = np.cumsum(sizes)[:-1]
            for crop, picks in zip(np.split(members, cuts), np.split(partners, cuts)):
                assert np.array_equal(picks, helpers.brute_crop_nearest(pts, crop))
                calls.append(len(crop))
            return partners

        monkeypatch.setattr(metrics, "_crop_partners", checked)
        pts = np.vstack([
            area_weighted_sample(icosphere_mesh, 300, rng).positions,
            0.3 * helpers.collapsed_generator_output(32),
            helpers.with_duplicates(rng, n=20, copies=3) * 0.1,
        ])
        metrics.uniformity_report_mesh(pts, icosphere_mesh, seed_count=40, rng=0,
                                       pool_size=3000)
        assert len(calls) > 50


def _assert_kernel_matches_oracle(pts, p_values, seed_count, seed):
    """uniformity_crops over every p at once: each crop equals the brute-
    force ball around its brute-force FPS seed, in (distance, index) order,
    and each partner the brute-force crop nearest. Returns (crops, members
    whose partner came from the search rather than the global nearest)."""
    n = len(pts)
    draws = [(p, seed + k) for k, p in enumerate(p_values)]
    index = SpatialIndex(pts)
    sizes, members, partners = metrics.uniformity_crops(index, draws, seed_count)
    m = min(seed_count, n)
    assert sizes.shape == (len(draws), m) and sizes.sum() == len(members) == len(partners)
    cuts = np.cumsum(sizes)[:-1]
    crops, picks = np.split(members, cuts), np.split(partners, cuts)
    global_nn = index.nearest_others() if n >= 2 else None
    oracle = {}  # crops that hold the same points share one dense oracle pass
    searched = 0
    for k, p in enumerate(p_values):
        start = int(np.random.default_rng(seed + k).integers(n))
        for j, s in enumerate(helpers.brute_fps(pts, m, start)):
            crop, pick = crops[k * m + j], picks[k * m + j]
            assert np.array_equal(crop, helpers.brute_ball(pts, pts[s], math.sqrt(p)))
            if len(crop) < 2:
                assert np.array_equal(pick, np.full(len(crop), -1))
                continue
            cols = np.sort(crop)
            if cols.tobytes() not in oracle:
                oracle[cols.tobytes()] = helpers.brute_crop_nearest(pts, cols)
            assert np.array_equal(pick, oracle[cols.tobytes()][np.searchsorted(cols, crop)])
            searched += int((~np.isin(global_nn[crop], crop)).sum())
    return sizes.size, searched


def _two_points(gap):
    return np.array([[0.1, 0.2, 0.3], [0.1 + gap, 0.2, 0.3]])


class TestUniformityCrops:
    @pytest.mark.parametrize("case", [
        "lattice", "near_ties", "duplicates", "collapsed_64", "collapsed_256", "spread",
    ])
    def test_crops_and_partners_match_oracle(self, case):
        rng = np.random.default_rng(21)
        pts, p_values = {
            "lattice": lambda: (helpers.cubic_lattice(10, 0.025), LATTICE_P_VALUES),
            "near_ties": lambda: (helpers.near_tie_cloud(rng), (0.004, 0.005, 0.01)),
            "duplicates": lambda: (helpers.with_duplicates(rng), (0.004, 0.01, 0.05)),
            "collapsed_64": lambda: (helpers.collapsed_generator_output(64), metrics.P_VALUES),
            "collapsed_256": lambda: (helpers.collapsed_generator_output(256), metrics.P_VALUES),
            "spread": lambda: (rng.uniform(-1.0, 1.0, size=(600, 3)), (0.01, 0.03, 0.05)),
        }[case]()
        crops, searched = _assert_kernel_matches_oracle(pts, p_values, 50, 3)
        assert crops == len(p_values) * 50
        if case in ("lattice", "near_ties", "spread"):
            assert searched > 0  # the pair search ran, not only the global nearest

    @pytest.mark.parametrize("pts, seed_count", [
        (np.array([[0.1, 0.2, 0.3]]), 50),  # n = 1
        (_two_points(0.05), 50),  # n = 2, within every crop radius
        (_two_points(0.5), 50),  # n = 2, apart: singleton crops
        (np.random.default_rng(5).normal(size=(7, 3)) * 0.05, 50),  # seed_count > n
    ])
    def test_tiny_clouds_match_oracle(self, pts, seed_count):
        crops, _ = _assert_kernel_matches_oracle(pts, metrics.P_VALUES, seed_count, 8)
        assert crops == len(metrics.P_VALUES) * len(pts)

    @pytest.mark.parametrize("per_point, pairs", [(0, 1), (0.02, 7), (1, 1000), (100, 1 << 16)])
    def test_runs_of_any_size_give_the_same_crops(self, monkeypatch, per_point, pairs):
        # 0 and 1 pair: one crop centre, or one searching member, per run;
        # the others: runs of several, of uneven sizes, up to all at once
        pts = np.random.default_rng(6).uniform(-0.3, 0.3, size=(300, 3))
        index = SpatialIndex(pts)
        draws = [(0.01, 1), (0.05, 2)]
        want = metrics.uniformity_crops(index, draws, 20)
        monkeypatch.setattr(metrics, "_CROP_PAIRS_PER_POINT", per_point)
        monkeypatch.setattr(metrics, "_RUN_CHUNK", pairs)
        got = metrics.uniformity_crops(index, draws, 20)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        _assert_kernel_matches_oracle(pts, (0.01, 0.05), 20, 1)

    def test_subsets_wrapper_is_one_draw(self, rng):
        pts = rng.uniform(-0.5, 0.5, size=(200, 3))
        sizes, members, partners = metrics.uniformity_crops(SpatialIndex(pts), [(0.02, 4)], 30)
        r_d, n_hat, subsets = metrics.uniformity_subsets(pts, 0.02, 30, 4)
        assert r_d == math.sqrt(0.02) and n_hat == 200 * 0.02
        assert sizes.shape == (1, 30) and [len(m) for m, _, _ in subsets] == sizes[0].tolist()
        assert np.array_equal(np.concatenate([m for m, _, _ in subsets]), members)
        for m, nn, d_hat in subsets:
            if len(m) < 2:
                assert nn is None and d_hat == 0.0
            else:
                assert d_hat == metrics.hexagonal_neighbor_spacing(r_d, len(m))

    def test_draws_share_one_fps_loop(self, monkeypatch):
        pts = helpers.collapsed_generator_output(64)
        calls = []
        fps = metrics.farthest_point_sampling

        def counting(points, k, seed_index=0):
            calls.append(np.shape(seed_index))
            return fps(points, k, seed_index)

        monkeypatch.setattr(metrics, "farthest_point_sampling", counting)
        draws = [(p, k) for k, p in enumerate(metrics.P_VALUES)]
        metrics.uniformity_crops(SpatialIndex(pts), draws, 50)
        assert calls == [(5,)]


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
        for v_pd, v_rnd in zip(rep_pd, rep_rnd, strict=True):
            assert v_pd < v_rnd

    def test_values_are_finite_one_per_p(self, icosphere_mesh, rng):
        pts = area_weighted_sample(icosphere_mesh, 200, rng).positions
        rep = metrics.uniformity_report_mesh(
            pts, icosphere_mesh, seed_count=20, rng=0, pool_size=2000
        )
        assert isinstance(rep, tuple) and len(rep) == len(metrics.P_VALUES) == 5
        assert all(np.isfinite(v) for v in rep)

    def test_collapsed_cloud_cost_bound(self, icosphere_mesh):
        # 8192 points in eight collapsed clumps, as an untrained N=256
        # generator leaves them after upsampling: every clump falls whole
        # into the crops around it. About 0.45 s on 2 cores; a dense
        # distance matrix per crop took 9.4 s.
        out = helpers.collapsed_generator_output(256)
        centers = area_weighted_sample(icosphere_mesh, 8, np.random.default_rng(0)).positions
        cloud = np.vstack([c + 0.25 * out for c in centers])
        start = time.perf_counter()
        report = metrics.uniformity_report_mesh(cloud, icosphere_mesh, seed_count=1000, rng=0,
                                                pool_size=20000)
        assert time.perf_counter() - start < 4.5
        assert all(v > 0 for v in report)

    def test_collapsed_cloud_peak_memory(self, icosphere_mesh):
        # the clumps of test_collapsed_cloud_cost_bound; the graph distances
        # of a block of 64 seeds to the 20 000-point pool (9.8 MiB) set the
        # peak. tracemalloc (numpy reports to it) saw 14.8 MiB, and 17.2 MiB
        # with a pool graph that stored each mutual pair twice per row; with
        # blocks of 128 seeds, the previous block still held while the next
        # was computed, it saw 45.8 MiB
        out = helpers.collapsed_generator_output(256)
        centers = area_weighted_sample(icosphere_mesh, 8, np.random.default_rng(0)).positions
        cloud = np.vstack([c + 0.25 * out for c in centers])
        tracemalloc.start()
        try:
            metrics.uniformity_report_mesh(cloud, icosphere_mesh, seed_count=1000, rng=0,
                                           pool_size=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20

    def test_values_do_not_depend_on_the_seed_block(self, icosphere_mesh, monkeypatch):
        # each seed's Dijkstra run is its own and the totals add up seed by
        # seed, so any block size gives the same bits: one seed at a time
        # and blocks of 16, the default and 128 seeds
        out = helpers.collapsed_generator_output(256)
        centers = area_weighted_sample(icosphere_mesh, 8, np.random.default_rng(0)).positions
        cloud = np.vstack([c + 0.25 * out for c in centers])
        reports = set()
        for block in (1, 16, metrics._REPORT_SEED_CHUNK, 128):
            monkeypatch.setattr(metrics, "_REPORT_SEED_CHUNK", block)
            reports.add(metrics.uniformity_report_mesh(cloud, icosphere_mesh, seed_count=1000,
                                                       rng=0, pool_size=20000))
        assert len(reports) == 1

    def test_attaches_through_the_grower_tree(self, icosphere_mesh, rng, monkeypatch):
        # PatchGrower's SpatialIndex already holds a kd-tree over the pool
        pts = area_weighted_sample(icosphere_mesh, 300, rng).positions
        want = metrics.uniformity_report_mesh(pts, icosphere_mesh, seed_count=20, rng=0,
                                              pool_size=2000)

        def refuse(*args, **kwargs):
            raise AssertionError("a second kd-tree over the pool")

        monkeypatch.setattr(metrics, "cKDTree", refuse)
        got = metrics.uniformity_report_mesh(pts, icosphere_mesh, seed_count=20, rng=0,
                                             pool_size=2000)
        assert got == want

    @pytest.mark.parametrize("seed_count", [0, -3])
    def test_seed_count_below_one_rejected(self, icosphere_mesh, rng, seed_count):
        pts = area_weighted_sample(icosphere_mesh, 50, rng).positions
        with pytest.raises(ValueError, match="seed_count must be >= 1"):
            metrics.uniformity_report_mesh(pts, icosphere_mesh, seed_count=seed_count, rng=0,
                                           pool_size=500)


class TestReportCsv:
    def test_header_and_roundtrip(self, tmp_path):
        uniformity = tuple(float(i) / 7 for i in range(len(metrics.P_VALUES)))
        path = tmp_path / "report.csv"
        metrics.write_report_csv(path, [("modelA", 0.001234, 0.01, 0.0005, uniformity)])
        lines = path.read_text().splitlines()
        assert lines[0] == metrics.REPORT_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "modelA"
        assert float(fields[1]) == 0.001234  # full precision survives
        assert tuple(float(f) for f in fields[4:]) == uniformity


class TestPointToSurfaceStats:
    def test_tetra_known_points(self, tetra_mesh):
        pts = np.array([[0.0, 0, 0], [0.0, 0, 0]])
        mean, peak = metrics.point_to_surface_stats(pts, tetra_mesh)
        assert mean == pytest.approx(1 / 3)
        assert peak == pytest.approx(1 / 3)
