"""Spatial queries, farthest point sampling, normalization, XYZ I/O."""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import helpers
from pcup import geometry, metrics
from pcup.geometry import (
    SpatialIndex,
    as_points,
    denormalize,
    farthest_point_sampling,
    normalize_unit_sphere,
    padded_ball_runs,
    pairwise_distances,
    read_xyz,
    write_xyz,
)
from pcup.mesh import PatchGrower, SurfaceSamples, area_weighted_sample


class TestSpatialIndex:
    def test_singleton_every_query_returns_it(self):
        idx = SpatialIndex([[1.0, 2.0, 3.0]])
        i, d = idx.knn([9.0, 9.0, 9.0], 1)
        assert (int(i[0]), float(d[0])) == (0, pytest.approx(np.sqrt(64 + 49 + 36)))
        i, d = idx.knn([0.0, 0.0, 0.0], 1)
        assert list(i) == [0]
        assert list(idx.ball_query([1.0, 2.0, 3.0], 0.5)) == [0]

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            SpatialIndex(np.zeros((0, 3)))

    def test_knn_matches_brute_force(self, rng):
        pts = rng.normal(size=(100, 3))
        idx = SpatialIndex(pts)
        for _ in range(50):
            q = rng.normal(size=3) * 1.5
            k = int(rng.integers(1, 20))
            got, dist = idx.knn(q, k)
            want = helpers.brute_knn(pts, q, k)
            assert np.array_equal(got, want)
            assert np.allclose(dist, np.linalg.norm(pts[want] - q, axis=1))

    def test_ball_matches_brute_force(self, rng):
        pts = rng.normal(size=(100, 3))
        idx = SpatialIndex(pts)
        for _ in range(50):
            q = rng.normal(size=3)
            r = float(rng.uniform(0.05, 2.0))
            assert np.array_equal(idx.ball_query(q, r), helpers.brute_ball(pts, q, r))

    def test_ball_is_closed_and_ties_break_by_index(self):
        # three points exactly on the sphere of radius 1, plus duplicates
        pts = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [2, 0, 0]], dtype=float)
        idx = SpatialIndex(pts)
        assert list(idx.ball_query([0.0, 0.0, 0.0], 1.0)) == [0, 1, 2, 3]
        got, _ = idx.knn([0.0, 0.0, 0.0], 4)
        assert list(got) == [0, 1, 2, 3]

    def test_knn_k_out_of_range(self):
        idx = SpatialIndex(np.eye(3))
        with pytest.raises(ValueError, match="out of range"):
            idx.knn([0.0, 0.0, 0.0], 4)
        with pytest.raises(ValueError, match="out of range"):
            idx.knn([0.0, 0.0, 0.0], 0)

    def test_grid_equidistant_ties(self):
        # queries at cell centers of a lattice: 8 corners all equidistant
        xs = np.arange(3, dtype=float)
        pts = np.array([[x, y, z] for x in xs for y in xs for z in xs])
        idx = SpatialIndex(pts)
        got, dist = idx.knn([0.5, 0.5, 0.5], 8)
        want = helpers.brute_knn(pts, np.array([0.5, 0.5, 0.5]), 8)
        assert np.array_equal(got, want)
        assert np.allclose(dist, dist[0])  # all 8 genuinely tied

    def test_batched_knn_matches_brute_force_on_lattice(self, rng):
        # integer lattice points and cell centres: squared distances are
        # exact, so k-set boundaries cut through exact ties, which only the
        # (distance, index) rule settles
        pts = helpers.cubic_lattice(5, 1.0)
        idx = SpatialIndex(pts)
        queries = np.vstack([pts[::7], pts[::11] + 0.5, rng.normal(size=(10, 3)) * 3.0])
        for k in (1, 6, 19, len(pts)):
            got, dist = idx.knn(queries, k)
            assert got.shape == dist.shape == (len(queries), k)
            for q, row, drow in zip(queries, got, dist):
                want = helpers.brute_knn(pts, q, k)
                assert np.array_equal(row, want)
                assert np.allclose(drow, np.linalg.norm(pts[want] - q, axis=1))
                one, one_dist = idx.knn(q, k)
                assert np.array_equal(one, row) and np.array_equal(one_dist, drow)

    def test_tie_rows_across_ball_runs(self, monkeypatch):
        # with a run of a few dozen candidate pairs, the tie rows' balls
        # come in many runs, so a row's first k must be cut from the right
        # place of every run
        monkeypatch.setattr(geometry, "_RUN_CHUNK", 40)
        runs = []
        balls = SpatialIndex.balls

        def counted(self, centres, radii, chunk):
            assert chunk == 40
            for run in balls(self, centres, radii, chunk):
                runs.append(run[:2])
                yield run

        monkeypatch.setattr(SpatialIndex, "balls", counted)
        pts = helpers.cubic_lattice(5, 1.0)
        idx = SpatialIndex(pts)
        queries = np.vstack([pts[::3], pts[::4] + 0.5])
        for k in (1, 6, 19):
            runs.clear()
            got, dist = idx.knn(queries, k)
            assert len(runs) > 1
            for q, row, drow in zip(queries, got, dist):
                want = helpers.brute_knn(pts, q, k)
                assert np.array_equal(row, want)
                assert drow.tobytes() == geometry._row_norms(pts[want] - q).tobytes()


class TestNearestOthers:
    @staticmethod
    def _check(pts):
        want = helpers.brute_crop_nearest(pts, np.arange(len(pts)))
        assert np.array_equal(SpatialIndex(pts).nearest_others(), want)

    def test_random_cloud(self, rng):
        self._check(rng.normal(size=(500, 3)))

    def test_collapsed_generator_output(self):
        self._check(helpers.collapsed_generator_output(64))

    def test_lattice_ties_break_by_index(self):
        pts = helpers.cubic_lattice(6, 0.1)
        self._check(pts)
        # a corner's three lattice neighbors tie; the lowest index wins
        assert SpatialIndex(pts).nearest_others()[0] == 1

    def test_duplicates_pick_the_lowest_other_copy(self, rng):
        pts = helpers.with_duplicates(rng)
        self._check(pts)
        nearest = SpatialIndex(pts).nearest_others()
        assert (pts[nearest] == pts).all()
        assert (nearest != np.arange(len(pts))).all()

    def test_ulp_near_ties(self, rng):
        self._check(helpers.near_tie_cloud(rng))

    def test_hub_prefers_the_nearer_point_over_a_lower_index(self):
        d = 0.1
        pts = np.array([[0.0, 0, 0], [np.nextafter(d, 1.0), 0, 0], [0, d, 0], [0, 0, d]])
        assert SpatialIndex(pts).nearest_others()[0] == 2

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            SpatialIndex([[0.0, 0.0, 0.0]]).nearest_others()

    def test_two_points_pick_each_other(self):
        assert list(SpatialIndex([[0.0, 0, 0], [3.0, 4, 0]]).nearest_others()) == [1, 0]


class TestBalls:
    @staticmethod
    def _check(pts, centres, radii):
        """Runs of 1 candidate and one run of every candidate: each ball
        equals the oracle's, and the runs cover the centres in order."""
        index = SpatialIndex(pts)
        candidates = index.tree.query_ball_point(centres, geometry._padded(radii),
                                                 return_length=True).sum()
        for chunk in (1, candidates):
            seen = 0
            for lo, hi, sizes, members in index.balls(centres, radii, chunk):
                assert lo == seen and hi > lo
                assert len(sizes) == hi - lo and sizes.sum() == len(members)
                for i, ball in zip(range(lo, hi), np.split(members, np.cumsum(sizes)[:-1])):
                    assert np.array_equal(ball, helpers.brute_ball(pts, centres[i], radii[i]))
                seen = hi
            assert seen == len(centres)
        assert next(index.balls(centres, radii, candidates))[:2] == (0, len(centres))

    def test_random_cloud_per_centre_radii(self, rng):
        pts = rng.normal(size=(300, 3))
        centres = rng.normal(size=(40, 3))
        self._check(pts, centres, rng.uniform(0.05, 1.5, size=len(centres)))

    def test_lattice_ties_on_the_boundary(self, rng):
        # integer coordinates: neighbours at 1, sqrt 2 and sqrt 3 lie exactly
        # on those radii, and a cell centre has 8 equidistant corners
        pts = helpers.cubic_lattice(5, 1.0)
        centres = np.vstack([pts[::9], pts[::13] + 0.5])
        radii = rng.choice([1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0], size=len(centres))
        self._check(pts, centres, radii)

    def test_duplicates(self, rng):
        pts = helpers.with_duplicates(rng)
        self._check(pts, pts[::5], rng.uniform(0.01, 0.3, size=len(pts[::5])))

    def test_ulp_near_ties(self, rng):
        # each radius is the exact distance to one of the centre's six
        # nearest points, which the others tie or miss by an ulp or so
        pts = helpers.near_tie_cloud(rng)
        centres = pts[::3]
        dist = SpatialIndex(pts).knn(centres, 6)[1]
        self._check(pts, centres, dist[np.arange(len(centres)), rng.integers(1, 6, len(centres))])

    def test_empty_ball(self, rng):
        pts = rng.normal(size=(50, 3))
        centres = np.array([pts[0], [100.0, 100.0, 100.0], pts[1]])
        self._check(pts, centres, np.array([0.5, 0.5, 0.5]))
        runs = SpatialIndex(pts).balls(centres, np.full(3, 0.5), 1)
        assert np.concatenate([sizes for _, _, sizes, _ in runs])[1] == 0


class TestPaddedBallRuns:
    def test_runs_cover_every_query_in_order(self, rng):
        pts = rng.normal(size=(300, 3))
        tree = cKDTree(pts)
        radius = rng.uniform(0.1, 0.6, size=len(pts))
        seen = 0
        for lo, hi, counts, cand in padded_ball_runs(tree, pts, radius, chunk=50):
            assert lo == seen and hi > lo
            assert counts.sum() == len(cand)
            assert hi - lo == 1 or counts.sum() <= 50
            starts = np.cumsum(counts) - counts
            for i in range(lo, hi):
                got = cand[starts[i - lo]:starts[i - lo] + counts[i - lo]]
                want = helpers.brute_ball(pts, pts[i], radius[i])
                assert set(want) <= set(got)
            seen = hi
        assert seen == len(pts)

    @pytest.mark.parametrize("chunk", [1, 7, 50, 10**6])
    def test_run_bounds_match_a_greedy_cut(self, rng, chunk):
        # a run takes its first entry, then each next one while its sum
        # stays within chunk
        counts = rng.integers(0, 20, size=200)
        want, lo = [], 0
        while lo < len(counts):
            hi, total = lo + 1, counts[lo]
            while hi < len(counts) and total + counts[hi] <= chunk:
                total += counts[hi]
                hi += 1
            want.append((lo, hi))
            lo = hi
        assert list(geometry._runs(counts, chunk)) == want


def _every_batched_query(points, mesh):
    """The answers of each batched kd-tree query in the package on
    `points`, as bytes: knn, balls, nearest_others, the PatchGrower
    graph, distances_to_surface, chamfer and Hausdorff distances against
    a shifted subset, and the geodesic uniformity report on `mesh`."""
    index = SpatialIndex(points)
    idx, dist = index.knn(points, 8)
    runs = list(index.balls(points, dist[:, -1], 1 << 10))
    graph = PatchGrower(SurfaceSamples(points))._graph
    other = points[::3] + 1e-3
    uniformity = metrics.uniformity_report_mesh(points, mesh, seed_count=20, rng=0,
                                                 pool_size=2000)
    arrays = [idx, dist, index.nearest_others(), graph.data, graph.indices, graph.indptr,
              mesh.distances_to_surface(points),
              np.array([metrics.chamfer_distance(points, other),
                        metrics.hausdorff_distance(points, other)]),
              np.array(uniformity)]
    arrays += [a for _, _, sizes, members in runs for a in (sizes, members)]
    return [a.tobytes() for a in arrays]


class TestQueryWorkers:
    @pytest.mark.parametrize("cpus", [1, 4])
    def test_one_thread_below_the_gate_every_cpu_from_it(self, monkeypatch, cpus):
        monkeypatch.setattr(geometry.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        least = geometry._PARALLEL_MIN
        assert [geometry._workers(m) for m in (1, least - 1, least, 25 * least)] \
            == [1, 1, cpus, cpus]

    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(geometry.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(geometry.os, "cpu_count", lambda: 3)
        least = geometry._PARALLEL_MIN
        assert [geometry._workers(m) for m in (least - 1, least)] == [1, 3]

    @pytest.mark.parametrize("cloud", ["lattice", "near_ties", "duplicates", "collapsed",
                                       "icosphere_pool"])
    def test_all_core_queries_give_the_same_bytes(self, monkeypatch, rng, icosphere_mesh,
                                                  cloud):
        points = {
            "lattice": lambda: helpers.cubic_lattice(8, 0.25),
            "near_ties": lambda: helpers.near_tie_cloud(rng),
            "duplicates": lambda: helpers.with_duplicates(rng),
            "collapsed": lambda: helpers.collapsed_generator_output(64),
            "icosphere_pool": lambda: area_weighted_sample(icosphere_mesh, 20000, rng).positions,
        }[cloud]()
        monkeypatch.setattr(geometry, "_PARALLEL_MIN", 1 << 62)
        one = _every_batched_query(points, icosphere_mesh)
        # every query on four threads, whatever this machine has
        monkeypatch.setattr(geometry, "_PARALLEL_MIN", 1)
        monkeypatch.setattr(geometry.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        assert geometry._workers(1) == 4
        assert _every_batched_query(points, icosphere_mesh) == one


class TestFarthestPointSampling:
    def test_collinear_hand_case(self):
        pts = np.array([[0, 0, 0], [0.4, 0, 0], [0.9, 0, 0], [1.0, 0, 0]], dtype=float)
        assert list(farthest_point_sampling(pts, 3, 0)) == [0, 3, 1]

    def test_matches_reference_greedy(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(40, 3))
            k = int(rng.integers(1, 40))
            seed = int(rng.integers(40))
            got = farthest_point_sampling(pts, k, seed)
            assert np.array_equal(got, helpers.brute_fps(pts, k, seed))

    def test_duplicate_points_never_selected_twice(self):
        pts = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0], [1, 0, 0]], dtype=float)
        sel = farthest_point_sampling(pts, 4, 0)
        assert sorted(sel) == [0, 1, 2, 3]

    def test_dispersion_at_least_half_of_optimal(self, rng):
        # exhaustively check the max-min guarantee on tiny instances
        from itertools import combinations

        for trial in range(10):
            pts = rng.normal(size=(9, 3))
            k = 4
            d = pairwise_distances(pts, pts)

            def min_gap(subset):
                return min(d[i][j] for i, j in combinations(subset, 2))

            best = max(min_gap(c) for c in combinations(range(9), k))
            for seed in range(9):
                greedy = min_gap(tuple(farthest_point_sampling(pts, k, seed)))
                assert greedy >= 0.5 * best - 1e-12

    def test_selection_covers_whole_cloud(self, rng):
        pts = rng.normal(size=(30, 3))
        sel = farthest_point_sampling(pts, 30, 5)
        assert sorted(sel) == list(range(30))

    def test_sqrt_merged_ties_break_by_index(self, rng):
        # |p2|^2 = a^2 + d^2 is one ulp above |p1|^2 = a^2, but both round
        # to the same sqrt: the distances tie and index 1 must win, where
        # a squared-distance argmax would pick index 2
        cases = 0
        for a in rng.uniform(1.0, 2.0, size=300):
            for e in range(26, 34):
                d = 2.0 ** -e
                near, far = a * a, a * a + d * d
                if far != math.nextafter(near, math.inf) or math.sqrt(far) != math.sqrt(near):
                    continue
                cases += 1
                pts = np.array([[0.0, 0.0, 0.0], [a, 0.0, 0.0], [a, d, 0.0]])
                got = farthest_point_sampling(pts, 3, 0)
                assert np.array_equal(got, helpers.brute_fps(pts, 3, 0))
                assert list(got) == [0, 1, 2]
        assert cases > 50

    def test_large_cloud_matches_reference_greedy(self, rng):
        pts = rng.normal(size=(6144, 3))
        got = farthest_point_sampling(pts, 2048, 4321)
        assert np.array_equal(got, helpers.brute_fps(pts, 2048, 4321))

    # inputs just below and at or above the size from which picks update
    # only the points a kd-tree ball query returns
    @staticmethod
    def _pruning_input(rng, kind, n):
        """(points, k) of about n points."""
        if kind == "clustered":  # like an untrained generator's merged patches
            centers = rng.normal(size=(24, 3))
            return centers[np.arange(n) % 24] + rng.normal(size=(n, 3)) * 1e-2, n // 3
        if kind == "lattice":
            return helpers.cubic_lattice(math.ceil((n + 1) ** (1 / 3)), 0.1)[:n], n // 2
        if kind == "near_ties":
            return helpers.near_tie_cloud(rng, clusters=n // 7 + 1)[:n], n // 3
        return helpers.with_duplicates(rng, n=n // 4, copies=4), n // 4 * 4

    @pytest.mark.parametrize("seed_index", [0, "middle"])
    @pytest.mark.parametrize("kind", ["clustered", "lattice", "near_ties", "duplicates"])
    @pytest.mark.parametrize("offset", [-4, 4])
    def test_either_side_of_pruning_size_matches_reference(
            self, rng, monkeypatch, kind, offset, seed_index):
        n = geometry._FPS_PRUNE_MIN + offset
        pts, k = self._pruning_input(rng, kind, n)
        seed = 0 if seed_index == 0 else len(pts) // 2 + 1
        trees = []
        monkeypatch.setattr(geometry, "cKDTree", lambda p: trees.append(p) or cKDTree(p))
        got = farthest_point_sampling(pts, k, seed)
        assert len(trees) == (len(pts) >= geometry._FPS_PRUNE_MIN)
        assert np.array_equal(got, helpers.brute_fps(pts, k, seed))

    @pytest.mark.parametrize("kind", ["clustered", "lattice", "near_ties", "duplicates"])
    @pytest.mark.parametrize("offset", [-4, 4])
    def test_several_starts_match_single_start_calls(self, rng, monkeypatch, kind, offset):
        # several starts on one cloud: a read-only broadcast stack of it,
        # one start per row, in one dense loop at any size
        n = geometry._FPS_PRUNE_MIN + offset
        pts, _ = self._pruning_input(rng, kind, n)
        n = len(pts)
        starts = [0, 17, n // 2 + 1, n - 1, 17]
        trees = []
        monkeypatch.setattr(geometry, "cKDTree", lambda p: trees.append(p) or cKDTree(p))
        got = farthest_point_sampling(np.broadcast_to(pts, (5, n, 3)), 40, starts)
        assert trees == []
        assert got.shape == (5, 40)
        for row, s in zip(got, starts):
            assert np.array_equal(row, farthest_point_sampling(pts, 40, s))
            assert np.array_equal(row, helpers.brute_fps(pts, 40, s))

    def test_start_sequence_shapes_and_range(self, rng):
        pts = rng.normal(size=(30, 3))
        assert farthest_point_sampling(pts, 30, 5).shape == (30,)
        assert np.array_equal(farthest_point_sampling(pts[None], 30, [5])[0],
                              farthest_point_sampling(pts, 30, 5))
        assert farthest_point_sampling(np.zeros((0, 30, 3)), 4, []).shape == (0, 4)
        with pytest.raises(ValueError, match="seed_index=30 out of range"):
            farthest_point_sampling(np.broadcast_to(pts, (2, 30, 3)), 4, [0, 30])

    @staticmethod
    def _collapsed_stack(n):
        """Four clouds of n points, each the collapsed output of untrained
        generators (1024 points apiece) stacked end to end."""
        outputs = [helpers.collapsed_generator_output(256, seed) for seed in range(5)]
        return np.stack([np.vstack(outputs[i:] + outputs[:i])[:n] for i in range(4)])

    @pytest.mark.parametrize("kind", ["lattice", "near_ties", "collapsed"])
    @pytest.mark.parametrize("offset", [-4, 4])
    def test_stack_rows_match_single_cloud_calls(self, rng, monkeypatch, kind, offset):
        # one loop over a (clouds, n) block at any size, with one start
        # for every cloud or one start per cloud
        n = geometry._FPS_PRUNE_MIN + offset
        if kind == "collapsed":
            stack, k = self._collapsed_stack(n), n // 3
        else:
            pts, k = self._pruning_input(rng, kind, n)
            # the cloud itself, a shuffled copy, a shifted copy, and another draw
            stack = np.stack([pts, pts[rng.permutation(n)], pts + 0.25,
                              self._pruning_input(rng, kind, n)[0]])
        trees = []
        monkeypatch.setattr(geometry, "cKDTree", lambda p: trees.append(p) or cKDTree(p))
        starts = [5, 0, n - 1, n // 2]
        got, each = (farthest_point_sampling(stack, k, s) for s in (5, starts))
        assert trees == []
        assert got.shape == each.shape == (len(stack), k)
        for row, each_row, cloud, s in zip(got, each, stack, starts):
            assert np.array_equal(row, farthest_point_sampling(cloud, k, 5))
            assert np.array_equal(each_row, farthest_point_sampling(cloud, k, s))

    def test_stack_errors_name_the_problem(self, rng):
        stack = rng.normal(size=(3, 20, 3))
        # a wrong-shape seed_index, on a stack and on a cloud
        for points, seeds in [(stack, [0, 1]), (stack, [[0, 1, 2]]), (stack[0], [0]),
                              (stack[0], [[0]])]:
            message = (r"seed_index: expected one index, or shape \(P,\) for a \(P, n, 3\) "
                       + re.escape(f"stack; got shape {np.shape(seeds)} "
                                   f"for points of shape {points.shape}"))
            with pytest.raises(ValueError, match=message):
                farthest_point_sampling(points, 4, seeds)
        for shape in [(3, 20, 2), (2, 3, 20, 3), (20,)]:
            with pytest.raises(ValueError, match=r"\(n, 3\) cloud or a \(P, n, 3\) stack"):
                farthest_point_sampling(np.zeros(shape), 4, 0)
        with pytest.raises(ValueError, match="k=21 out of range for 20 points"):
            farthest_point_sampling(stack, 21, 0)
        with pytest.raises(ValueError, match="seed_index=20 out of range for 20 points"):
            farthest_point_sampling(stack, 4, 20)
        stack[2, 7, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            farthest_point_sampling(stack, 4, 0)

    def test_pruned_trim_cost_bound(self, rng):
        # 24 576 -> 8192 is upsample's trim at the paper's sizes; it took
        # about 0.3 s on 2 cores, against about 1 s for the dense loop
        centers = rng.normal(size=(24, 3))
        pts = centers[np.arange(24576) % 24] + rng.normal(size=(24576, 3)) * 1e-2
        start = time.perf_counter()
        farthest_point_sampling(pts, 8192, 0)
        assert time.perf_counter() - start < 3.0

    def test_exact_duplicates_all_selected_in_reference_order(self, rng):
        base = rng.normal(size=(25, 3))
        pts = base[rng.integers(0, 25, size=90)]
        for seed in (0, 17, 89):
            got = farthest_point_sampling(pts, 90, seed)
            assert np.array_equal(got, helpers.brute_fps(pts, 90, seed))


def _broadcast_distances(a, b):
    """The whole (len(a), len(b), 3) broadcast in one temporary."""
    diff = a[:, None, :] - b[None, :, :]
    return geometry._row_norms(diff.reshape(-1, 3)).reshape(len(a), len(b))


class TestPairwiseDistances:
    @pytest.mark.parametrize("rows", [1, 32, 64, 128])
    def test_row_blocks_give_the_broadcast_bits(self, rng, monkeypatch, rows):
        monkeypatch.setattr(geometry, "_PAIRWISE_ROWS", rows)
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), axis=-1).reshape(-1, 3)
        base = rng.normal(size=(30, 3))
        clouds = {
            "random": (rng.normal(size=(256, 3)), rng.normal(size=(97, 3))),
            "tied": (grid, grid[::-1] + 0.5),  # many equal distances
            "duplicate": (base[rng.integers(0, 30, 200)], base[rng.integers(0, 30, 150)]),
        }
        for name, (a, b) in clouds.items():
            got = pairwise_distances(a, b)
            assert got.tobytes() == _broadcast_distances(a, b).tobytes(), name
        assert pairwise_distances(np.zeros((0, 3)), base).shape == (0, 30)
        assert pairwise_distances(base, np.zeros((0, 3))).shape == (30, 0)

    def test_large_matrix_bits_and_peak_memory(self, rng):
        # the broadcast's (1024, 1024, 3) temporary alone is 24 MiB; in
        # blocks of 64 rows the result's 8 MiB sets the peak, about 11 MiB
        a, b = rng.normal(size=(1024, 3)), rng.normal(size=(1024, 3))
        tracemalloc.start()
        try:
            got = pairwise_distances(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20
        assert got.tobytes() == _broadcast_distances(a, b).tobytes()


class TestNormalization:
    def test_two_point_hand_case(self):
        normed, centroid, scale = normalize_unit_sphere([[0, 0, 0], [2, 0, 0]])
        assert np.allclose(normed, [[-1, 0, 0], [1, 0, 0]])
        assert np.allclose(centroid, [1, 0, 0])
        assert scale == 1.0

    def test_roundtrip(self, rng):
        pts = rng.normal(size=(50, 3)) * 7.0 + 100.0
        normed, centroid, scale = normalize_unit_sphere(pts)
        assert np.linalg.norm(normed, axis=1).max() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(denormalize(normed, centroid, scale) - pts).max() < 1e-9

    def test_identical_points_get_scale_one(self):
        normed, centroid, scale = normalize_unit_sphere(np.full((4, 3), 2.5))
        assert scale == 1.0
        assert np.allclose(normed, 0.0)
        assert np.allclose(centroid, 2.5)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 40), st.integers(0, 2**31 - 1))
    def test_output_always_inside_unit_ball(self, n, seed):
        pts = np.random.default_rng(seed).normal(size=(n, 3)) * 10.0
        normed, _, _ = normalize_unit_sphere(pts)
        assert np.linalg.norm(normed, axis=1).max() <= 1.0 + 1e-12


class TestXyzIO:
    def test_roundtrip_six_significant_digits(self, tmp_path, rng):
        pts = rng.normal(size=(64, 3)) * 3.0
        path = tmp_path / "cloud.xyz"
        write_xyz(path, pts)
        back = read_xyz(path)
        assert back.shape == pts.shape
        assert np.abs(back - pts).max() < 1e-5 * np.abs(pts).max()

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# header\n\n1 2 3\n   \n# more\n4 5 6\n")
        assert np.array_equal(read_xyz(path), [[1, 2, 3], [4, 5, 6]])

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(ValueError, match=r":2: expected 3 values"):
            read_xyz(path)

    def test_malformed_number_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n4 five 6\n")
        with pytest.raises(ValueError, match=r":2: malformed number"):
            read_xyz(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 inf\n")
        with pytest.raises(ValueError, match=r":1: non-finite"):
            read_xyz(path)

    def test_bytes_match_row_by_row_writer(self, tmp_path, rng):
        pts = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-300, 300, size=(500, 3))
        pts[:2] = [[-0.0, 1e-300, 1e300], [0.0, -1e-300, -1e300]]
        path = tmp_path / "c.xyz"
        write_xyz(path, pts)
        want = "".join(f"{x:.6g} {y:.6g} {z:.6g}\n" for x, y, z in pts)
        assert path.read_bytes() == want.encode("ascii")
        assert path.read_bytes().startswith(b"-0 1e-300 1e+300\n0 -1e-300 -1e+300\n")

    def test_first_bad_line_is_reported(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\r\n# 1 2\n4 5 nan\n4 5\n")
        with pytest.raises(ValueError, match=r":3: non-finite"):
            read_xyz(path)
        path.write_text("1 2 3\n\n4 5 6 7\n1 x 3\n")
        with pytest.raises(ValueError, match=r":3: expected 3 values per line, got 4"):
            read_xyz(path)

    def test_line_endings_and_whitespace(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_bytes(b"  1\t2 3 \r\n\r\n\t# c\r4 5 6")
        assert np.array_equal(read_xyz(path), [[1, 2, 3], [4, 5, 6]])

    def test_non_ascii_byte_names_the_file(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_bytes(b"1 2 3\n\xff 5 6\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: binary xyz files"):
            read_xyz(path)

    def test_empty_file_gives_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("# nothing\n")
        assert read_xyz(path).shape == (0, 3)


class TestValidation:
    def test_as_points_shape_error(self):
        with pytest.raises(ValueError, match="expected an \\(n, 3\\)"):
            as_points(np.zeros((3, 2)))

    def test_as_points_nan_error(self):
        bad = np.zeros((2, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            as_points(bad)
