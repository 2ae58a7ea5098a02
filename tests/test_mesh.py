"""Mesh loading, surface sampling, Poisson-disk elimination, geodesic
patches, and exact point-to-surface distances."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

import helpers
from pcup import mesh as mesh_module
from pcup.geometry import pairwise_distances
from pcup.mesh import (
    PatchGrower,
    SurfaceSamples,
    TriangleMesh,
    area_weighted_sample,
    load_mesh,
    point_triangle_distances,
    poisson_disk_radius,
    poisson_disk_sample,
)


def ply_with_elements(verts, faces, order):
    """ASCII PLY text whose elements come in `order`: "vertex", "face"
    and "edge", an element of two lines that a loader must skip."""
    header = {
        "vertex": [f"element vertex {len(verts)}", "property float x", "property float y",
                   "property float z"],
        "face": [f"element face {len(faces)}", "property list uchar int vertex_indices"],
        "edge": ["element edge 2", "property int vertex1", "property int vertex2"],
    }
    body = {
        "vertex": [" ".join(f"{c:.17g}" for c in v) for v in verts],
        "face": ["3 " + " ".join(str(i) for i in f) for f in faces],
        "edge": ["0 1", "1 2"],
    }
    lines = ["ply", "format ascii 1.0"] + [h for name in order for h in header[name]]
    lines += ["end_header"] + [b for name in order for b in body[name]]
    return "\n".join(lines) + "\n"


MALFORMED_HEADERS = [pytest.param(*case[1:], id=case[0])
                     for case in helpers.malformed_mesh_headers()]
MALFORMED_ARRAYS = [pytest.param(*case[1:], id=case[0])
                    for case in helpers.malformed_mesh_arrays()]


class TestLoading:
    def test_off_tetrahedron(self, tmp_path):
        verts, faces = helpers.tetrahedron()
        path = tmp_path / "t.off"
        path.write_text(helpers.off_text(verts, faces))
        mesh = load_mesh(path)
        assert len(mesh.vertices) == 4 and len(mesh.triangles) == 4
        edge = np.linalg.norm(verts[0] - verts[1])
        expected = 4 * (math.sqrt(3) / 4) * edge**2
        assert mesh.total_area == pytest.approx(expected, rel=1e-12)

    def test_off_counts_on_same_line_as_keyword(self, tmp_path):
        path = tmp_path / "t.off"
        path.write_text("OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        mesh = load_mesh(path)
        # raw area 0.5, then unit-sphere normalization rescales by
        # 1/scale^2 with scale = sqrt(5)/3 (farthest vertex from centroid)
        assert mesh.total_area == pytest.approx(0.5 * 9 / 5)

    def test_ply_icosphere(self, tmp_path):
        verts, faces = helpers.icosphere(2)
        path = tmp_path / "s.ply"
        path.write_text(helpers.ply_text(verts, faces))
        mesh = load_mesh(path)
        assert len(mesh.triangles) == 320
        # a 2-subdivision icosphere carries almost the full sphere area
        assert mesh.total_area == pytest.approx(4 * math.pi, rel=0.05)

    def test_ply_with_extra_vertex_properties(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float nx\nproperty float x\nproperty float y\n"
            "property float z\nelement face 1\n"
            "property list uchar int vertex_indices\nend_header\n"
            "9 0 0 0\n9 1 0 0\n9 0 1 0\n3 0 1 2\n"
        )
        path = tmp_path / "s.ply"
        path.write_text(text)
        mesh = load_mesh(path)
        # x/y/z are read by property position; loading then normalizes
        from pcup.geometry import normalize_unit_sphere

        expected = normalize_unit_sphere(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float))[0]
        assert np.abs(mesh.vertices - expected).max() < 1e-12

    def test_quad_face_rejected(self, tmp_path):
        path = tmp_path / "q.off"
        path.write_text(helpers.quad_off_text())
        with pytest.raises(ValueError, match="non-triangle face with 4 vertices"):
            load_mesh(path)

    def test_binary_ply_rejected(self, tmp_path):
        path = tmp_path / "b.ply"
        path.write_bytes(helpers.binary_ply_bytes())
        with pytest.raises(ValueError, match="binary PLY is not supported"):
            load_mesh(path)

    def test_arbitrary_binary_rejected(self, tmp_path):
        path = tmp_path / "b.off"
        path.write_bytes(b"\x00\x01\x02\xff binary soup")
        with pytest.raises(ValueError, match="binary mesh files are not supported"):
            load_mesh(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0\n")
        with pytest.raises(ValueError, match="unrecognized mesh format"):
            load_mesh(path)

    def test_truncated_off_rejected(self, tmp_path):
        path = tmp_path / "t.off"
        path.write_text("OFF\n4 4 0\n0 0 0\n1 0 0\n")
        with pytest.raises(ValueError, match="truncated"):
            load_mesh(path)

    @pytest.mark.parametrize("order", [
        ("face", "vertex"),
        ("vertex", "edge", "face"),
        ("edge", "face", "vertex"),
        ("vertex", "face", "edge"),
    ], ids="-".join)
    def test_ply_elements_in_any_order(self, tmp_path, order):
        verts, faces = helpers.icosphere(1)
        plain = tmp_path / "plain.ply"
        plain.write_text(helpers.ply_text(verts, faces))
        path = tmp_path / "ordered.ply"
        path.write_text(ply_with_elements(verts, faces, order))
        expected, mesh = load_mesh(plain), load_mesh(path)
        for field in ("vertices", "triangles", "areas"):
            assert getattr(mesh, field).tobytes() == getattr(expected, field).tobytes()
        assert mesh.total_area == expected.total_area

    @pytest.mark.parametrize("name, text, lineno, message", MALFORMED_HEADERS)
    def test_malformed_header_names_file_and_line(self, tmp_path, name, text, lineno,
                                                  message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_mesh(path)
        assert str(exc.value) == f"{path}:{lineno}: {message}"

    @pytest.mark.parametrize("name, text, lineno, message", MALFORMED_ARRAYS)
    def test_malformed_arrays_name_file(self, tmp_path, name, text, lineno, message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_mesh(path)
        where = f"{path}:{lineno}" if lineno else f"{path}"
        assert str(exc.value) == f"{where}: {message}"

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(ValueError, match="degenerate triangle"):
            TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])


class TestAreaWeightedSampling:
    def test_samples_lie_on_surface(self, icosphere_mesh, rng):
        samples = area_weighted_sample(icosphere_mesh, 500, rng)
        d = icosphere_mesh.distances_to_surface(samples.positions)
        assert d.max() < 1e-12

    def test_triangle_counts_follow_area_weights(self, two_triangle_mesh, rng):
        n = 4000
        samples = area_weighted_sample(two_triangle_mesh, n, rng)
        # the big triangle spans x in [10, 12], the small one x in [0, 2]
        big = int((samples.positions[:, 0] > 5).sum())
        p = 0.75  # area 3 of total 4
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(big - n * p) < 3 * sigma

    def test_deterministic_given_seed(self, tetra_mesh):
        a = area_weighted_sample(tetra_mesh, 64, np.random.default_rng(7))
        b = area_weighted_sample(tetra_mesh, 64, np.random.default_rng(7))
        assert np.array_equal(a.positions, b.positions)


class TestPoissonDisk:
    def test_radius_formula(self):
        # m disks of radius r_max hex-packed fill area: r = sqrt(A/(2*sqrt(3)*m))
        assert poisson_disk_radius(2 * math.sqrt(3), 1) == pytest.approx(1.0)
        assert poisson_disk_radius(8.0, 50) == pytest.approx(math.sqrt(8 / (2 * math.sqrt(3) * 50)))

    def test_exact_count_and_subset_of_pool(self, icosphere_mesh, rng):
        pool = area_weighted_sample(icosphere_mesh, 3000, rng)
        out = poisson_disk_sample(icosphere_mesh, 500, rng, pool=pool)
        assert len(out) == 500
        # each output position appears in the pool
        d = cKDTree(pool.positions).query(out.positions)[0]
        assert d.max() == 0.0

    def test_min_gap_beats_point_six_r_max(self, icosphere_mesh, rng):
        m = 625
        out = poisson_disk_sample(icosphere_mesh, m, rng)
        gaps = cKDTree(out.positions).query(out.positions, k=2)[0][:, 1]
        r_max = poisson_disk_radius(icosphere_mesh.total_area, m)
        assert gaps.min() >= 0.6 * r_max

    def test_far_more_even_than_random_subset(self, icosphere_mesh, rng):
        m = 400
        pd = poisson_disk_sample(icosphere_mesh, m, rng)
        rnd = area_weighted_sample(icosphere_mesh, m, rng)
        gap = lambda s: cKDTree(s.positions).query(s.positions, k=2)[0][:, 1].min()
        assert gap(pd) > 4 * gap(rnd)

    def test_planar_spacing_near_ideal(self, planar_mesh, rng):
        m = 400
        out = poisson_disk_sample(planar_mesh, m, rng)
        gaps = cKDTree(out.positions).query(out.positions, k=2)[0][:, 1]
        r_max = poisson_disk_radius(planar_mesh.total_area, m)
        # mean spacing lands between 60% and 100% of the hexagonal ideal
        # diameter (perfect packing is unattainable from a finite pool)
        assert 0.6 * (2 * r_max) <= gaps.mean() <= 1.0 * (2 * r_max)

    def test_pool_too_small_rejected(self, tetra_mesh, rng):
        pool = area_weighted_sample(tetra_mesh, 100, rng)
        with pytest.raises(ValueError, match="too small"):
            poisson_disk_sample(tetra_mesh, 200, rng, pool=pool)

    def test_deterministic_given_seed(self, tetra_mesh):
        a = poisson_disk_sample(tetra_mesh, 128, np.random.default_rng(3))
        b = poisson_disk_sample(tetra_mesh, 128, np.random.default_rng(3))
        assert np.array_equal(a.positions, b.positions)


def nearest_pool_index(grower, position):
    """The pool point grow() starts from: the nearest to `position`, the
    lowest index on ties."""
    return int(grower.index.knn(position, 1)[0][0])


def planar_lattice(side):
    """A side x side planar lattice of unit spacing: integer coordinates
    keep every distance exact, so equal distances tie exactly."""
    g = np.arange(side, dtype=np.float64)
    return np.stack(np.meshgrid(g, g, [0.0], indexing="ij"), axis=-1).reshape(-1, 3)


class TestEliminationOracle:
    """_eliminate_samples against the max-heap it replaced: the same
    kept indices, so archives keep their bytes."""

    def check(self, positions, count, r_max):
        keep = mesh_module._eliminate_samples(positions, count, r_max)
        assert np.array_equal(keep, helpers.heap_eliminate_samples(positions, count, r_max))
        assert len(keep) == count
        return keep

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_icosphere_patch_pools(self, icosphere_mesh, seed):
        rng = np.random.default_rng(seed)
        pool = area_weighted_sample(icosphere_mesh, 6000, rng)
        grower = PatchGrower(pool)
        for position in area_weighted_sample(icosphere_mesh, 2, rng).positions:
            patch = grower.grow(position, 0.05)
            count = len(patch) // 5
            r_max = poisson_disk_radius(0.05 * icosphere_mesh.total_area, count)
            self.check(pool.positions[patch], count, r_max)

    def test_planar_lattice_with_tied_weights(self):
        pos = planar_lattice(30)
        # reach 3 spans several rings of exact lattice distances, and
        # hundreds of points start with exactly the same weight
        self.check(pos, 200, 1.5)

    def test_duplicated_points(self, rng):
        pos = helpers.with_duplicates(rng, n=80, copies=3)
        self.check(pos, 80, 0.05)
        self.check(pos, 30, 0.2)

    def test_no_pair_in_reach(self, rng):
        pos = rng.random((50, 3))
        # every weight is 0: removal goes by lowest index
        keep = self.check(pos, 20, 1e-6)
        assert np.array_equal(keep, np.arange(30, 50))

    @pytest.mark.parametrize("count", [1, 300])
    def test_count_one_and_count_n(self, rng, count):
        self.check(rng.random((300, 3)), count, 0.05)


class TestGrowthOracle:
    """grow() against one unbounded Dijkstra run over the whole pool: the
    same patch order, and distances_from gives the same distance bits."""

    def check(self, grower, seed_position, fraction, k=10):
        patch = grower.grow(seed_position, fraction)
        src = nearest_pool_index(grower, seed_position)
        order, dist = helpers.full_dijkstra_patch(
            grower.pool.positions, src, math.ceil(fraction * len(grower.pool)), k)
        assert np.array_equal(patch, order)
        # the class's method: a test that records grow()'s calls on the
        # instance sees only those
        assert np.array_equal(PatchGrower.distances_from(grower, src)[order], dist)
        return patch

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_seeds_on_the_icosphere(self, icosphere_mesh, seed):
        rng = np.random.default_rng(seed)
        grower = PatchGrower(area_weighted_sample(icosphere_mesh, 5000, rng))
        for position in area_weighted_sample(icosphere_mesh, 3, rng).positions:
            self.check(grower, position, 0.05)
        self.check(grower, position, 0.3)

    def test_lattice_ties_at_the_cut(self):
        grower = PatchGrower(SurfaceSamples(planar_lattice(40)), k=4)
        center = np.array([20.0, 20.0, 0.0])
        patch = self.check(grower, center, 0.05, k=4)
        # many points share the last kept distance, and some of them fall
        # outside the patch: only the index tie-break decides
        all_d = grower.distances_from(nearest_pool_index(grower, center))
        cutoff = all_d[patch[-1]]
        assert (all_d == cutoff).sum() > (all_d[patch] == cutoff).sum() > 1

    @staticmethod
    def record_limits(grower, monkeypatch):
        calls = []
        real = grower.distances_from

        def recording(src, limit=np.inf):
            calls.append(limit)
            return real(src, limit)

        monkeypatch.setattr(grower, "distances_from", recording)
        return calls

    def test_several_doublings(self, icosphere_mesh, rng, monkeypatch):
        grower = PatchGrower(area_weighted_sample(icosphere_mesh, 5000, rng))
        calls = self.record_limits(grower, monkeypatch)
        # a first limit a tenth of the Euclidean bound reaches a few
        # points, then four times as many at each doubling
        monkeypatch.setattr(mesh_module, "_GROWTH_START", 0.1)
        self.check(grower, grower.pool.positions[7], 0.3)
        assert len(calls) >= 4
        assert all(b == 2 * a for a, b in zip(calls, calls[1:]))

    def test_a_limit_that_reaches_nothing_new_finishes_unbounded(
            self, icosphere_mesh, rng, monkeypatch):
        grower = PatchGrower(area_weighted_sample(icosphere_mesh, 5000, rng))
        calls = self.record_limits(grower, monkeypatch)
        # limits below the shortest edge reach the source alone, twice
        monkeypatch.setattr(mesh_module, "_GROWTH_START", 0.01)
        self.check(grower, grower.pool.positions[7], 0.05)
        assert calls[-1] == np.inf and len(calls) == 3

    def test_duplicates_start_from_a_zero_limit(self, rng):
        # the target-th nearest point is a copy of the source, so the
        # Euclidean bound and the first limit are 0; the copies lie at
        # graph distance 0 and are reached
        pos = helpers.with_duplicates(rng, n=100, copies=4)
        target = math.ceil(0.01 * len(pos))
        assert np.sort(np.linalg.norm(pos - pos[0], axis=1))[target - 1] == 0.0
        self.check(PatchGrower(SurfaceSamples(pos)), pos[0], 0.01)

    def test_last_run_reaches_at_most_four_times_target(self, icosphere_mesh, rng, monkeypatch):
        pool = area_weighted_sample(icosphere_mesh, 20000, rng)
        grower = PatchGrower(pool)
        reached = []
        real = grower.distances_from

        def counting(src, limit=np.inf):
            dist = real(src, limit)
            reached.append(int(np.isfinite(dist).sum()))
            return dist

        monkeypatch.setattr(grower, "distances_from", counting)
        for position in area_weighted_sample(icosphere_mesh, 10, rng).positions:
            reached.clear()
            patch = grower.grow(position, 0.05)
            assert reached[-1] <= 4 * len(patch)


class TestBoundedDistances:
    """distances_from with a limit reaches exactly the points within it,
    each at the unbounded run's bits. grow() relies on this, and returns
    no distances of its own."""

    @staticmethod
    def check(grower, sources, limits):
        full = grower.distances_from(sources)
        for limit in limits:
            bounded = grower.distances_from(sources, limit)
            reached = np.isfinite(bounded)
            assert np.array_equal(reached, full <= limit)
            assert np.array_equal(bounded[reached], full[reached])

    def test_icosphere_pool(self, icosphere_mesh, rng):
        grower = PatchGrower(area_weighted_sample(icosphere_mesh, 5000, rng))
        sources = rng.choice(len(grower.pool), size=5, replace=False)
        # reached distances as limits too, so points lie on the limit
        limits = [0.05, 0.3, *np.sort(grower.distances_from(sources[0]))[[10, 250, 2000]]]
        self.check(grower, sources[0], limits)
        # a block of sources, as the uniformity report runs them
        self.check(grower, sources, limits)

    def test_lattice_ties_at_the_limit(self):
        grower = PatchGrower(SurfaceSamples(planar_lattice(40)), k=4)
        src = 20 * 40 + 20
        limits = (3.0, 5.0, 12.0)
        full = grower.distances_from(src)
        # integer coordinates: many points lie exactly on each limit
        assert all((full == limit).sum() > 1 for limit in limits)
        self.check(grower, src, limits)


class TestPoolGraph:
    """PatchGrower's graph against the raw kNN query: each pair that one
    point's query lists, once in each of the two rows, at the smaller of
    its query distances, and Dijkstra over it gives the bits of an
    undirected run over the raw query."""

    @staticmethod
    def expected_edges(raw):
        """(i, j) keys of the raw query's pairs, both ways, and each key's
        smallest distance, in key order."""
        n = raw.shape[0]
        coo = raw.tocoo()
        off = coo.row != coo.col
        rows, cols, weights = coo.row[off], coo.col[off], coo.data[off]
        keys = np.concatenate([rows * n + cols, cols * n + rows])
        weights = np.concatenate([weights, weights])
        order = np.lexsort((weights, keys))
        keys, weights = keys[order], weights[order]
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        return keys[first], weights[first]

    def check(self, positions, sources=None, k=mesh_module.GRAPH_K):
        grower = PatchGrower(SurfaceSamples(positions), k=k)
        n = len(positions)
        raw = helpers.raw_knn_graph(positions, k)
        sources = np.arange(n) if sources is None else sources
        full = grower.distances_from(sources)
        assert np.array_equal(full, dijkstra(raw, directed=False, indices=sources))
        graph = grower._graph
        rows = np.repeat(np.arange(n), np.diff(graph.indptr))
        keys = rows * n + graph.indices
        assert not np.any(rows == graph.indices)
        assert len(np.unique(keys)) == graph.nnz
        assert graph.nnz <= 2 * k * n
        order = np.argsort(keys)
        want_keys, want_weights = self.expected_edges(raw)
        assert np.array_equal(keys[order], want_keys)
        assert np.array_equal(graph.data[order], want_weights)
        return full

    def test_coincident_points_are_at_distance_zero(self, rng):
        pos = helpers.with_duplicates(rng, n=60, copies=4)
        full = self.check(pos)
        copies = np.all(pos[:, None, :] == pos[None, :, :], axis=2)
        assert np.all(full[copies] == 0.0)
        assert np.all(np.isfinite(full))

    def test_more_copies_than_a_query_returns(self, rng):
        # 15 copies of each of three points: a copy's 11 nearest are 11 of
        # its 15 copies, not always itself among them, and the clusters
        # stay apart (inf)
        pos = helpers.with_duplicates(rng, n=3, copies=15)
        full = self.check(pos)
        copies = np.all(pos[:, None, :] == pos[None, :, :], axis=2)
        assert np.all(full[copies] == 0.0) and np.all(np.isinf(full[~copies]))

    @pytest.mark.parametrize("k", [4, mesh_module.GRAPH_K])
    def test_planar_lattice_with_exact_ties(self, k):
        full = self.check(planar_lattice(12), k=k)
        assert np.all(np.isfinite(full))

    @pytest.mark.parametrize("n", [2, 3, mesh_module.GRAPH_K + 1])
    def test_pools_no_larger_than_a_query(self, rng, n):
        full = self.check(rng.random((n, 3)))
        assert np.all(np.isfinite(full))

    def test_random_pool(self, icosphere_mesh, rng):
        pool = area_weighted_sample(icosphere_mesh, 3000, rng)
        self.check(pool.positions, sources=rng.choice(3000, size=40, replace=False))

    def test_a_pair_listed_both_ways_takes_the_smaller_distance(self):
        # points 0 and 1 list each other at distances one ulp apart, as
        # two directed kd-tree distances could read; 2 lists 0, which does
        # not list 2
        nbr = np.array([[0, 1], [1, 0], [2, 0]], dtype=np.int32)
        dist = np.array([[0.0, np.nextafter(1.0, 2.0)], [0.0, 1.0], [0.0, 2.0]])
        graph = mesh_module._pool_graph(dist, nbr)
        assert graph.nnz == 4
        assert graph.toarray().tolist() == [[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]

    def test_build_memory_at_the_paper_pool(self, icosphere_mesh):
        # the 102 400-point pool of `prepare` at N=256. tracemalloc (numpy
        # reports to it) saw 14.5 MiB held and a 38.6 MiB peak; a graph
        # with every mutual pair twice per row and the self loops held
        # 27.0 MiB and peaked at 63.3 MiB while built
        pool = area_weighted_sample(icosphere_mesh, 102400, np.random.default_rng(0))
        tracemalloc.start()
        try:
            grower = PatchGrower(pool)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(grower.pool) == 102400
        assert held <= 15 * 2**20 and peak <= 45 * 2**20


class TestGeodesicPatches:
    def test_patch_size_is_ceil_fraction(self, icosphere_mesh, rng):
        pool = area_weighted_sample(icosphere_mesh, 1500, rng)
        grower = PatchGrower(pool)
        patch = grower.grow(pool.positions[0], 0.05)
        assert len(patch) == math.ceil(0.05 * 1500)
        assert len(np.unique(patch)) == len(patch)

    def test_fraction_domain(self, icosphere_mesh, rng):
        pool = area_weighted_sample(icosphere_mesh, 1200, rng)
        grower = PatchGrower(pool)
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError, match="fraction"):
                grower.grow(pool.positions[0], bad)

    def test_patch_is_geodesically_contiguous(self, icosphere_mesh, rng):
        pool = area_weighted_sample(icosphere_mesh, 1500, rng)
        grower = PatchGrower(pool)
        patch = grower.grow(pool.positions[3], 0.1)
        # distances come out sorted and the patch is exactly the closest set
        all_d = grower.distances_from(nearest_pool_index(grower, pool.positions[3]))
        assert np.all(np.diff(all_d[patch]) >= 0)
        cutoff = all_d[patch[-1]]
        inside = int((all_d < cutoff).sum())
        assert inside <= len(patch) <= int((all_d <= cutoff).sum())

    def test_flat_patch_spans_a_disk_of_matching_area(self, planar_mesh, rng):
        # on a flat unit square, a 5% patch is a geodesic (= Euclidean)
        # disk of area 0.05, i.e. radius sqrt(0.05/pi)
        pool = area_weighted_sample(planar_mesh, 4000, rng)
        center = np.array([0.5, 0.5, 0.0])
        patch = PatchGrower(pool).grow(center, 0.05)
        reach = np.linalg.norm(pool.positions[patch] - center, axis=1).max()
        ideal = math.sqrt(0.05 / math.pi)
        assert 0.8 * ideal <= reach <= 1.2 * ideal

    def test_disconnected_component_detected(self, two_triangle_mesh, rng):
        pool = area_weighted_sample(two_triangle_mesh, 400, rng)
        grower = PatchGrower(pool)
        # the small triangle spans x in [0, 2], the big one x in [10, 12]
        seed = pool.positions[np.nonzero(pool.positions[:, 0] < 5)[0][0]]
        # the small triangle holds ~25% of samples; ask for 40%
        with pytest.raises(ValueError, match="exceeds connected component"):
            grower.grow(seed, 0.4)

    def test_no_leak_across_nearby_sheets(self, bent_sheet_mesh, rng):
        # two strips 0.05 apart in space, joined only at x=1
        pool = area_weighted_sample(bent_sheet_mesh, 4000, rng)
        grower = PatchGrower(pool)
        seed = np.array([0.02, 0.05, 0.0])
        pts = pool.positions[grower.grow(seed, 0.2)]
        assert pts[:, 2].max() < 0.025, "patch leaked onto the far sheet"
        # meaningful: a Euclidean ball of the same reach would leak
        reach = np.linalg.norm(pts - seed, axis=1).max()
        assert reach > 0.05


class TestPointToSurface:
    def test_tetra_centroid_hand_value(self, tetra_mesh):
        assert tetra_mesh.distances_to_surface([[0, 0, 0]])[0] == pytest.approx(1 / 3)

    def test_surface_samples_have_zero_distance(self, icosphere_mesh, rng):
        samples = area_weighted_sample(icosphere_mesh, 300, rng)
        assert icosphere_mesh.distances_to_surface(samples.positions).max() < 1e-12

    def test_equals_brute_force_exactly(self, icosphere_mesh, rng):
        queries = rng.normal(size=(300, 3)) * 1.5
        corners = icosphere_mesh.corners()
        brute = helpers.brute_surface_distances(queries, corners)
        fast = icosphere_mesh.distances_to_surface(queries)
        assert np.array_equal(brute, fast)

    # inside: like the collapsed output of an untrained generator; centre:
    # every centroid is about as near as every other, so every triangle is
    # a candidate for every point
    @pytest.mark.parametrize("where, scale", [
        ("inside", 0.2), ("on_surface", None), ("far", 1e3), ("centre", 1e-3),
    ])
    def test_exact_inside_on_far_and_at_the_centre(self, icosphere_mesh, rng, where, scale):
        if where == "on_surface":
            queries = area_weighted_sample(icosphere_mesh, 500, rng).positions
        else:
            queries = rng.normal(size=(500, 3)) * scale
        brute = helpers.brute_surface_distances(queries, icosphere_mesh.corners())
        assert np.array_equal(icosphere_mesh.distances_to_surface(queries), brute)

    def test_exact_when_one_triangle_is_a_thousand_times_larger(self, rng):
        # a fine flat grid and one large triangle above it: the large one
        # alone sets the centroid-to-corner reach of the candidate search
        verts, faces = helpers.planar_grid(cells=10)
        big = np.array([[-2.0, -2.0, 0.5], [3.0, -2.0, 0.5], [-2.0, 0.0, 0.5]])
        mesh = TriangleMesh(np.vstack([verts, big]),
                            np.vstack([faces, len(verts) + np.arange(3)]))
        assert mesh.areas.max() == pytest.approx(1000 * mesh.areas.min())
        queries = np.vstack([rng.random((300, 3)) * [1.0, 1.0, 0.6],
                             rng.normal(size=(100, 3)) * 3])
        brute = helpers.brute_surface_distances(queries, mesh.corners())
        assert np.array_equal(mesh.distances_to_surface(queries), brute)

    def test_duplicate_and_single_points(self, icosphere_mesh, rng):
        base = rng.normal(size=(5, 3))
        queries = base[[0, 0, 3, 1, 3, 3, 0]]
        brute = helpers.brute_surface_distances(queries, icosphere_mesh.corners())
        assert np.array_equal(icosphere_mesh.distances_to_surface(queries), brute)
        assert np.array_equal(icosphere_mesh.distances_to_surface(base[:1]), brute[:1])
        assert icosphere_mesh.distances_to_surface(base[0][None])[0] == brute[0]

    def test_pairs_spanning_several_chunks(self, icosphere_mesh, rng, monkeypatch):
        queries = rng.normal(size=(300, 3)) * 0.5
        brute = helpers.brute_surface_distances(queries, icosphere_mesh.corners())
        # 1 pair: every point's candidates overfill a chunk, one point per
        # run; 7 and 1000: runs of several points, of uneven pair counts
        for chunk in (1, 7, 1000):
            monkeypatch.setattr(mesh_module, "_PAIR_CHUNK", chunk)
            assert np.array_equal(icosphere_mesh.distances_to_surface(queries), brute)

    def test_cost_bounded_for_a_cluster_at_the_centre(self, icosphere_mesh, rng):
        # bad but valid input: every triangle is a candidate for every
        # point, 640 000 pairs and many chunks. About 0.4 s on 2 cores; a
        # per-point tree walk took tens of seconds on such input.
        queries = rng.normal(size=(2000, 3)) * 1e-3
        assert len(queries) * len(icosphere_mesh.triangles) > 10 * mesh_module._PAIR_CHUNK
        start = time.perf_counter()
        fast = icosphere_mesh.distances_to_surface(queries)
        assert time.perf_counter() - start < 5.0
        assert np.array_equal(fast, helpers.brute_surface_distances(queries, icosphere_mesh.corners()))

    def test_matches_dense_grid_oracle(self, tetra_mesh, rng):
        corners = tetra_mesh.corners()
        for _ in range(5):
            q = rng.normal(size=3)
            exact = tetra_mesh.distances_to_surface(q[None])[0]
            grid = min(
                helpers.brute_point_triangle(q, *corners[i]) for i in range(len(corners))
            )
            assert exact <= grid + 1e-9  # grid oracle overestimates
            assert abs(exact - grid) < 2e-2

    def test_region_cases_single_triangle(self):
        corners = np.array([[[0, 0, 0], [2, 0, 0], [0, 2, 0]]], dtype=float)
        # above the interior
        assert point_triangle_distances([0.5, 0.5, 3.0], corners)[0] == pytest.approx(3.0)
        # beyond a vertex
        assert point_triangle_distances([-1.0, -1.0, 0.0], corners)[0] == pytest.approx(math.sqrt(2))
        # beside an edge
        assert point_triangle_distances([1.0, -2.0, 0.0], corners)[0] == pytest.approx(2.0)
        # off the hypotenuse
        assert point_triangle_distances([2.0, 2.0, 0.0], corners)[0] == pytest.approx(math.sqrt(2))


class TestNormalizedMesh:
    def test_unit_sphere_bound(self, tmp_path):
        path = tmp_path / "two.off"
        path.write_text(helpers.off_text(*helpers.two_triangles()))
        normed = load_mesh(path)
        assert np.linalg.norm(normed.vertices, axis=1).max() == pytest.approx(1.0)
        # area ratios survive normalization
        ratio = normed.areas[1] / normed.areas[0]
        assert ratio == pytest.approx(3.0, rel=1e-12)
