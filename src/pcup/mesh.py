"""Triangle meshes: ASCII OFF/PLY loading, area-weighted and Poisson-disk
surface sampling, geodesic patch growth over a kNN graph, and exact
point-to-surface distance.

Patch growth runs Dijkstra only as far as the patch needs: a bounded run
gives every distance it reaches exactly as an unbounded one would, so the
limit is raised until enough points are reached.

Point-to-surface distance is one batched query. The triangle whose
centroid is nearest a point gives an exact upper bound u on its distance;
any triangle that can beat u has its centroid within u + r_max of the
point, r_max being the largest centroid-to-corner distance of the mesh. A
kd-tree over the centroids finds those candidates for all points at once,
and the exact kernel is evaluated on the flat (point, triangle) pairs.
"""

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from .geometry import SpatialIndex, as_points, normalize_unit_sphere, padded_ball_runs

__all__ = [
    "TriangleMesh",
    "SurfaceSamples",
    "Patch",
    "PatchGrower",
    "load_mesh",
    "area_weighted_sample",
    "poisson_disk_sample",
    "point_triangle_distances",
    "poisson_disk_radius",
]

_AREA_FLOOR = 1e-12  # minimum triangle area after unit-sphere normalization
_ELIMINATION_POWER = 8  # exponent of the sample-elimination weight kernel
_PAIR_CHUNK = 1 << 13  # (point, triangle) pairs per distance-kernel call
_GROWTH_START = 1.5  # first Dijkstra limit of grow(), over the Euclidean bound


def _as_rng(rng):
    return np.random.default_rng(rng)


class TriangleMesh:
    """Immutable triangle mesh with per-triangle areas.

    Construction validates index ranges and rejects zero-area triangles;
    load_mesh() additionally normalizes into the unit sphere and applies
    the stricter post-normalization area floor.
    """

    def __init__(self, vertices, triangles):
        v = as_points(vertices, "vertices")
        t = np.asarray(triangles, dtype=np.intp)
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError(f"triangles: expected an (m, 3) index array, got {t.shape}")
        if len(v) == 0 or len(t) == 0:
            raise ValueError("empty mesh")
        if t.min() < 0 or t.max() >= len(v):
            raise ValueError(
                f"triangle index out of range (have {len(v)} vertices, "
                f"indices span {t.min()}..{t.max()})"
            )
        cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        areas = 0.5 * np.linalg.norm(cross, axis=1)
        bad = np.nonzero(areas <= 0.0)[0]
        if bad.size:
            raise ValueError(f"degenerate triangle {bad[0]} (zero area)")
        self.vertices = v
        self.triangles = t
        self.areas = areas
        self.total_area = float(areas.sum())
        self._corners = None
        self._centroids = None  # (kd-tree over triangle centroids, r_max)

    def corners(self):
        """(m, 3, 3) array: corner coordinates of every triangle."""
        if self._corners is None:
            self._corners = self.vertices[self.triangles]
        return self._corners

    def normalized(self):
        """Unit-sphere-normalized copy; rejects triangles that collapse
        below the area floor at that scale."""
        verts, _, _ = normalize_unit_sphere(self.vertices)
        out = TriangleMesh(verts, self.triangles)
        bad = np.nonzero(out.areas <= _AREA_FLOOR)[0]
        if bad.size:
            raise ValueError(
                f"degenerate triangle {bad[0]} (area {out.areas[bad[0]]:.3g} "
                "after unit-sphere normalization)"
            )
        return out

    def distance_to_surface(self, point):
        """Exact minimum distance from a point to the surface."""
        p = np.asarray(point, dtype=np.float64).reshape(1, 3)
        return float(self.distances_to_surface(p)[0])

    def distances_to_surface(self, points):
        """Exact minimum distance from each point to the surface: the
        minimum of point_triangle_distances over every triangle whose
        centroid is close enough to beat the nearest centroid's triangle."""
        pts = as_points(points)
        corners = self.corners()
        if self._centroids is None:
            centroids = corners.mean(axis=1)
            r_max = np.sqrt(((corners - centroids[:, None, :]) ** 2).sum(axis=2)).max()
            self._centroids = (cKDTree(centroids), float(r_max))
        tree, r_max = self._centroids
        upper = point_triangle_distances(pts, corners[tree.query(pts)[1]])
        # the padding lets the tree's rounding only add candidates, so the
        # nearest centroid's triangle is always one of them
        out = np.empty(len(pts))
        for lo, hi, counts, tris in padded_ball_runs(tree, pts, upper + r_max, _PAIR_CHUNK):
            d = point_triangle_distances(np.repeat(pts[lo:hi], counts, axis=0), corners[tris])
            out[lo:hi] = np.minimum.reduceat(d, np.cumsum(counts) - counts)
        return out


class SurfaceSamples:
    """Points on a mesh surface with provenance: the triangle index and
    barycentric weights that produced each position."""

    def __init__(self, positions, triangles, bary):
        self.positions = as_points(positions, "positions")
        self.triangles = np.asarray(triangles, dtype=np.intp)
        self.bary = np.asarray(bary, dtype=np.float64)
        n = len(self.positions)
        if self.triangles.shape != (n,) or self.bary.shape != (n, 3):
            raise ValueError("SurfaceSamples: mismatched field lengths")

    def __len__(self):
        return len(self.positions)

    def subset(self, indices):
        idx = np.asarray(indices, dtype=np.intp)
        return SurfaceSamples(self.positions[idx], self.triangles[idx], self.bary[idx])


class Patch:
    """A geodesically grown surface region: samples sorted by graph
    distance from the seed, plus the growth parameters."""

    def __init__(self, samples, pool_indices, graph_distances, seed_position, fraction):
        self.samples = samples
        self.pool_indices = np.asarray(pool_indices, dtype=np.intp)
        self.graph_distances = np.asarray(graph_distances, dtype=np.float64)
        self.seed_position = np.asarray(seed_position, dtype=np.float64).reshape(3)
        self.fraction = float(fraction)

    def __len__(self):
        return len(self.pool_indices)


# ---------------------------------------------------------------------------
# file loading


def _read_text(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return blob.decode("ascii")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: binary mesh files are not supported (ASCII only)") from None


def _meaningful_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped


def load_mesh(path):
    """Load an ASCII OFF or ASCII PLY triangle mesh, normalized into the
    unit sphere. Non-triangle faces, binary formats, and degenerate
    geometry raise descriptive errors."""
    text = _read_text(path)
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ValueError(f"{path}: empty mesh file")
    head = lines[0][1].split()[0]
    if head == "OFF":
        verts, tris = _parse_off(path, lines)
    elif head.lower() == "ply":
        verts, tris = _parse_ply(path, lines)
    else:
        raise ValueError(f"{path}: unrecognized mesh format (expected ASCII OFF or PLY)")
    return TriangleMesh(verts, tris).normalized()


def _parse_floats(path, lineno, text, n):
    parts = text.split()
    if len(parts) < n:
        raise ValueError(f"{path}:{lineno}: expected {n} numbers, got {len(parts)}")
    try:
        return [float(t) for t in parts[:n]]
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed number in {text!r}") from None


def _parse_face(path, lineno, text):
    parts = text.split()
    try:
        n = int(parts[0])
    except (ValueError, IndexError):
        raise ValueError(f"{path}:{lineno}: malformed face line {text!r}") from None
    if n != 3:
        raise ValueError(f"{path}:{lineno}: non-triangle face with {n} vertices")
    if len(parts) < 4:
        raise ValueError(f"{path}:{lineno}: face line too short")
    return [int(parts[1]), int(parts[2]), int(parts[3])]


def _parse_off(path, lines):
    first = lines[0][1].split()
    cursor = 1
    if len(first) == 4:  # counts on the OFF line itself
        counts = first[1:]
        countline = lines[0][0]
    else:
        if len(lines) < 2:
            raise ValueError(f"{path}: missing OFF count line")
        countline, counttext = lines[1]
        counts = counttext.split()
        cursor = 2
    if len(counts) < 2:
        raise ValueError(f"{path}:{countline}: expected 'nv nf ne' counts")
    nv, nf = int(counts[0]), int(counts[1])
    if len(lines) < cursor + nv + nf:
        raise ValueError(f"{path}: truncated OFF file")
    verts = [
        _parse_floats(path, lines[cursor + i][0], lines[cursor + i][1], 3)
        for i in range(nv)
    ]
    cursor += nv
    tris = [
        _parse_face(path, lines[cursor + i][0], lines[cursor + i][1])
        for i in range(nf)
    ]
    return np.array(verts), np.array(tris)


def _parse_ply(path, lines):
    # header
    idx = 1
    fmt_seen = False
    elements = []  # (name, count, [property names])
    while idx < len(lines):
        lineno, text = lines[idx]
        idx += 1
        parts = text.split()
        if parts[0] == "end_header":
            break
        if parts[0] == "format":
            if len(parts) < 2 or parts[1] != "ascii":
                raise ValueError(f"{path}:{lineno}: binary PLY is not supported (ASCII only)")
            fmt_seen = True
        elif parts[0] == "element":
            elements.append([parts[1], int(parts[2]), []])
        elif parts[0] == "property":
            if not elements:
                raise ValueError(f"{path}:{lineno}: property before any element")
            elements[-1][2].append(parts[-1])
        elif parts[0] == "comment":
            continue
    else:
        raise ValueError(f"{path}: missing end_header")
    if not fmt_seen:
        raise ValueError(f"{path}: missing PLY format line")
    table = {name: (count, props) for name, count, props in elements}
    if "vertex" not in table or "face" not in table:
        raise ValueError(f"{path}: PLY must declare vertex and face elements")
    nv, vprops = table["vertex"]
    nf, _ = table["face"]
    try:
        cols = [vprops.index(axis) for axis in ("x", "y", "z")]
    except ValueError:
        raise ValueError(f"{path}: vertex element lacks x/y/z properties") from None
    body = lines[idx:]
    if len(body) < nv + nf:
        raise ValueError(f"{path}: truncated PLY file")
    verts = []
    for i in range(nv):
        lineno, text = body[i]
        vals = _parse_floats(path, lineno, text, len(vprops))
        verts.append([vals[c] for c in cols])
    tris = [_parse_face(path, body[nv + i][0], body[nv + i][1]) for i in range(nf)]
    return np.array(verts), np.array(tris)


# ---------------------------------------------------------------------------
# surface sampling


def area_weighted_sample(mesh, n, rng):
    """n i.i.d. surface samples: triangle chosen proportional to area,
    then uniform within the triangle."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = _as_rng(rng)
    tri = rng.choice(len(mesh.triangles), size=n, p=mesh.areas / mesh.total_area)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    bary = np.column_stack([np.maximum(1.0 - u - v, 0.0), u, v])
    pos = np.einsum("nk,nkd->nd", bary, mesh.corners()[tri])
    return SurfaceSamples(pos, tri, bary)


def poisson_disk_radius(area, count):
    """Hexagonal-packing radius: the largest r such that `count` disk
    centers of pairwise distance r can tile `area`."""
    return math.sqrt(area / (2.0 * math.sqrt(3.0) * count))


def poisson_disk_sample(mesh, count, rng, pool=None, pool_factor=5, area=None):
    """Poisson-disk-like sampling by weighted sample elimination (Yuksel,
    Computer Graphics Forum 2015).

    From a dense area-weighted pool (pool_factor * count points by
    default), iteratively remove the point with the highest crowding
    weight, the lowest pool index on ties, until `count` remain.
    Neighbors within twice the hexagonal packing radius r_max contribute
    (1 - d / (2 r_max))^8 to a point's weight. `area` overrides the
    coverage area used for r_max when the pool covers only part of the
    mesh (a patch). Each removal costs one pass over the pool's weights.
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    rng = _as_rng(rng)
    if pool is None:
        pool = area_weighted_sample(mesh, pool_factor * count, rng)
    if len(pool) < count:
        raise ValueError(f"pool of {len(pool)} points is too small for {count} samples")
    if area is None:
        area = mesh.total_area
    keep = _eliminate_samples(pool.positions, count, poisson_disk_radius(area, count))
    return pool.subset(keep)


def _eliminate_samples(positions, count, r_max):
    """Greedy heaviest-first elimination; returns sorted kept indices.

    Each step removes the live point of largest weight, the lowest index
    on ties (np.argmax's first maximum), marks it with weight -inf, and
    subtracts its pair weights from its neighbours in one step (a dead
    neighbour stays at -inf). That is the removal order of a max-heap
    keyed by (weight, index), at O(pool) per removal.
    """
    n = len(positions)
    if count == n:
        return np.arange(n)
    reach = 2.0 * r_max
    pairs = cKDTree(positions).query_pairs(reach, output_type="ndarray")
    d = np.linalg.norm(positions[pairs[:, 0]] - positions[pairs[:, 1]], axis=1)
    w = (1.0 - d / reach) ** _ELIMINATION_POWER
    weight = np.zeros(n)
    np.add.at(weight, pairs[:, 0], w)
    np.add.at(weight, pairs[:, 1], w)
    # both directions of every pair, grouped by point (any order within
    # a point's group)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    order = np.argsort(src)
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])[order]
    wts = np.concatenate([w, w])[order]
    starts = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    for _ in range(n - count):
        i = weight.argmax()
        weight[i] = -np.inf
        lo, hi = starts[i], starts[i + 1]
        # a point's neighbours are distinct, so one fancy-index update
        # subtracts exactly what a loop over them would
        weight[dst[lo:hi]] -= wts[lo:hi]
    return np.flatnonzero(weight != -np.inf)


# ---------------------------------------------------------------------------
# geodesic patches


class PatchGrower:
    """k-nearest-neighbor graph over a dense surface pool with Dijkstra
    growth. Build once per mesh, grow many patches."""

    def __init__(self, pool, k=10):
        self.pool = pool
        n = len(pool)
        if n < 2:
            raise ValueError("pool must contain at least 2 points")
        kk = min(k, n - 1)
        self._index = SpatialIndex(pool.positions)
        # self included at distance 0
        dist, nbr = self._index.tree.query(pool.positions, kk + 1)
        knn = csr_matrix((dist.ravel(), nbr.ravel(), np.arange(0, n * (kk + 1) + 1, kk + 1)),
                         shape=(n, n))
        self._graph = _both_ways(knn)

    def __len__(self):
        return len(self.pool)

    def distances_from(self, sources, limit=np.inf):
        """Graph distances from one or more pool indices to every pool
        point; unreachable entries, and those beyond `limit`, are +inf."""
        return dijkstra(self._graph, directed=True, indices=sources, limit=limit)

    def nearest_pool_index(self, position):
        return self._index.nearest(position)[0]

    def grow(self, seed_position, fraction):
        """The ceil(fraction * pool) pool points closest to the seed in
        graph distance, ties broken by lower index.

        Dijkstra runs with a limit, starting a little above the Euclidean
        distance of the target-th nearest pool point (no graph distance is
        shorter) and doubling until it reaches `target` points. A bounded
        run leaves +inf only beyond the limit, and every distance it does
        reach is the unbounded run's, bit for bit, so the patch is the one
        a run over the whole pool would give.
        """
        if not 0.0 < fraction < 0.5:
            raise ValueError(f"fraction must be in (0, 0.5), got {fraction}")
        target = math.ceil(fraction * len(self.pool))
        src = self.nearest_pool_index(seed_position)
        euclid = self._index.tree.query(self.pool.positions[src], k=[target])[0][0]
        limit = _GROWTH_START * float(euclid)
        count = 0
        while True:
            dist = self.distances_from(src, limit)
            reached = np.flatnonzero(np.isfinite(dist))
            if len(reached) >= target:
                break
            if limit == np.inf:
                raise ValueError(
                    f"patch exceeds connected component ({len(reached)} "
                    f"reachable points, {target} requested)"
                )
            # a limit that reached nothing new may sit below a long edge,
            # or be 0: finish with one unbounded run
            limit = 2.0 * limit if len(reached) > count else np.inf
            count = len(reached)
        order = reached[np.lexsort((reached, dist[reached]))[:target]]
        return Patch(self.pool.subset(order), order, dist[order], seed_position, fraction)


def _both_ways(graph):
    """A directed graph whose row i lists row i of `graph`, then column i.

    A directed Dijkstra over it relaxes exactly the edges, with the same
    weights, that an undirected run over `graph` relaxes, so the distances
    are the same bits; scipy's undirected run would transpose the graph
    on every call instead.
    """
    rev = graph.T.tocsr()
    indptr = graph.indptr + rev.indptr
    indices = np.empty(indptr[-1], dtype=graph.indices.dtype)
    data = np.empty(indptr[-1])
    fwd = np.arange(graph.nnz) + np.repeat(rev.indptr[:-1], np.diff(graph.indptr))
    back = np.arange(rev.nnz) + np.repeat(graph.indptr[1:], np.diff(rev.indptr))
    indices[fwd], data[fwd] = graph.indices, graph.data
    indices[back], data[back] = rev.indices, rev.data
    return csr_matrix((data, indices, indptr), shape=graph.shape)


# ---------------------------------------------------------------------------
# point-to-surface distance


def point_triangle_distances(points, corners):
    """Exact distance from one point to each triangle in (m, 3, 3)
    `corners`, or from each of m points to its own triangle row:
    closest interior point if the plane projection lies inside,
    otherwise the closest of the three clamped edge segments."""
    p = np.asarray(points, dtype=np.float64)
    if p.shape not in ((3,), (len(corners), 3)):
        raise ValueError(f"points: expected (3,) or ({len(corners)}, 3), got {p.shape}")
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    e0 = b - a
    e1 = c - a
    w = p - a
    a00 = np.einsum("ij,ij->i", e0, e0)
    a01 = np.einsum("ij,ij->i", e0, e1)
    a11 = np.einsum("ij,ij->i", e1, e1)
    b0 = np.einsum("ij,ij->i", w, e0)
    b1 = np.einsum("ij,ij->i", w, e1)
    det = a00 * a11 - a01 * a01  # = (2 * area)^2 > 0 for valid triangles
    s = (a11 * b0 - a01 * b1) / det
    t = (a00 * b1 - a01 * b0) / det
    inside = (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)
    proj = w - s[:, None] * e0 - t[:, None] * e1
    d_inside = np.sqrt(np.einsum("ij,ij->i", proj, proj))
    d_edges = np.minimum(
        _segment_distances(p, a, b),
        np.minimum(_segment_distances(p, a, c), _segment_distances(p, b, c)),
    )
    return np.where(inside, d_inside, d_edges)


def _segment_distances(p, a, b):
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.clip(np.einsum("ij,ij->i", p - a, ab) / denom, 0.0, 1.0)
    diff = p - (a + t[:, None] * ab)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))
