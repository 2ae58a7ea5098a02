"""Triangle meshes: ASCII OFF/PLY loading, area-weighted and Poisson-disk
surface sampling, geodesic patch growth over a kNN graph, and exact
point-to-surface distance accelerated by a bounding-volume hierarchy.
"""

import heapq
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from .geometry import SpatialIndex, as_points, normalize_unit_sphere

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
        self._bvh = None

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
        p = np.asarray(point, dtype=np.float64).reshape(3)
        if self._bvh is None:
            self._bvh = _BVH(self.corners())
        return self._bvh.query(p)

    def distances_to_surface(self, points):
        pts = as_points(points)
        return np.array([self.distance_to_surface(p) for p in pts])


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
    """Poisson-disk-like sampling by weighted sample elimination.

    From a dense area-weighted pool (pool_factor * count points by
    default), iteratively remove the point with the highest crowding
    weight until `count` remain. Neighbors within twice the hexagonal
    packing radius r_max contribute (1 - d / (2 r_max))^8 to a point's
    weight. `area` overrides the coverage area used for r_max when the
    pool covers only part of the mesh (a patch).
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
    """Greedy heaviest-first elimination; returns sorted kept indices."""
    n = len(positions)
    if count == n:
        return np.arange(n)
    reach = 2.0 * r_max
    pairs = cKDTree(positions).query_pairs(reach, output_type="ndarray")
    if pairs.size:
        d = np.linalg.norm(positions[pairs[:, 0]] - positions[pairs[:, 1]], axis=1)
        w = (1.0 - d / reach) ** _ELIMINATION_POWER
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        wts = np.concatenate([w, w])
        order = np.argsort(src, kind="stable")
        src, dst, wts = src[order], dst[order], wts[order]
        starts = np.searchsorted(src, np.arange(n + 1))
        weight = np.zeros(n)
        np.add.at(weight, pairs[:, 0], w)
        np.add.at(weight, pairs[:, 1], w)
    else:
        dst = np.empty(0, dtype=np.intp)
        wts = np.empty(0)
        starts = np.zeros(n + 1, dtype=np.intp)
        weight = np.zeros(n)

    version = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    heap = [(-weight[i], i, 0) for i in range(n)]
    heapq.heapify(heap)
    remaining = n
    while remaining > count:
        negw, i, ver = heapq.heappop(heap)
        if not alive[i] or ver != version[i]:
            continue
        alive[i] = False
        remaining -= 1
        for k in range(starts[i], starts[i + 1]):
            j = dst[k]
            if alive[j]:
                weight[j] -= wts[k]
                version[j] += 1
                heapq.heappush(heap, (-weight[j], j, version[j]))
    return np.nonzero(alive)[0]


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
        tree = cKDTree(pool.positions)
        dist, nbr = tree.query(pool.positions, kk + 1)  # self included at distance 0
        rows = np.repeat(np.arange(n), kk + 1)
        self._graph = csr_matrix((dist.ravel(), (rows, nbr.ravel())), shape=(n, n))
        self._index = SpatialIndex(pool.positions)

    def __len__(self):
        return len(self.pool)

    def distances_from(self, sources, limit=np.inf):
        """Graph distances from one or more pool indices to every pool
        point; unreachable entries are +inf."""
        return dijkstra(self._graph, directed=False, indices=sources, limit=limit)

    def nearest_pool_index(self, position):
        return self._index.nearest(position)[0]

    def grow(self, seed_position, fraction):
        """The ceil(fraction * pool) pool points closest to the seed in
        graph distance, ties broken by lower index."""
        if not 0.0 < fraction < 0.5:
            raise ValueError(f"fraction must be in (0, 0.5), got {fraction}")
        n = len(self.pool)
        target = math.ceil(fraction * n)
        src = self.nearest_pool_index(seed_position)
        dist = self.distances_from(src)
        if np.isfinite(dist).sum() < target:
            raise ValueError(
                f"patch exceeds connected component ({int(np.isfinite(dist).sum())} "
                f"reachable points, {target} requested)"
            )
        order = np.lexsort((np.arange(n), dist))[:target]
        return Patch(self.pool.subset(order), order, dist[order], seed_position, fraction)


# ---------------------------------------------------------------------------
# point-to-surface distance


def point_triangle_distances(point, corners):
    """Exact distance from one point to each triangle in (m, 3, 3)
    `corners`: closest interior point if the plane projection lies inside,
    otherwise the closest of the three clamped edge segments."""
    p = np.asarray(point, dtype=np.float64).reshape(3)
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    e0 = b - a
    e1 = c - a
    w = p[None, :] - a
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
    t = np.clip(np.einsum("ij,ij->i", p[None, :] - a, ab) / denom, 0.0, 1.0)
    diff = p[None, :] - (a + t[:, None] * ab)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


class _BVH:
    """Axis-aligned box tree over triangles (median split on the widest
    centroid axis, leaves hold up to 8 triangles). Queries are exact:
    boxes are pruned only when they provably cannot beat the best
    distance found so far."""

    _LEAF = 8

    def __init__(self, corners):
        self._corners = corners
        self._tri_lo = corners.min(axis=1)
        self._tri_hi = corners.max(axis=1)
        centroids = corners.mean(axis=1)
        self._lo = []
        self._hi = []
        self._children = []  # (left, right) or None for leaves
        self._leaf_tris = []
        self._build(np.arange(len(corners)), centroids)
        self._lo = np.array(self._lo)
        self._hi = np.array(self._hi)

    def _build(self, idx, centroids):
        node = len(self._lo)
        self._lo.append(self._tri_lo[idx].min(axis=0))
        self._hi.append(self._tri_hi[idx].max(axis=0))
        self._children.append(None)
        self._leaf_tris.append(None)
        if len(idx) <= self._LEAF:
            self._leaf_tris[node] = idx
            return node
        cen = centroids[idx]
        axis = int(np.argmax(cen.max(axis=0) - cen.min(axis=0)))
        order = np.argsort(cen[:, axis], kind="stable")
        half = len(idx) // 2
        left = self._build(idx[order[:half]], centroids)
        right = self._build(idx[order[half:]], centroids)
        self._children[node] = (left, right)
        return node

    def _box_distance(self, p, node):
        clamped = np.clip(p, self._lo[node], self._hi[node])
        return float(np.linalg.norm(clamped - p))

    def query(self, p):
        best = np.inf
        heap = [(self._box_distance(p, 0), 0)]
        while heap:
            lower, node = heapq.heappop(heap)
            if lower >= best:
                break  # heap is ordered, nothing left can improve
            tris = self._leaf_tris[node]
            if tris is not None:
                best = min(best, float(point_triangle_distances(p, self._corners[tris]).min()))
                continue
            for child in self._children[node]:
                lb = self._box_distance(p, child)
                if lb < best:
                    heapq.heappush(heap, (lb, child))
        return best
