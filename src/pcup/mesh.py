"""Triangle meshes: ASCII OFF/PLY loading, area-weighted and Poisson-disk
surface sampling, geodesic patch growth over a kNN graph, and exact
point-to-surface distance.

Patch growth and the geodesic uniformity report walk one graph per
pool: each point joined to its k nearest, each joined pair stored once
in each of its two rows, at the smaller of its two kd-tree distances
where both points list each other, and no self loops. Dijkstra over it
relaxes each edge once per direction and gives the distance bits of an
undirected run over the raw kNN query. Patch growth runs Dijkstra only
as far as the patch needs: a bounded run gives every distance it
reaches exactly as an unbounded one would, so the limit is raised until
enough points are reached.

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

from .geometry import (
    SpatialIndex,
    _workers,
    as_points,
    normalize_unit_sphere,
    padded_ball_runs,
    read_text,
)

__all__ = [
    "TriangleMesh",
    "SurfaceSamples",
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
GRAPH_K = 10  # neighbours per pool point in PatchGrower's graph
# pool rows per block of the graph's mutual-neighbour test, whose (rows, w, w)
# gather of neighbour lists is 5 MiB at k=10. At 102 400 points (k=10,
# 2 cores) the whole build traced a 38.6 MiB peak at 1024, 8192 and 32 768
# rows and 75.3 MiB in one block; the graph step's time did not depend on it
_GRAPH_ROWS = 8192


class TriangleMesh:
    """Immutable triangle mesh with per-triangle areas.

    Construction validates index ranges and rejects zero-area triangles;
    load_mesh() builds its mesh from unit-sphere-normalized vertices and
    applies the stricter post-normalization area floor.
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
        nearest = tree.query(pts, workers=_workers(len(pts)))[1]
        upper = point_triangle_distances(pts, corners[nearest])
        # the padding lets the tree's rounding only add candidates, so the
        # nearest centroid's triangle is always one of them
        out = np.empty(len(pts))
        for lo, hi, counts, tris in padded_ball_runs(tree, pts, upper + r_max, _PAIR_CHUNK):
            d = point_triangle_distances(np.repeat(pts[lo:hi], counts, axis=0), corners[tris])
            out[lo:hi] = np.minimum.reduceat(d, np.cumsum(counts) - counts)
        return out


class SurfaceSamples:
    """Points on a mesh surface."""

    def __init__(self, positions):
        self.positions = as_points(positions, "positions")

    def __len__(self):
        return len(self.positions)

    def subset(self, indices):
        return SurfaceSamples(self.positions[np.asarray(indices, dtype=np.intp)])


# ---------------------------------------------------------------------------
# file loading


def _meaningful_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped


def load_mesh(path):
    """Load an ASCII OFF or ASCII PLY triangle mesh, normalized into the
    unit sphere. Malformed headers, non-triangle faces, binary formats,
    and degenerate geometry raise descriptive errors."""
    text = read_text(path, "mesh")
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ValueError(f"{path}: empty mesh file")
    head = lines[0][1].split()[0]
    if head == "OFF":
        vertex_lines, face_lines, cols, width = _off_header(path, lines)
    elif head.lower() == "ply":
        vertex_lines, face_lines, cols, width = _ply_header(path, lines)
    else:
        raise ValueError(f"{path}: unrecognized mesh format (expected ASCII OFF or PLY)")
    if len(lines) < max(vertex_lines.stop, face_lines.stop):
        raise ValueError(f"{path}: truncated {head.upper()} file")
    verts = [_parse_vertex(path, lineno, text, width, cols)
             for lineno, text in lines[vertex_lines]]
    tris = [_parse_face(path, lineno, text, len(verts)) for lineno, text in lines[face_lines]]
    if not tris:  # a face needs a vertex, so this covers no vertices too
        raise ValueError(f"{path}: empty mesh ({len(verts)} vertices, no faces)")
    normed, _, _ = normalize_unit_sphere(np.array(verts))
    try:
        mesh = TriangleMesh(normed, np.array(tris))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    bad = np.nonzero(mesh.areas <= _AREA_FLOOR)[0]
    if bad.size:
        raise ValueError(
            f"{path}: degenerate triangle {bad[0]} (area {mesh.areas[bad[0]]:.3g} "
            "after unit-sphere normalization)"
        )
    return mesh


def _count(path, lineno, token, what):
    """`token` as a non-negative integer; anything else raises a
    ValueError naming the file and line."""
    try:
        value = int(token)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise ValueError(f"{path}:{lineno}: {what} must be a non-negative integer, got {token!r}")


def _parse_vertex(path, lineno, text, n, cols):
    parts = text.split()
    if len(parts) < n:
        raise ValueError(f"{path}:{lineno}: expected {n} numbers, got {len(parts)}")
    try:
        values = [float(t) for t in parts[:n]]
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed number in {text!r}") from None
    xyz = [values[c] for c in cols]
    if not all(map(math.isfinite, xyz)):
        raise ValueError(f"{path}:{lineno}: non-finite coordinate")
    return xyz


def _parse_face(path, lineno, text, nv):
    """The three vertex indices of a face line, each below `nv`."""
    parts = text.split()
    n = _count(path, lineno, parts[0], "face vertex count")
    if n != 3:
        raise ValueError(f"{path}:{lineno}: non-triangle face with {n} vertices")
    if len(parts) < 4:
        raise ValueError(f"{path}:{lineno}: face line too short")
    face = [_count(path, lineno, token, "face index") for token in parts[1:4]]
    if max(face) >= nv:
        raise ValueError(f"{path}:{lineno}: face index {max(face)} out of range "
                         f"for {nv} vertices")
    return face


def _off_header(path, lines):
    """Where the vertex lines and the face lines sit among `lines` (two
    slices), the x/y/z columns of a vertex line and the number of values
    it must hold. _ply_header returns the same."""
    start = 1 if len(lines[0][1].split()) == 4 else 2  # counts on the OFF line, or the next
    if len(lines) < start:
        raise ValueError(f"{path}: missing OFF count line")
    lineno, text = lines[start - 1]
    counts = text.removeprefix("OFF").split()
    if len(counts) < 2:
        raise ValueError(f"{path}:{lineno}: expected 'nv nf ne' counts")
    nv = _count(path, lineno, counts[0], "vertex count")
    nf = _count(path, lineno, counts[1], "face count")
    return slice(start, start + nv), slice(start + nv, start + nv + nf), (0, 1, 2), 3


def _ply_header(path, lines):
    fmt_seen = False
    elements = []  # (name, count, [property names]) in declared order
    for idx, (lineno, text) in enumerate(lines[1:], start=1):
        parts = text.split()
        if parts[0] == "end_header":
            break
        if parts[0] == "format":
            if len(parts) < 2 or parts[1] != "ascii":
                raise ValueError(f"{path}:{lineno}: binary PLY is not supported (ASCII only)")
            fmt_seen = True
        elif parts[0] == "element":
            if len(parts) < 3:
                raise ValueError(f"{path}:{lineno}: expected 'element <name> <count>'")
            elements.append((parts[1], _count(path, lineno, parts[2], "element count"), []))
        elif parts[0] == "property":
            if not elements:
                raise ValueError(f"{path}:{lineno}: property before any element")
            elements[-1][2].append(parts[-1])
    else:
        raise ValueError(f"{path}: missing end_header")
    if not fmt_seen:
        raise ValueError(f"{path}: missing PLY format line")
    # each element's lines follow the header in declared order
    table = {}
    start = idx + 1
    for name, count, props in elements:
        table[name] = (slice(start, start + count), props)
        start += count
    if "vertex" not in table or "face" not in table:
        raise ValueError(f"{path}: PLY must declare vertex and face elements")
    vertex_lines, vprops = table["vertex"]
    try:
        cols = tuple(vprops.index(axis) for axis in ("x", "y", "z"))
    except ValueError:
        raise ValueError(f"{path}: vertex element lacks x/y/z properties") from None
    return vertex_lines, table["face"][0], cols, len(vprops)


# ---------------------------------------------------------------------------
# surface sampling


def area_weighted_sample(mesh, n, rng):
    """n i.i.d. surface samples: triangle chosen proportional to area,
    then uniform within the triangle."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(rng)
    tri = rng.choice(len(mesh.triangles), size=n, p=mesh.areas / mesh.total_area)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    bary = np.column_stack([np.maximum(1.0 - u - v, 0.0), u, v])
    return SurfaceSamples(np.einsum("nk,nkd->nd", bary, mesh.corners()[tri]))


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
    rng = np.random.default_rng(rng)
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
    growth. Build once per mesh, grow many patches. `index` is the
    pool's SpatialIndex, whose kd-tree built the graph.

    The graph (_pool_graph) joins two pool points when either is among
    the other's k nearest, and stores the pair once in each point's row,
    with no self loops: at most 2·k·n entries while every point's query
    lists the point itself, as it does unless more than k others
    coincide with it.
    """

    def __init__(self, pool, k=GRAPH_K):
        self.pool = pool
        n = len(pool)
        if n < 2:
            raise ValueError("pool must contain at least 2 points")
        w = min(k, n - 1) + 1  # each point is among its own nearest
        self.index = SpatialIndex(pool.positions)
        tree = self.index.tree
        dist = np.empty((n, w))
        # the graph holds at most 2·n·w entries: int32 indices where they fit
        nbr = np.empty((n, w), dtype=np.int32 if 2 * n * w < 2**31 else np.int64)
        # asked in the tree's leaf order, so that consecutive queries walk
        # the same nodes: the same answers, and at 102 400 points (k=10,
        # 2 cores) 134-144 ms against 165-172 ms in pool order (quartiles)
        order = tree.indices
        dist[order], nbr[order] = tree.query(tree.data[order], w, workers=_workers(n))
        self._graph = _pool_graph(dist, nbr)

    def distances_from(self, sources, limit=np.inf):
        """Graph distances from one or more pool indices to every pool
        point; unreachable entries, and those beyond `limit`, are +inf."""
        return dijkstra(self._graph, directed=True, indices=sources, limit=limit)

    def grow(self, seed_position, fraction):
        """Pool indices of the ceil(fraction * pool) points closest in graph
        distance to the pool point nearest the seed, in order of distance,
        ties broken by lower index.

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
        src = int(self.index.knn(seed_position, 1)[0][0])
        euclid = self.index.tree.query(self.pool.positions[src], k=[target])[0][0]
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
        return reached[np.lexsort((reached, dist[reached]))[:target]]


def _pool_graph(dist, nbr):
    """The undirected graph of a kd-tree query of points against
    themselves, as a CSR matrix that lists each edge once in each of
    its two rows. Row i of the (n, w) arrays `dist` and `nbr` holds
    point i's w nearest points and their distances; `dist` is
    overwritten.

    Two points are joined if either lists the other. A pair listed both
    ways weighs the smaller of its two distances, the edge that an
    undirected Dijkstra run over the raw query relaxes, so a directed
    run over this graph gives the same distance bits. Self loops are
    dropped; coincident points keep their edges of weight 0 (scipy's
    csgraph reads an explicit zero as an edge). Row i holds the points
    i lists, in query order, then the points that list i but that i
    does not list, by index.
    """
    n, w = nbr.shape
    own = np.arange(n, dtype=nbr.dtype)[:, None]
    keep = nbr != own
    listed = np.empty(nbr.shape, dtype=bool)  # does nbr[i, c] list i?
    place = np.arange(1, w + 1, dtype=np.min_scalar_type(w))
    flat = dist.ravel()
    for lo in range(0, n, _GRAPH_ROWS):
        rows = slice(lo, lo + _GRAPH_ROWS)
        # 1 + the column at which each neighbour lists i, or 0: a row of
        # nbr holds distinct points, so at most one column matches
        at = np.einsum("ice,e->ic", np.take(nbr, nbr[rows], axis=0) == own[rows, :, None],
                       place)
        np.not_equal(at, 0, out=listed[rows])
        # the neighbour's own distance to i where it lists i (where it does
        # not, the index reads some other entry, masked out); a row that an
        # earlier block lowered reads the same minimum
        np.minimum(dist[rows], flat[nbr[rows] * w + (at.astype(nbr.dtype) - 1)],
                   out=dist[rows], where=listed[rows])
    # entries listed one way only: each also goes to its neighbour's row,
    # the rows in index order and, within a row, the sources in index order
    one_way = np.flatnonzero(keep & ~listed)
    del listed
    target = nbr.ravel()[one_way]
    back = np.bincount(target, minlength=n)
    # a key unique to each entry: any sort orders them by (row, source)
    sort = np.argsort(target.astype(np.int64) * nbr.size + one_way)
    indptr = np.zeros(n + 1, dtype=nbr.dtype)
    np.cumsum(w - np.bincount(np.flatnonzero(~keep) // w, minlength=n) + back, out=indptr[1:])
    slot = np.repeat(indptr[1:] - np.cumsum(back, dtype=nbr.dtype), back)
    slot += np.arange(len(slot), dtype=nbr.dtype)
    indices = np.empty(indptr[-1], dtype=nbr.dtype)
    data = np.empty(indptr[-1])
    indices[slot] = one_way[sort] // w
    data[slot] = flat[one_way[sort]]
    forward = np.ones(indptr[-1], dtype=bool)
    forward[slot] = False
    del one_way, target, sort, slot
    indices[forward] = nbr[keep]
    data[forward] = dist[keep]
    return csr_matrix((data, indices, indptr), shape=(n, n))


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
