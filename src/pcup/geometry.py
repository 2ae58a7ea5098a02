"""Point-cloud substrate: exact spatial queries, farthest point sampling,
unit-sphere normalization, and XYZ file I/O.

Point clouds are plain (n, 3) float64 numpy arrays. SpatialIndex wraps a
kd-tree but guarantees brute-force-exact answers: the tree only proposes
candidates, and membership, distances, and ordering are all recomputed
with plain numpy arithmetic. Ties are broken by lower point index, which
makes every query deterministic.
"""

import itertools
import math

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "as_points",
    "SpatialIndex",
    "padded_ball_runs",
    "farthest_point_sampling",
    "normalize_unit_sphere",
    "denormalize",
    "pairwise_distances",
    "read_xyz",
    "write_xyz",
]


def as_points(a, name="points"):
    """Validate `a` as an (n, 3) float64 array and return it.

    Raises ValueError on wrong shape or non-finite coordinates.
    """
    pts = np.asarray(a, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name}: expected an (n, 3) array, got shape {pts.shape}")
    if pts.size and not np.isfinite(pts).all():
        raise ValueError(f"{name}: non-finite coordinates")
    return pts


def _row_norms(diff):
    """Euclidean norm of each row of an (m, 3) array. Every exact distance
    in the package is this one formula, so equal pairs give equal bits."""
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def pairwise_distances(a, b):
    """Full (len(a), len(b)) matrix of Euclidean distances."""
    a = as_points(a, "a")
    b = as_points(b, "b")
    diff = a[:, None, :] - b[None, :, :]
    return _row_norms(diff.reshape(-1, 3)).reshape(len(a), len(b))


def _padded(radius):
    """A kd-tree search radius padded by a relative epsilon, so that
    rounding differences between the tree's distance arithmetic and
    numpy's can only add candidates, never drop a true answer."""
    return radius * (1.0 + 1e-9) + 1e-12


def padded_ball_runs(tree, queries, radius, chunk):
    """Candidates of many ball queries at once, in runs of consecutive
    queries whose candidate lists hold about `chunk` entries together.

    Query i asks for the points of `tree` within _padded(radius[i]).
    Yields (lo, hi, counts, candidates): queries lo..hi-1, the length of
    each one's list, and the lists concatenated in query order.
    """
    radius = _padded(radius)
    counts = tree.query_ball_point(queries, radius, return_length=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    lo = 0
    while lo < len(queries):
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + chunk, side="right")))
        lists = tree.query_ball_point(queries[lo:hi], radius[lo:hi])
        cand = np.fromiter(itertools.chain.from_iterable(lists), np.intp,
                           ends[hi - 1] - starts[lo])
        yield lo, hi, counts[lo:hi], cand
        lo = hi


_NEAREST_CHUNK = 1 << 16  # candidate pairs per step of SpatialIndex.nearest_others


class SpatialIndex:
    """Immutable exact-query index over a fixed point set.

    Candidate sets come from a kd-tree whose search radius is padded by a
    relative epsilon, so floating-point differences between the tree's
    internal distance arithmetic and numpy's can only add candidates,
    never drop a true answer. The final answer is computed from exact
    numpy distances sorted by (distance, index). `tree` is the kd-tree
    itself, for callers that want its raw answers.
    """

    def __init__(self, points):
        pts = as_points(points)
        if len(pts) == 0:
            raise ValueError("empty input")
        self.points = pts
        self.tree = cKDTree(pts)

    def __len__(self):
        return len(self.points)

    def _exact_sorted(self, candidates, query):
        cand = np.asarray(candidates, dtype=np.intp)
        dist = _row_norms(self.points[cand] - query)
        order = np.lexsort((cand, dist))
        return cand[order], dist[order]

    def knn(self, query, k):
        """The k nearest indexed points, ascending by (distance, index).

        Returns (indices, distances) as parallel arrays of length k.
        """
        q = np.asarray(query, dtype=np.float64).reshape(3)
        n = len(self.points)
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range for {n} indexed points")
        tree_dist = np.atleast_1d(self.tree.query(q, k=k)[0])
        radius = _padded(float(tree_dist[-1]))
        cand, dist = self._exact_sorted(self.tree.query_ball_point(q, radius), q)
        return cand[:k], dist[:k]

    def ball_query(self, center, radius):
        """Indices of all points within the closed ball, sorted by
        (distance, index). Radius must be positive."""
        if not radius > 0:
            raise ValueError(f"radius must be positive, got {radius}")
        c = np.asarray(center, dtype=np.float64).reshape(3)
        cand, dist = self._exact_sorted(self.tree.query_ball_point(c, _padded(radius)), c)
        return cand[dist <= radius]

    def nearest_others(self):
        """For every indexed point, the index of its nearest other indexed
        point, the lower index on ties.

        One batched query: each point's candidates are the tree's points
        within its padded second-nearest tree distance (the nearest is
        the point itself or a copy of it), re-ranked by exact numpy
        distances.
        """
        pts = self.points
        n = len(pts)
        if n < 2:
            raise ValueError(f"nearest other point needs at least 2 points, got {n}")
        radius = self.tree.query(pts, k=2)[0][:, 1]
        nearest = np.empty(n, dtype=np.intp)
        for lo, hi, counts, cand in padded_ball_runs(self.tree, pts, radius, _NEAREST_CHUNK):
            owner = np.repeat(np.arange(lo, hi), counts)
            d = _row_norms(pts[cand] - pts[owner])
            d[cand == owner] = np.inf
            offsets = np.cumsum(counts) - counts
            best = np.minimum.reduceat(d, offsets)
            ties = np.where(d == best[owner - lo], cand, n)
            nearest[lo:hi] = np.minimum.reduceat(ties, offsets)
        return nearest

    def nearest(self, query):
        """Index and distance of the single nearest point."""
        idx, dist = self.knn(query, 1)
        return int(idx[0]), float(dist[0])


def farthest_point_sampling(points, k, seed_index=0):
    """Greedy max-min subset selection.

    The first pick is `seed_index`; every later pick maximizes the
    distance to the already-selected set, with ties broken by lower
    index. Returns the k selected indices in pick order.

    Distances are those of `np.linalg.norm`, sqrt((dx² + dy²) + dz²) in
    that order, computed bit for bit the same but on contiguous columns
    in preallocated buffers, so a pick allocates nothing.
    """
    pts = as_points(points)
    n = len(pts)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")
    if not 0 <= seed_index < n:
        raise ValueError(f"seed_index={seed_index} out of range for {n} points")
    x, y, z = (np.ascontiguousarray(pts[:, j]) for j in range(3))
    mindist = np.full(n, np.inf)
    dist = np.empty(n)
    term = np.empty(n)
    selected = np.empty(k, dtype=np.intp)
    selected[0] = nxt = seed_index
    for i in range(1, k):
        np.subtract(x, x[nxt], out=dist)
        np.multiply(dist, dist, out=dist)
        np.subtract(y, y[nxt], out=term)
        np.multiply(term, term, out=term)
        np.add(dist, term, out=dist)
        np.subtract(z, z[nxt], out=term)
        np.multiply(term, term, out=term)
        np.add(dist, term, out=dist)
        np.sqrt(dist, out=dist)
        np.minimum(mindist, dist, out=mindist)
        mindist[nxt] = -1.0  # selected points can never win the argmax
        nxt = int(np.argmax(mindist))  # first occurrence = lowest index on ties
        selected[i] = nxt
    return selected


def normalize_unit_sphere(points):
    """Center at the centroid and scale so the farthest point has norm 1.

    Returns (normalized points, centroid, scale). A cloud of identical
    points gets scale 1 so the transform is always invertible.
    """
    pts = as_points(points)
    if len(pts) == 0:
        raise ValueError("empty input")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    scale = float(np.linalg.norm(centered, axis=1).max())
    if scale == 0.0:
        scale = 1.0
    return centered / scale, centroid, scale


def denormalize(points, centroid, scale):
    """Invert normalize_unit_sphere."""
    return as_points(points) * float(scale) + np.asarray(centroid, dtype=np.float64)


def read_xyz(path):
    """Read an ASCII XYZ file: one point per line, three whitespace-
    separated reals; blank lines and lines starting with '#' are skipped.
    Parse errors report the 1-based line number."""
    coords = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 3 values per line, got {len(parts)}"
                )
            try:
                x, y, z = map(float, parts)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed number in {parts!r}") from None
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise ValueError(f"{path}:{lineno}: non-finite coordinate")
            coords += (x, y, z)
    return np.array(coords, dtype=np.float64).reshape(-1, 3)


def write_xyz(path, points):
    """Write points as ASCII XYZ with 6 significant digits."""
    pts = as_points(points)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(("%.6g %.6g %.6g\n" * len(pts)) % tuple(pts.ravel().tolist()))
