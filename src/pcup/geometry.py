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
import os

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
    "read_text",
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
    """Euclidean norm of each row of an (m, 3) array. Every membership
    and ranking test of the exact queries uses it (knn, balls, and the
    crop membership and crop partners of metrics), so equal pairs compare
    equal there. Other distances in the package (np.linalg.norm, FPS's
    column arithmetic, autodiff.row_distances) can differ from it in the
    last bit."""
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


# pairwise_distances takes a's rows this many at a time, so its difference
# temporary holds 64 x len(b) x 3 values (1.5 MB at 1024 x 1024, against
# 25 MB for the whole broadcast); each entry is _row_norms of the same
# difference, so the matrix has the same bits at any block size
_PAIRWISE_ROWS = 64


def pairwise_distances(a, b):
    """Full (len(a), len(b)) matrix of Euclidean distances."""
    a = as_points(a, "a")
    b = as_points(b, "b")
    out = np.empty((len(a), len(b)))
    for lo in range(0, len(a), _PAIRWISE_ROWS):
        rows = a[lo : lo + _PAIRWISE_ROWS]
        diff = rows[:, None, :] - b[None, :, :]
        out[lo : lo + len(rows)] = _row_norms(diff.reshape(-1, 3)).reshape(len(rows), len(b))
    return out


# batched kd-tree queries of at least this many points run on every CPU the
# process may use, smaller ones on one thread: scipy answers each query
# point on its own, with the same traversal of the same tree, at any worker
# count, so only the time changes. k=16 queries over as many points on
# 2 cores (numpy 2.4.6, scipy 1.17.1), one thread -> two: 256 points
# 0.66-0.83 -> 0.97-1.04 ms, 1024 points 3.3-4.5 -> 4.1-4.9 ms, 2048 points
# 8.6-9.4 -> 6.4-9.1 ms, 4096 points 14-20 -> 10-16 ms, 8192 points
# 32-40 -> 17-23 ms; the 102 400-point pool graph of `prepare` at N=256
# (k=10) 280-328 -> 152-190 ms
_PARALLEL_MIN = 4096


def _workers(m):
    """Threads for a batched kd-tree query of m points: 1 below
    _PARALLEL_MIN, from it on every CPU the process may run on."""
    if m < _PARALLEL_MIN:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _padded(radius):
    """A kd-tree search radius padded by a relative epsilon, so that
    rounding differences between the tree's distance arithmetic and
    numpy's can only add candidates, never drop a true answer."""
    return radius * (1.0 + 1e-9) + 1e-12


def _runs(counts, chunk):
    """(lo, hi) bounds of runs of consecutive `counts`: each run holds one
    entry, and then as many more as keep its sum within `chunk`."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + chunk, side="right")))
        yield lo, hi
        lo = hi


def padded_ball_runs(tree, queries, radius, chunk):
    """Candidates of many ball queries at once, in runs of consecutive
    queries whose candidate lists hold about `chunk` entries together.

    Query i asks for the points of `tree` within _padded(radius[i]).
    Yields (lo, hi, counts, candidates): queries lo..hi-1, the length of
    each one's list, and the lists, each in index order, concatenated in
    query order.
    """
    radius = _padded(radius)
    counts = tree.query_ball_point(queries, radius, return_length=True,
                                   workers=_workers(len(queries)))
    for lo, hi in _runs(counts, chunk):
        lists = tree.query_ball_point(queries[lo:hi], radius[lo:hi], return_sorted=True,
                                      workers=_workers(hi - lo))
        cand = np.fromiter(itertools.chain.from_iterable(lists), np.intp, counts[lo:hi].sum())
        yield lo, hi, counts[lo:hi], cand


_RUN_CHUNK = 1 << 16  # candidate pairs per step of a batched SpatialIndex query


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

    def knn(self, query, k):
        """The k nearest indexed points of one query point, or of each row
        of an (m, 3) array of them, ascending by (distance, index).

        Returns (indices, distances) as parallel arrays: of length k for
        one query point, of shape (m, k) for many. One batched query: the
        tree's k + 1 nearest come first. Where the (k+1)-th lies beyond
        the padded k-th tree distance, the tree's k are the answer; where
        it does not (a tie or near tie at the k-th place), the first k of
        the exact ball of that padded radius (balls) are. Either way they
        are ranked by exact numpy distances.
        """
        q = np.asarray(query, dtype=np.float64)
        one = q.ndim == 1
        q = as_points(q.reshape(1, 3) if one else q, "query")
        n = len(self.points)
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range for {n} indexed points")
        # past n: inf, index n
        tree_dist, nbr = self.tree.query(q, k=k + 1, workers=_workers(len(q)))
        idx = nbr[:, :k]
        radius = tree_dist[:, k - 1]
        rows = np.flatnonzero(tree_dist[:, k] <= _padded(radius))
        for lo, hi, sizes, members in self.balls(q[rows], _padded(radius[rows]), _RUN_CHUNK):
            idx[rows[lo:hi]] = members[(np.cumsum(sizes) - sizes)[:, None] + np.arange(k)]
        dist = _row_norms((self.points[idx] - q[:, None, :]).reshape(-1, 3)).reshape(-1, k)
        order = np.lexsort((idx, dist))  # a tie row's ball is in this order already
        idx = np.take_along_axis(idx, order, 1)
        dist = np.take_along_axis(dist, order, 1)
        return (idx[0], dist[0]) if one else (idx, dist)

    def balls(self, centres, radii, chunk):
        """The closed ball of radius radii[i] around each row of the (m, 3)
        array `centres`, in runs of consecutive centres whose padded
        candidate lists hold about `chunk` entries together.

        Yields (lo, hi, sizes, members): centres lo..hi-1, the size of each
        one's ball, and the balls' indices, each ball sorted by (distance,
        index), concatenated in centre order. Candidates are kept by exact
        numpy distance.
        """
        for lo, hi, counts, cand in padded_ball_runs(self.tree, centres, radii, chunk):
            owner = np.repeat(np.arange(lo, hi), counts)
            d = _row_norms(self.points[cand] - centres[owner])
            keep = d <= radii[owner]
            owner, d, cand = owner[keep], d[keep], cand[keep]
            # the lists are in index order and lexsort is stable: each ball
            # comes out in (distance, index) order
            order = np.lexsort((d, owner))
            yield lo, hi, np.bincount(owner - lo, minlength=hi - lo), cand[order]

    def ball_query(self, center, radius):
        """Indices of all points within the closed ball, sorted by
        (distance, index). Radius must be positive."""
        if not radius > 0:
            raise ValueError(f"radius must be positive, got {radius}")
        c = np.asarray(center, dtype=np.float64).reshape(1, 3)
        return next(self.balls(c, np.array([radius], np.float64), _RUN_CHUNK))[3]

    def nearest_others(self):
        """For every indexed point, the index of its nearest other indexed
        point, the lower index on ties: the first of its two nearest
        points (knn) that is not the point itself. A copy of the point
        with a lower index comes before it, and is its nearest other.
        """
        n = len(self.points)
        if n < 2:
            raise ValueError(f"nearest other point needs at least 2 points, got {n}")
        idx = self.knn(self.points, 2)[0]
        return np.where(idx[:, 0] == np.arange(n), idx[:, 1], idx[:, 0])


# single clouds of at least this many points take farthest_point_sampling's
# pruned path: below it, a pick's ball query (about 10 µs) costs more than
# the dense update it saves
_FPS_PRUNE_MIN = 4096


def farthest_point_sampling(points, k, seed_index=0):
    """Greedy max-min subset selection.

    The first pick is `seed_index`; every later pick maximizes the
    distance to the already-selected set, with ties broken by lower
    index. Returns the k selected indices in pick order. `points` may
    also be a (P, n, 3) stack of clouds, with one start or a (P,) array
    of starts: the result is then a (P, k) array whose row p holds, bit
    for bit, the picks of a call on points[p] from its start. Several
    starts on one cloud take np.broadcast_to(cloud, (starts, n, 3)).

    Distances are those of `np.linalg.norm`, sqrt((dx² + dy²) + dz²) in
    that order, computed bit for bit the same but on contiguous columns.
    A stack, or a cloud below _FPS_PRUNE_MIN points, runs one loop in
    which every pick updates every point's min-distance in preallocated
    (P, n) or (n,) buffers. From that size on, a single cloud's pick
    updates only the points a kd-tree finds within its padded reach, its
    own min-distance: that is the largest min-distance left, so a point
    farther away keeps its min-distance under the dense update too.
    Min-distances, picks and ties are the same on both paths.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim not in (2, 3) or pts.shape[-1] != 3:
        raise ValueError("points: expected an (n, 3) cloud or a (P, n, 3) stack, "
                         f"got shape {pts.shape}")
    as_points(pts.reshape(-1, 3))  # raises on non-finite coordinates
    n = pts.shape[-2]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")
    starts = np.asarray(seed_index, dtype=np.intp)
    if starts.ndim and starts.shape != pts.shape[:-2]:
        raise ValueError("seed_index: expected one index, or shape (P,) for a (P, n, 3) "
                         f"stack; got shape {starts.shape} for points of shape {pts.shape}")
    for s in starts.reshape(-1).tolist():
        if not 0 <= s < n:
            raise ValueError(f"seed_index={s} out of range for {n} points")
    if pts.ndim == 3 or n < _FPS_PRUNE_MIN:
        return _fps(pts, k, starts, None)
    return _fps(pts, k, starts, cKDTree(pts))


def _fps(pts, k, starts, tree):
    """farthest_point_sampling's loop over one (n, 3) cloud or, with no
    `tree`, a (P, n, 3) stack, from `starts`, one start or one per cloud
    of the stack. With a kd-tree over the cloud, picks after the seed's
    update only the points within their reach."""
    n = pts.shape[-2]
    x, y, z = (np.ascontiguousarray(pts[..., j]) for j in range(3))
    rows = pts.shape[:-2]
    mindist = np.full(rows + (n,), np.inf)
    flat = mindist.reshape(-1)
    row_base = (np.arange(mindist.size // n) * n).reshape(rows)[()]
    dist = np.empty_like(mindist)
    term = np.empty_like(mindist)
    picks = np.empty((k,) + rows, dtype=np.intp)
    picks[0] = nxt = np.broadcast_to(starts, rows)[()]  # one cloud: scalar arithmetic below
    for i in range(1, k):
        if tree is None or i == 1:  # the seed's reach is infinite: every point
            if rows:
                at = row_base + nxt
                cx, cy, cz = (c.reshape(-1)[at, None] for c in (x, y, z))
            else:
                cx, cy, cz = pts[nxt]
            np.subtract(x, cx, out=dist)
            np.multiply(dist, dist, out=dist)
            np.subtract(y, cy, out=term)
            np.multiply(term, term, out=term)
            np.add(dist, term, out=dist)
            np.subtract(z, cz, out=term)
            np.multiply(term, term, out=term)
            np.add(dist, term, out=dist)
            np.sqrt(dist, out=dist)
            np.minimum(mindist, dist, out=mindist)
        else:
            near = np.array(tree.query_ball_point(pts[nxt], _padded(flat[nxt])), np.intp)
            dx, dy, dz = x[near] - x[nxt], y[near] - y[nxt], z[near] - z[nxt]
            flat[near] = np.minimum(flat[near], np.sqrt((dx * dx + dy * dy) + dz * dz))
        flat[row_base + nxt] = -1.0  # selected points can never win the argmax
        picks[i] = nxt = mindist.argmax(axis=-1)  # first occurrence = lowest index on ties
    return np.ascontiguousarray(picks.T)


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


def read_text(path, kind):
    """The contents of an ASCII file of the given kind (mesh, xyz, ...).
    A byte outside ASCII raises a ValueError that names the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return blob.decode("ascii")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: binary {kind} files are not supported (ASCII only)") from None


def read_xyz(path):
    """Read an ASCII XYZ file: one point per line, three whitespace-
    separated reals; blank lines and lines starting with '#' are skipped.
    Parse errors report the 1-based line number."""
    coords = []
    for lineno, line in enumerate(read_text(path, "xyz").splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 values per line, got {len(parts)}")
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
