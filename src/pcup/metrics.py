"""Evaluation metrics for point sets: Chamfer and Hausdorff distances,
exact earth mover's distance, point-to-surface statistics, and the
uniformity measure used both for evaluation and as a training-loss
backbone.

The uniformity measure crops subsets S_j around sampled seeds, compares
each subset's size against the expected count n_hat = |Q| * p
(imbalance), and compares nearest-neighbor spacing inside the subset
against the ideal hexagonal-packing spacing d_hat (clutter). The final
value sums imbalance * clutter over subsets.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from .geometry import SpatialIndex, as_points, farthest_point_sampling, pairwise_distances
from .mesh import PatchGrower, area_weighted_sample

__all__ = [
    "P_VALUES",
    "Matching",
    "UniformityReport",
    "chamfer_distance",
    "hausdorff_distance",
    "emd_exact",
    "expected_ball_count",
    "hexagonal_neighbor_spacing",
    "uniformity_subsets",
    "uniformity_loss_value",
    "uniformity_report_mesh",
    "point_to_surface_stats",
    "REPORT_HEADER",
    "write_report_csv",
]

P_VALUES = (0.004, 0.006, 0.008, 0.010, 0.012)


def _check_pair(a, b):
    a = as_points(a, "A")
    b = as_points(b, "B")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty input")
    return a, b


def _nearest_distances(src, dst):
    """Distance from every src point to its nearest dst point, recomputed
    in plain numpy after a kd-tree index lookup."""
    idx = cKDTree(dst).query(src)[1]
    return np.linalg.norm(src - dst[idx], axis=1)


def chamfer_distance(a, b):
    """0.5 * (mean nearest-neighbor distance A->B + mean B->A)."""
    a, b = _check_pair(a, b)
    return 0.5 * (float(_nearest_distances(a, b).mean()) + float(_nearest_distances(b, a).mean()))


def hausdorff_distance(a, b):
    """max(max nearest-neighbor distance A->B, max B->A)."""
    a, b = _check_pair(a, b)
    return max(float(_nearest_distances(a, b).max()), float(_nearest_distances(b, a).max()))


@dataclass
class Matching:
    """A bijection between two equal-size point sets: permutation[i] is
    the B index matched to A point i; cost is the summed L2 distance."""

    permutation: np.ndarray
    cost: float


def emd_exact(a, b):
    """Minimum-cost bijection under L2 costs via the assignment algorithm
    (scipy's modified Jonker-Volgenant). Globally optimal. Inputs are
    canonicalized by lexicographic sort, so permuting either input's
    point order cannot change the cost, bit for bit."""
    a, b = _check_pair(a, b)
    n = len(a)
    if n != len(b):
        raise ValueError(f"size mismatch: {n} vs {len(b)}")
    ia = np.lexsort((a[:, 2], a[:, 1], a[:, 0]))
    ib = np.lexsort((b[:, 2], b[:, 1], b[:, 0]))
    d = pairwise_distances(a[ia], b[ib])
    assign = linear_sum_assignment(d)[1]
    permutation = np.empty(n, dtype=np.intp)
    permutation[ia] = ib[assign]
    return Matching(permutation, float(d[np.arange(n), assign].sum()))


# the name perfbench/tracer.py times the matcher under
emd_approx = emd_exact


# ---------------------------------------------------------------------------
# uniformity


def expected_ball_count(n_points, p):
    """Expected subset size n_hat = |Q| * p for an area fraction p."""
    return n_points * p


def hexagonal_neighbor_spacing(radius, subset_size):
    """Ideal nearest-neighbor spacing d_hat for `subset_size` points
    hexagonally packed in a disk of the given radius."""
    return math.sqrt(2.0 * math.pi * radius * radius / (subset_size * math.sqrt(3.0)))


def _nearest_in_crop(pts, members):
    """Index of each member's nearest other member of the crop, the lower
    index on ties."""
    inner = pairwise_distances(pts[members], pts[members])
    np.fill_diagonal(inner, np.inf)
    return members[np.argmin(inner, axis=1)]


def uniformity_subsets(points, p, seed_count, rng):
    """Freeze the discrete structure of the uniformity measure.

    Picks min(seed_count, n) seeds by farthest point sampling from an
    rng-chosen start, crops the closed ball of radius sqrt(p) around each
    seed, and records each member's nearest neighbor inside its subset.

    Returns (r_d, n_hat, subsets) where each subset is a tuple
    (member indices, nearest-neighbor indices or None, d_hat).
    """
    pts = as_points(points)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if seed_count < 1:
        raise ValueError(f"seed_count must be >= 1, got {seed_count}")
    rng = np.random.default_rng(rng)
    n = len(pts)
    r_d = math.sqrt(p)
    n_hat = expected_ball_count(n, p)
    index = SpatialIndex(pts)
    start = int(rng.integers(n))
    seeds = farthest_point_sampling(pts, min(seed_count, n), start)
    subsets = []
    for s in seeds:
        members = index.ball_query(pts[s], r_d)
        if len(members) >= 2:
            nn = _nearest_in_crop(pts, members)
            d_hat = hexagonal_neighbor_spacing(r_d, len(members))
        else:
            nn = None
            d_hat = 0.0
        subsets.append((members, nn, d_hat))
    return r_d, n_hat, subsets


def _subset_value(pts, n_hat, members, nn, d_hat):
    imbalance = (len(members) - n_hat) ** 2 / n_hat
    if nn is None:
        return 0.0  # no nearest neighbor exists, clutter is defined as 0
    gaps = np.linalg.norm(pts[members] - pts[nn], axis=1)
    clutter = float((((gaps - d_hat) ** 2) / d_hat).sum())
    return imbalance * clutter


def uniformity_loss_value(points, p, seed_count, rng):
    """Scalar uniformity value at one area fraction p: the sum over
    subsets of imbalance * clutter. Zero only for subsets that match both
    the expected count and the hexagonal spacing exactly."""
    pts = as_points(points)
    _, n_hat, subsets = uniformity_subsets(pts, p, seed_count, rng)
    return float(sum(_subset_value(pts, n_hat, m, nn, dh) for m, nn, dh in subsets))


@dataclass
class UniformityReport:
    """Uniformity values keyed by area fraction p, plus the seed count
    used to compute them."""

    values: dict
    seed_count: int

    def ordered_values(self):
        return [self.values[p] for p in sorted(self.values)]


def uniformity_report_mesh(points, mesh, seed_count=1000, rng=0, pool_size=20000,
                           graph_k=10, p_values=P_VALUES, chunk=128):
    """Uniformity evaluated with geodesic crops on the actual surface.

    Seeds are drawn uniformly from a dense area-weighted pool; each query
    point is attached to its nearest pool point; subset S_j holds the
    query points whose attachment lies within graph distance R_p of seed
    j, where pi * R_p^2 = p * total_area (the geodesic disk covering an
    area fraction p). The formula then matches uniformity_loss_value with
    d_hat computed from R_p.
    """
    pts = as_points(points)
    rng = np.random.default_rng(rng)
    pool = area_weighted_sample(mesh, pool_size, rng)
    grower = PatchGrower(pool, k=graph_k)
    attach = cKDTree(pool.positions).query(pts)[1]
    n = len(pts)
    radii = {p: math.sqrt(p * mesh.total_area / math.pi) for p in p_values}
    limit = max(radii.values()) * (1.0 + 1e-9)
    seeds = rng.choice(len(pool), size=min(seed_count, len(pool)), replace=False)
    totals = {p: 0.0 for p in p_values}
    for lo in range(0, len(seeds), chunk):
        block = seeds[lo : lo + chunk]
        dists = np.atleast_2d(grower.distances_from(block, limit=limit))
        for row in dists:
            reach = row[attach]  # graph distance of each query point's attachment
            for p in p_values:
                members = np.nonzero(reach <= radii[p])[0]
                if len(members) < 2:
                    continue  # clutter 0, contributes nothing
                nn = _nearest_in_crop(pts, members)
                d_hat = hexagonal_neighbor_spacing(radii[p], len(members))
                n_hat = expected_ball_count(n, p)
                totals[p] += _subset_value(pts, n_hat, members, nn, d_hat)
    return UniformityReport(totals, len(seeds))


# ---------------------------------------------------------------------------
# point-to-surface and reporting


def point_to_surface_stats(points, mesh):
    """(mean, max) distance from each point to the mesh surface."""
    d = mesh.distances_to_surface(points)
    return float(d.mean()), float(d.max())


REPORT_HEADER = "name,cd,hd,p2f_mean,uni_p0.4pct,uni_p0.6pct,uni_p0.8pct,uni_p1.0pct,uni_p1.2pct"


def write_report_csv(path, rows):
    """Write evaluation rows: each row is (name, cd, hd, p2f_mean,
    UniformityReport). Values are written in full precision; presentation
    scaling is left to callers."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(REPORT_HEADER + "\n")
        for name, cd, hd, p2f_mean, report in rows:
            uni = ",".join(repr(v) for v in report.ordered_values())
            fh.write(f"{name},{cd!r},{hd!r},{p2f_mean!r},{uni}\n")
