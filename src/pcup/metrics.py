"""Evaluation metrics for point sets: Chamfer and Hausdorff distances,
exact earth mover's distance, point-to-surface statistics, and the
uniformity measure used both for evaluation and as a training-loss
backbone.

The earth mover's distance is an exact assignment solve. Its columns are
first priced by a few Sinkhorn scalings, which are near-optimal duals,
and the solver sees the priced costs less each row's minimum: the same
optimal matchings, found with shorter augmenting paths.

The uniformity measure crops subsets S_j around sampled seeds, compares
each subset's size against the expected count n_hat = |Q| * p
(imbalance), and compares nearest-neighbor spacing inside the subset
against the ideal hexagonal-packing spacing d_hat (clutter). The final
value sums imbalance * clutter over subsets.

Subsets and the nearest neighbors inside them are exact, the lower index
on ties, and batched: uniformity_crops takes every subset of several p
values in one pass, from one farthest-point-sampling loop for all their
seeds, one ball query over all seeds, and one segmented search. Every
point's nearest other point in the whole cloud is found once; a member
keeps it whenever it lies in the subset, and only the remaining members
are searched against their subset.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from .geometry import (
    _RUN_CHUNK,
    SpatialIndex,
    _row_norms,
    _runs,
    _workers,
    as_points,
    farthest_point_sampling,
    pairwise_distances,
)
from .mesh import PatchGrower, area_weighted_sample

__all__ = [
    "P_VALUES",
    "Matching",
    "chamfer_distance",
    "hausdorff_distance",
    "emd_exact",
    "expected_ball_count",
    "hexagonal_neighbor_spacing",
    "uniformity_crops",
    "uniformity_subsets",
    "uniformity_report_mesh",
    "point_to_surface_stats",
    "REPORT_HEADER",
    "write_report_csv",
]

P_VALUES = (0.004, 0.006, 0.008, 0.010, 0.012)

# uniformity_crops takes its crops in runs of about this many (crop, point)
# pairs per point of the cloud, so a run's working arrays stay a small
# multiple of the cloud's own. Runs of 65 536 pairs (all 250 crops of a
# collapsed 256-point output at once) left the heap larger after training:
# in about half the runs of `upsample_eval`, a later command's peak RSS
# rose from 206 to 214-246 MB
_CROP_PAIRS_PER_POINT = 4


def _check_pair(a, b):
    a = as_points(a, "A")
    b = as_points(b, "B")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty input")
    return a, b


def _nearest_distances(src, dst):
    """Distance from every src point to its nearest dst point, recomputed
    in plain numpy after a kd-tree index lookup."""
    idx = cKDTree(dst).query(src, workers=_workers(len(src)))[1]
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


# Sinkhorn scalings behind emd_exact's column prices, and the kernel's
# temperature as a fraction of the distance matrix's span: the kernel's
# smallest entry is exp(-200) at any input scale, so nothing underflows
_PRICE_SCALINGS = 30
_PRICE_SPAN_FRACTION = 1.0 / 200.0


def _column_prices(d):
    """Column prices g = eps * log v from _PRICE_SCALINGS Sinkhorn scalings
    (Cuturi, NeurIPS 2013) of the kernel k = exp(-(d - d.min()) / eps),
    eps = _PRICE_SPAN_FRACTION * (d.max() - d.min()), with unit marginals.
    Zero prices when the span is 0: every bijection is then optimal.
    The kernel is one n x n buffer, built in place."""
    lo = d.min()
    span = d.max() - lo
    if span == 0.0:
        return np.zeros(d.shape[1])
    eps = _PRICE_SPAN_FRACTION * span
    k = np.subtract(d, lo)
    k *= -1.0 / eps
    np.exp(k, out=k)
    v = np.ones(d.shape[1])
    for _ in range(_PRICE_SCALINGS):
        u = 1.0 / (k @ v)
        v = 1.0 / (u @ k)
    return eps * np.log(v)


def emd_exact(a, b):
    """Minimum-cost bijection under L2 costs via the assignment algorithm
    (scipy's modified Jonker-Volgenant). Globally optimal. Inputs are
    canonicalized by lexicographic sort, so permuting either input's
    point order cannot change the cost, bit for bit.

    The solver sees priced, row-reduced costs: d - g, with g the column
    prices of a few Sinkhorn scalings (_column_prices), and then each
    row's minimum subtracted, which leaves an exact zero in every row and
    no negative entry. Near-optimal prices are near-optimal duals, so the
    solver's augmenting paths stay short. Every bijection uses each row
    and each column once, so its cost shifts by the same constant and the
    set of optimal matchings is unchanged (the reduced-cost argument of
    Jonker and Volgenant, Computing 1987); the only difference is the
    rounding of each entry. The cost is summed from the unreduced
    distances."""
    a, b = _check_pair(a, b)
    n = len(a)
    if n != len(b):
        raise ValueError(f"size mismatch: {n} vs {len(b)}")
    ia = np.lexsort((a[:, 2], a[:, 1], a[:, 0]))
    ib = np.lexsort((b[:, 2], b[:, 1], b[:, 0]))
    d = pairwise_distances(a[ia], b[ib])
    c = d - _column_prices(d)
    c -= c.min(axis=1, keepdims=True)
    assign = linear_sum_assignment(c)[1]
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


def _crop_partners(pts, members, sizes, nearest, inside):
    """Each crop member's nearest other member in its crop, the lower
    index on ties, or -1 in a crop of fewer than two members.

    `members` holds the crops one after another, `sizes` their lengths;
    `nearest` holds each member's nearest other point in the whole cloud
    (SpatialIndex.nearest_others) and `inside` whether that point lies in
    the member's crop. Such a member keeps it: the cloud holds the crop,
    so nothing in the crop is nearer, and an equally near member has a
    higher index. Every other member of a crop of two or more is searched
    against its crop's members as flat (member, candidate) pairs, in runs
    of about _RUN_CHUNK pairs.
    """
    ends = np.cumsum(sizes)
    crop = np.repeat(np.arange(len(sizes)), sizes)
    partners = np.where(inside, nearest, -1)
    rows = np.flatnonzero(~inside & (sizes[crop] >= 2))
    counts = sizes[crop[rows]]
    for lo, hi in _runs(counts, _RUN_CHUNK):
        run, run_counts = rows[lo:hi], counts[lo:hi]
        offsets = np.cumsum(run_counts) - run_counts
        owner = np.repeat(run, run_counts)
        # the candidates of a row are its crop's members, in crop order
        shift = np.repeat(ends[crop[run]] - run_counts - offsets, run_counts)
        cand = members[np.arange(len(owner)) + shift]
        me = members[owner]
        d = _row_norms(pts[cand] - pts[me])
        d[cand == me] = np.inf
        best = np.minimum.reduceat(d, offsets)
        ties = np.where(d == np.repeat(best, run_counts), cand, len(pts))
        partners[run] = np.minimum.reduceat(ties, offsets)
    return partners


def uniformity_crops(index, draws, seed_count):
    """Every crop of several uniformity draws over one cloud, exact, in
    one batched pass.

    `index` is a SpatialIndex over the cloud; `draws` holds (p, rng)
    pairs. Draw i picks m = min(seed_count, n) seeds by farthest point
    sampling from the start np.random.default_rng(rng).integers(n), in
    one dense loop over a read-only stack of the cloud, one row per draw;
    its crop j is the closed ball of radius sqrt(p) around seed j.
    Membership comes from one SpatialIndex.balls pass over all crop
    centres, each with its own radius, in runs of about
    _CROP_PAIRS_PER_POINT * n candidates, so a crop holds what
    SpatialIndex.ball_query returns, in its order.

    Returns (sizes, members, partners): the (draws, m) member counts,
    sizes[i, j] that of draw i's crop j; the crops' members, one crop
    after another in sizes' row-major order; and each member's nearest
    other member in its crop, the lower index on ties, or -1 in a crop of
    fewer than two members.
    """
    pts = index.points
    n = len(pts)
    for p, _ in draws:
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
    if seed_count < 1:
        raise ValueError(f"seed_count must be >= 1, got {seed_count}")
    radii = [math.sqrt(p) for p, _ in draws]
    starts = [int(np.random.default_rng(rng).integers(n)) for _, rng in draws]
    if n == 1:  # every crop is the one point, with no partner
        return (np.ones((len(draws), 1), np.intp), np.zeros(len(draws), np.intp),
                np.full(len(draws), -1))
    m = min(seed_count, n)
    stack = np.broadcast_to(pts, (len(draws), n, 3))
    centres = pts[farthest_point_sampling(stack, m, starts).reshape(-1)]
    radius = np.repeat(radii, m)
    nearest = index.nearest_others()
    sizes = np.zeros(len(centres), np.intp)
    members, nn, inside = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0, bool)]
    for lo, hi, counts, crops in index.balls(centres, radius, _CROP_PAIRS_PER_POINT * n):
        owner = np.repeat(np.arange(lo, hi), counts)
        sizes[lo:hi] = counts
        members.append(crops)
        nn.append(nearest[crops])
        # a point is in a crop exactly when balls' distance test keeps it
        inside.append(_row_norms(pts[nn[-1]] - centres[owner]) <= radius[owner])
    members, nn, inside = (np.concatenate(parts) for parts in (members, nn, inside))
    return sizes.reshape(len(draws), m), members, _crop_partners(pts, members, sizes, nn, inside)


def uniformity_subsets(points, p, seed_count, rng):
    """Freeze the discrete structure of the uniformity measure at one area
    fraction p: uniformity_crops for a single draw.

    Picks min(seed_count, n) seeds by farthest point sampling from an
    rng-chosen start, crops the closed ball of radius sqrt(p) around each
    seed, and records each member's nearest neighbor inside its subset,
    the lower index on ties.

    Returns (r_d, n_hat, subsets) where each subset is a tuple
    (member indices, nearest-neighbor indices or None, d_hat).
    """
    pts = as_points(points)
    sizes, members, partners = uniformity_crops(SpatialIndex(pts), [(p, rng)], seed_count)
    r_d = math.sqrt(p)
    n_hat = expected_ball_count(len(pts), p)
    cuts = np.cumsum(sizes[0])[:-1]
    subsets = []
    for m, nn in zip(np.split(members, cuts), np.split(partners, cuts)):
        if len(m) >= 2:
            subsets.append((m, nn, hexagonal_neighbor_spacing(r_d, len(m))))
        else:
            subsets.append((m, None, 0.0))
    return r_d, n_hat, subsets


def _crop_value(n_hat, d_hat, gaps):
    """One crop's imbalance * clutter from its members' gaps to their
    partners."""
    imbalance = (len(gaps) - n_hat) ** 2 / n_hat
    return imbalance * float((((gaps - d_hat) ** 2) / d_hat).sum())


# uniformity_report_mesh's graph distances are taken for this many seeds at a
# time, and one block of seeds x pool distances is held at once (64 x 20 000
# float64, 9.8 MiB, in `pcup eval`). On 2048- and 8192-point clouds with a
# 20 000-point pool the report traces a 17.6-17.8 MiB peak; blocks of 128,
# with the previous block still held while the next was computed, traced
# 45.5-45.8 MiB
_REPORT_SEED_CHUNK = 64


def _add_block(totals, dists, pts, attach, nearest, radii, limit):
    """Add the crop values of one block of seed rows of graph distances
    to `totals`, row by row and in P_VALUES order within a row, so the
    sums do not depend on the block size. The block is freed when this
    returns."""
    n = len(pts)
    for row in dists:
        reach = row[attach]  # graph distance of each query point's attachment
        # the crops of a row are nested: each is a subset of the widest
        widest = (reach <= limit).nonzero()[0]
        crops = [(p, radii[p], widest[reach[widest] <= radii[p]]) for p in P_VALUES]
        crops = [crop for crop in crops if len(crop[2]) >= 2]  # else clutter 0
        if not crops:
            continue
        members = np.concatenate([m for _, _, m in crops])
        sizes = np.array([len(m) for _, _, m in crops])
        nn = nearest[members]
        inside = reach[nn] <= np.repeat([r for _, r, _ in crops], sizes)
        partners = _crop_partners(pts, members, sizes, nn, inside)
        gaps = np.linalg.norm(pts[members] - pts[partners], axis=1)
        end = 0
        for p, r, m in crops:
            start, end = end, end + len(m)
            d_hat = hexagonal_neighbor_spacing(r, len(m))
            totals[p] += _crop_value(expected_ball_count(n, p), d_hat, gaps[start:end])


def uniformity_report_mesh(points, mesh, seed_count, rng, pool_size):
    """Uniformity evaluated with geodesic crops on the actual surface.

    Seeds are drawn uniformly from a dense area-weighted pool; each query
    point is attached to its nearest pool point; subset S_j holds the
    query points whose attachment lies within graph distance R_p of seed
    j, where pi * R_p^2 = p * total_area (the geodesic disk covering an
    area fraction p). The formula then matches losses.uniform_loss's with
    d_hat computed from R_p. Returns a tuple of one value for each p of
    P_VALUES, in that order: the uniformity columns of REPORT_HEADER.
    """
    pts = as_points(points)
    if seed_count < 1:
        raise ValueError(f"seed_count must be >= 1, got {seed_count}")
    rng = np.random.default_rng(rng)
    pool = area_weighted_sample(mesh, pool_size, rng)
    grower = PatchGrower(pool)
    n = len(pts)
    attach = grower.index.tree.query(pts, workers=_workers(n))[1]
    nearest = SpatialIndex(pts).nearest_others() if n >= 2 else None
    radii = {p: math.sqrt(p * mesh.total_area / math.pi) for p in P_VALUES}
    limit = max(radii.values()) * (1.0 + 1e-9)
    seeds = rng.choice(len(pool), size=min(seed_count, len(pool)), replace=False)
    totals = {p: 0.0 for p in P_VALUES}
    for lo in range(0, len(seeds), _REPORT_SEED_CHUNK):
        block = seeds[lo : lo + _REPORT_SEED_CHUNK]
        # Dijkstra runs on each source on its own, so a row's distances do
        # not depend on the block it is taken in
        _add_block(totals, np.atleast_2d(grower.distances_from(block, limit=limit)),
                   pts, attach, nearest, radii, limit)
    return tuple(totals[p] for p in P_VALUES)


# ---------------------------------------------------------------------------
# point-to-surface and reporting


def point_to_surface_stats(points, mesh):
    """(mean, max) distance from each point to the mesh surface."""
    d = mesh.distances_to_surface(points)
    return float(d.mean()), float(d.max())


REPORT_HEADER = "name,cd,hd,p2f_mean,uni_p0.4pct,uni_p0.6pct,uni_p0.8pct,uni_p1.0pct,uni_p1.2pct"


def write_report_csv(path, rows):
    """Write evaluation rows: each row is (name, cd, hd, p2f_mean,
    uniformity), with uniformity_report_mesh's tuple of values in P_VALUES
    order. Values are written in full precision; presentation scaling is
    left to callers."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(REPORT_HEADER + "\n")
        for name, cd, hd, p2f_mean, uniformity in rows:
            uni = ",".join(repr(v) for v in uniformity)
            fh.write(f"{name},{cd!r},{hd!r},{p2f_mean!r},{uni}\n")
