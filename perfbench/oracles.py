"""Output checks for the benchmark's operations.

Every check compares an output with a computation made here, apart from
the program (brute-force distances, scipy's exact assignment), or with a
property the method must have. None compares with a stored output.
Each check raises CheckFailed with a one-line reason.
"""

import csv
import json
import math
import os

import numpy as np
from scipy.optimize import linear_sum_assignment


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def read_points(path):
    """Plain parse of an .xyz file: three reals per line."""
    pts = np.loadtxt(path, dtype=np.float64, ndmin=2)
    require(pts.shape[1:] == (3,), f"{path}: expected 3 columns, got {pts.shape}")
    return pts


def read_off(path):
    with open(path, encoding="ascii") as fh:
        tokens = fh.read().split()
    nv, nf = int(tokens[1]), int(tokens[2])
    body = tokens[4:]
    verts = np.array(body[: 3 * nv], dtype=np.float64).reshape(nv, 3)
    faces = np.array(body[3 * nv: 3 * nv + 4 * nf], dtype=np.intp).reshape(nf, 4)[:, 1:]
    return verts, faces


def normalized_corners(mesh_path):
    """(m, 3, 3) triangle corners of the mesh after the unit-sphere
    normalization every pcup command applies on load."""
    verts, faces = read_off(mesh_path)
    verts = verts - verts.mean(axis=0)
    verts /= np.sqrt((verts * verts).sum(axis=1)).max()
    return verts[faces]


def surface_distances(points, corners, chunk=64):
    """Brute-force distance from each point to the nearest of all
    triangles: the in-plane distance where the projection falls inside a
    triangle, otherwise the nearest of its three edges."""
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    normal = np.cross(b - a, c - a)
    normal /= np.sqrt((normal * normal).sum(axis=1))[:, None]
    edges = [(a, b - a), (b, c - b), (c, a - c)]
    out = np.empty(len(points))
    for lo in range(0, len(points), chunk):
        p = points[lo: lo + chunk, None, :]
        height = ((p - a) * normal).sum(axis=2)
        foot = p - height[..., None] * normal
        inside = np.ones(height.shape, dtype=bool)
        best = np.full(height.shape, np.inf)
        for start, edge in edges:
            # the foot is inside when it lies on the inner side of all edges
            side = (np.cross(edge, foot - start) * normal).sum(axis=2)
            inside &= side >= 0.0
            t = np.clip(((p - start) * edge).sum(axis=2) / (edge * edge).sum(axis=1), 0.0, 1.0)
            gap = p - (start + t[..., None] * edge)
            best = np.minimum(best, np.sqrt((gap * gap).sum(axis=2)))
        best = np.where(inside, np.abs(height), best)
        out[lo: lo + chunk] = best.min(axis=1)
    return out


def nearest_both_ways(a, b, chunk=128):
    """Brute-force nearest-neighbour distances a->b and b->a."""
    a_to_b = np.empty(len(a))
    b_sq = np.full(len(b), np.inf)
    for lo in range(0, len(a), chunk):
        diff = a[lo: lo + chunk, None, :] - b[None, :, :]
        sq = (diff * diff).sum(axis=2)
        a_to_b[lo: lo + chunk] = np.sqrt(sq.min(axis=1))
        np.minimum(b_sq, sq.min(axis=0), out=b_sq)
    return a_to_b, np.sqrt(b_sq)


def close(value, reference, rel):
    return abs(value - reference) <= rel * max(abs(reference), 1e-300)


# ---------------------------------------------------------------------------
# per-command checks


def check_archive(archive, n_input, rate, patches_per_mesh, mesh_paths):
    """Every mesh yields its patches; each patch holds rN ground-truth
    points normalized into the unit sphere and N input points drawn from
    them; mapped back, the ground truth lies on the source mesh."""
    with open(os.path.join(archive, "config.txt"), encoding="ascii") as fh:
        require(f"n_input = {n_input}\n" in fh.read(), "config.txt lacks n_input")
    for stem, mesh_path in mesh_paths.items():
        with open(os.path.join(archive, stem, "meta.json"), encoding="ascii") as fh:
            meta = json.load(fh)
        require(len(meta["patches"]) == patches_per_mesh,
                f"{stem}: {len(meta['patches'])} of {patches_per_mesh} patches")
        corners = normalized_corners(mesh_path)
        for rec in meta["patches"]:
            base = os.path.join(archive, stem, f"patch_{rec['index']:04d}")
            gt = read_points(base + "_gt.xyz")
            inp = read_points(base + "_input.xyz")
            require(gt.shape == (rate * n_input, 3) and inp.shape == (n_input, 3),
                    f"{base}: shapes {gt.shape} / {inp.shape}")
            require(np.isfinite(gt).all() and np.isfinite(inp).all(), f"{base}: non-finite")
            require(len(np.unique(gt, axis=0)) == len(gt), f"{base}: repeated gt points")
            gt_rows = {tuple(r) for r in gt}
            require(all(tuple(r) in gt_rows for r in inp), f"{base}: input point not in ground truth")
            radius = np.sqrt((gt * gt).sum(axis=1)).max()
            require(abs(radius - 1.0) < 1e-5, f"{base}: gt radius {radius}")
            require(np.abs(gt.mean(axis=0)).max() < 1e-5, f"{base}: gt not centred")
            on_mesh = gt[::64] * rec["scale"] + np.array(rec["centroid"])
            off = surface_distances(on_mesh, corners).max()
            require(off < 1e-5, f"{base}: gt lies {off:.3g} off the mesh")


def check_training(run_dir, archive, iterations):
    """losses.csv has one finite row per iteration; the final checkpoint
    loads, and on the first archive patch its output's reconstruction
    cost lies between the exact assignment optimum and (1 + epsilon)
    times it."""
    from pcup import autodiff, losses, networks, training

    with open(os.path.join(run_dir, "losses.csv"), encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == iterations, f"losses.csv: {len(rows)} rows for {iterations} iterations")
    for i, row in enumerate(rows, start=1):
        require(int(row["step"]) == i, f"losses.csv: row {i} has step {row['step']}")
        values = [float(v) for k, v in row.items() if k != "step"]
        require(all(math.isfinite(v) for v in values), f"losses.csv: non-finite value at step {i}")

    gparams, _, cfg = training.load_checkpoint(os.path.join(run_dir, f"ckpt_{iterations:06d}"))
    mesh_dir = sorted(d for d in os.listdir(archive) if os.path.isdir(os.path.join(archive, d)))[0]
    inputs = read_points(os.path.join(archive, mesh_dir, "patch_0000_input.xyz"))
    target = read_points(os.path.join(archive, mesh_dir, "patch_0000_gt.xyz"))
    out = networks.generate(gparams, cfg.generator_config(), inputs)
    require(out.shape == target.shape and np.isfinite(out).all(), f"generator output {out.shape}")
    # the matching tolerance training uses; an exact matching has none
    eps = cfg.emd_epsilon
    node, _ = losses.reconstruction_loss(autodiff.constant(out), target, eps)
    cost = float(node.value[0, 0])
    diff = out[:, None, :] - target[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    rows_, cols = linear_sum_assignment(dist)
    optimum = float(dist[rows_, cols].sum())
    require(optimum * (1 - 1e-9) <= cost <= optimum * (1 + eps) * (1 + 1e-9),
            f"reconstruction cost {cost!r} outside [{optimum!r}, (1+{eps}) x]")


def check_upsample(pred_path, n_points, rate):
    """Exactly rate * n distinct finite points."""
    pred = read_points(pred_path)
    require(pred.shape == (rate * n_points, 3), f"upsample: shape {pred.shape}")
    require(np.isfinite(pred).all(), "upsample: non-finite points")
    require(len(np.unique(pred, axis=0)) == len(pred), "upsample: repeated points")
    return pred


def check_eval(report_path, pred_path, gt_path, mesh_path, surface_stats):
    """CD and HD equal brute-force values to 1e-12 relative. On a sample
    of points the program's point-to-surface distances equal brute-force
    ones over every triangle, and the reported mean stays below the mean
    distance to the on-surface ground truth; the program's P2F of that
    ground truth is ~0. The uniformity values are finite and >= 0."""
    with open(report_path, encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) == 2 and len(rows[1]) == 9, f"report: {len(rows)} rows")
    cd, hd, p2f = (float(v) for v in rows[1][1:4])
    uniformity = [float(v) for v in rows[1][4:]]
    pred = read_points(pred_path)
    gt = read_points(gt_path)
    p_to_g, g_to_p = nearest_both_ways(pred, gt)
    ref_cd = 0.5 * (p_to_g.mean() + g_to_p.mean())
    ref_hd = max(p_to_g.max(), g_to_p.max())
    require(close(cd, ref_cd, 1e-12), f"CD {cd!r} != brute force {ref_cd!r}")
    require(close(hd, ref_hd, 1e-12), f"HD {hd!r} != brute force {ref_hd!r}")

    corners = normalized_corners(mesh_path)
    sample = pred[:: max(1, len(pred) // 128)]
    brute = surface_distances(sample, corners)
    mean, top = surface_stats(sample)
    require(close(mean, brute.mean(), 1e-12) and close(top, brute.max(), 1e-12),
            f"P2F of a sample ({mean!r}, {top!r}) != brute force ({brute.mean()!r}, {brute.max()!r})")
    # every ground-truth point is on the surface (up to the 6 digits of .xyz)
    require(0.0 <= p2f <= p_to_g.mean() + 1e-5, f"P2F {p2f!r} above the mean distance to the ground truth")
    gt_mean, gt_max = surface_stats(gt[:: max(1, len(gt) // 256)])
    require(gt_max < 1e-5, f"P2F of the ground truth reaches {gt_max:.3g}")
    require(all(math.isfinite(u) and u >= 0.0 for u in uniformity),
            f"uniformity values {uniformity}")
