"""Synthetic 2D point layouts on the unit disk (embedded at z = 0) with
known uniformity ordering — hexagonal < random < clustered — plus a tiny
SVG scatter writer for visual inspection."""

import math

import numpy as np

__all__ = ["hexagonal_disk", "random_disk", "clustered_disk", "scatter_svg"]


def _embed(xy):
    out = np.zeros((len(xy), 3))
    out[:, :2] = xy
    return out


def hexagonal_disk(n):
    """~n points of a triangular lattice clipped to the unit disk.

    The pitch makes the lattice density match n points per unit-disk
    area; the n sites nearest the origin are kept, so the result is a
    filled hexagonal patch of exactly n points."""
    if n < 1:
        raise ValueError("need at least one point")
    # one lattice site owns a hexagonal cell of area sqrt(3)/2 * pitch^2
    pitch = math.sqrt(2.0 * math.pi / (n * math.sqrt(3.0)))
    row_height = pitch * math.sqrt(3.0) / 2.0
    rows = int(math.ceil(1.5 / row_height)) + 2
    cols = int(math.ceil(1.5 / pitch)) + 2
    sites = []
    for j in range(-rows, rows + 1):
        offset = 0.5 * pitch if j % 2 else 0.0
        for i in range(-cols, cols + 1):
            sites.append((i * pitch + offset, j * row_height))
    sites = np.array(sites)
    order = np.lexsort((np.arange(len(sites)), np.linalg.norm(sites, axis=1)))
    return _embed(sites[order[:n]])


def random_disk(n, seed=0):
    """n points drawn uniformly over the unit disk (area-correct radius
    via the square-root trick)."""
    if n < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    radius = np.sqrt(rng.uniform(0.0, 1.0, n))
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    return _embed(np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]))


def clustered_disk(n, seed=0):
    """n points in 25 tight Gaussian clumps (sigma 0.03) around random
    disk centers — deliberately non-uniform."""
    if n < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    clusters = 25
    centers = random_disk(clusters, seed=seed + 1)[:, :2]
    owner = rng.integers(0, clusters, n)
    xy = centers[owner] + rng.normal(0.0, 0.03, (n, 2))
    norms = np.linalg.norm(xy, axis=1)
    outside = norms > 1.0
    xy[outside] /= norms[outside, None]
    return _embed(xy)


def scatter_svg(path, points):
    """Write a standalone 480-pixel SVG scatter plot of the
    xy-projection."""
    size, margin = 480, 20
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError("expected an (n, 2+) array of points")
    xy = pts[:, :2]
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    usable = size - 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for x, y in xy:
        px = margin + (x - lo[0]) / span * usable
        py = size - margin - (y - lo[1]) / span * usable
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.0" fill="#1f6f8b"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
