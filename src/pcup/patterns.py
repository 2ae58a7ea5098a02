"""Synthetic 2D point layouts on the unit disk (embedded at z = 0) with
known uniformity ordering: hexagonal < random < clustered."""

import math

import numpy as np

__all__ = ["hexagonal_disk", "random_disk", "clustered_disk"]


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
