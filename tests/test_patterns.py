"""Reference disk layouts."""

import math

import numpy as np
import pytest

from pcup import patterns
from pcup.geometry import pairwise_distances


def nearest_neighbor_distances(pts):
    d = pairwise_distances(pts, pts)
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


class TestHexagonal:
    def test_exact_count_planar_and_bounded(self):
        pts = patterns.hexagonal_disk(625)
        assert pts.shape == (625, 3)
        assert np.all(pts[:, 2] == 0)
        # density matches the unit disk, so the patch stays near it
        assert np.linalg.norm(pts[:, :2], axis=1).max() < 1.1

    def test_every_point_sits_at_lattice_pitch(self):
        n = 100
        pts = patterns.hexagonal_disk(n)
        pitch = math.sqrt(2.0 * math.pi / (n * math.sqrt(3.0)))
        nn = nearest_neighbor_distances(pts)
        assert np.abs(nn - pitch).max() < 1e-9 * pitch

    def test_deterministic(self):
        assert np.array_equal(patterns.hexagonal_disk(300), patterns.hexagonal_disk(300))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            patterns.hexagonal_disk(0)


class TestRandom:
    def test_count_planar_inside_disk(self):
        pts = patterns.random_disk(500, seed=3)
        assert pts.shape == (500, 3)
        assert np.all(pts[:, 2] == 0)
        assert np.linalg.norm(pts[:, :2], axis=1).max() <= 1.0

    def test_area_uniform(self):
        # for uniform area density r^2 ~ U(0,1): mean 1/2, var 1/12
        pts = patterns.random_disk(2000, seed=7)
        r2 = (pts[:, :2] ** 2).sum(axis=1)
        assert abs(r2.mean() - 0.5) < 3 * math.sqrt(1 / 12 / 2000)

    def test_seeded(self):
        a = patterns.random_disk(50, seed=1)
        assert np.array_equal(a, patterns.random_disk(50, seed=1))
        assert not np.array_equal(a, patterns.random_disk(50, seed=2))


class TestClustered:
    def test_count_and_bounds(self):
        pts = patterns.clustered_disk(500, seed=0)
        assert pts.shape == (500, 3)
        assert np.linalg.norm(pts[:, :2], axis=1).max() <= 1.0 + 1e-12

    def test_much_tighter_spacing_than_random(self):
        n = 500
        clus = np.median(nearest_neighbor_distances(patterns.clustered_disk(n, seed=0)))
        rand = np.median(nearest_neighbor_distances(patterns.random_disk(n, seed=0)))
        assert clus < 0.5 * rand
