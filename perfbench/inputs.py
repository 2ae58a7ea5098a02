"""Procedural inputs for the benchmark, all derived from the run's seed.

Meshes are fixed shapes (a subdivided icosphere, an ellipsoid made from
it, a regular tetrahedron) turned by a seed-derived rotation and written
as ASCII OFF files, so nothing is downloaded and the amount of work
hardly depends on the seed.
"""

import math
import os

import numpy as np


def tetrahedron():
    s = 1.0 / math.sqrt(3.0)
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float) * s
    faces = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return verts, faces


def icosphere(subdivisions):
    """Unit sphere as a subdivided icosahedron (20 * 4**subdivisions faces)."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = [tuple(np.array(v, dtype=float) / math.sqrt(1.0 + phi * phi)) for v in verts]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        midpoints = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoints:
                m = np.array(verts[i]) + np.array(verts[j])
                midpoints[key] = len(verts)
                verts.append(tuple(m / np.linalg.norm(m)))
            return midpoints[key]

        finer = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            finer += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = finer
    return np.array(verts), np.array(faces)


def ellipsoid(subdivisions):
    verts, faces = icosphere(subdivisions)
    return verts * np.array([1.0, 0.8, 0.6]), faces


SHAPES = {"icosphere": lambda: icosphere(3), "ellipsoid": lambda: ellipsoid(3),
          "tetrahedron": tetrahedron}


def rotation(rng):
    """Uniform random rotation from a normalized quaternion."""
    w, x, y, z = (q := rng.normal(size=4)) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def write_off(path, verts, faces):
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [" ".join(f"{c:.17g}" for c in v) for v in verts]
    lines += ["3 " + " ".join(str(int(i)) for i in f) for f in faces]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_meshes(directory, names, rng):
    """Write each named shape, turned by its own rotation, as <name>.off."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in names:
        verts, faces = SHAPES[name]()
        paths[name] = os.path.join(directory, name + ".off")
        write_off(paths[name], verts @ rotation(rng).T, faces)
    return paths
