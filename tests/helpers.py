"""Shared test utilities: independent brute-force oracles and small
procedural fixture meshes. Oracles are written with none of the package
shortcuts so they can disagree with the implementation."""

import heapq
import itertools
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from pcup import autodiff as ad
from pcup import metrics
from pcup.mesh import point_triangle_distances

# ---------------------------------------------------------------------------
# brute-force oracles


def brute_knn(points, query, k):
    """k nearest indices by exhaustive sort on (distance, index)."""
    d = np.linalg.norm(points - query, axis=1)
    order = sorted(range(len(points)), key=lambda i: (d[i], i))
    return np.array(order[:k])


def brute_ball(points, query, radius):
    """Closed-ball membership by exhaustive comparison, sorted by
    (distance, index).

    Distances use the package's formula (sqrt of an einsum over the
    coordinate differences): `np.linalg.norm(axis=1)` differs from it by
    an ulp on some rows, which reorders exact ties such as a lattice's.
    """
    diff = points - query
    d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    hits = [i for i in range(len(points)) if d[i] <= radius]
    return np.array(sorted(hits, key=lambda i: (d[i], i)))


def brute_crop_nearest(points, members):
    """Each crop member's nearest other member: dense distances over the
    members in index order, self excluded, the lower index on ties.

    Distances use the package's formula (sqrt of an einsum over the
    coordinate differences), so ties and near-ties compare the same bits.
    """
    members = np.asarray(members)
    cols = np.sort(members)
    sub = points[cols]
    diff = sub[:, None, :] - sub[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(d, np.inf)
    first_at_min = np.argmax(d == d.min(axis=1, keepdims=True), axis=1)
    return cols[first_at_min][np.searchsorted(cols, members)]


def brute_fps(points, k, seed_index=0):
    """Greedy farthest point sampling, straightforward O(n*k) loop."""
    chosen = [seed_index]
    dist = np.linalg.norm(points - points[seed_index], axis=1)
    dist[seed_index] = -np.inf
    while len(chosen) < k:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        d_new = np.linalg.norm(points - points[nxt], axis=1)
        dist = np.minimum(dist, d_new)
        dist[nxt] = -np.inf
    return np.array(chosen)


def brute_assignment_cost(a, b):
    """Optimal bijection cost by trying every permutation (len <= 8)."""
    n = len(a)
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(d[i, perm[i]] for i in range(n))
        best = min(best, cost)
    return best


def brute_point_triangle(p, a, b, c, grid=400):
    """Min distance from p to triangle abc by dense barycentric search.
    Accurate to ~edge/grid; use as a loose oracle only."""
    u = np.linspace(0.0, 1.0, grid)
    best = math.inf
    for s in u:
        t = np.linspace(0.0, 1.0 - s, max(2, int((1.0 - s) * grid) + 1))
        pts = a[None, :] + s * (b - a)[None, :] + t[:, None] * (c - a)[None, :]
        best = min(best, float(np.linalg.norm(pts - p, axis=1).min()))
    return best


def brute_surface_distances(points, corners):
    """Distance from each point to the nearest of all (m, 3, 3) `corners`
    triangles: the exact per-triangle kernel, minimized over every
    triangle with no pruning."""
    return np.array([point_triangle_distances(q, corners).min() for q in points])


def heap_eliminate_samples(positions, count, r_max, power=8):
    """Weighted sample elimination as a max-heap keyed by (weight, index),
    with lazy deletion of stale entries and one push per neighbour update;
    returns the sorted kept indices. The pair weights are computed as the
    package computes them, so only the removal order is under test."""
    n = len(positions)
    if count == n:
        return np.arange(n)
    reach = 2.0 * r_max
    pairs = cKDTree(positions).query_pairs(reach, output_type="ndarray")
    d = np.linalg.norm(positions[pairs[:, 0]] - positions[pairs[:, 1]], axis=1)
    w = (1.0 - d / reach) ** power
    neighbours = [[] for _ in range(n)]
    for (a, b), wab in zip(pairs.tolist(), w.tolist()):
        neighbours[a].append((b, wab))
        neighbours[b].append((a, wab))
    weight = np.zeros(n)
    np.add.at(weight, pairs[:, 0], w)
    np.add.at(weight, pairs[:, 1], w)
    version = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    heap = [(-weight[i], i, 0) for i in range(n)]
    heapq.heapify(heap)
    remaining = n
    while remaining > count:
        _, i, ver = heapq.heappop(heap)
        if not alive[i] or ver != version[i]:
            continue
        alive[i] = False
        remaining -= 1
        for j, wij in neighbours[i]:
            if alive[j]:
                weight[j] -= wij
                version[j] += 1
                heapq.heappush(heap, (-weight[j], j, version[j]))
    return np.nonzero(alive)[0]


def raw_knn_graph(positions, k=10):
    """Every point's min(k, n - 1) + 1 nearest points, itself among them,
    as the kd-tree returns them: a directed CSR graph whose row i holds
    point i's query unchanged, self loop and zero distances included."""
    n = len(positions)
    w = min(k, n - 1) + 1
    dist, nbr = cKDTree(positions).query(positions, w)
    rows = np.repeat(np.arange(n), w)
    return csr_matrix((dist.ravel(), (rows, nbr.ravel())), shape=(n, n))


def full_dijkstra_patch(positions, source, target, k=10):
    """The `target` points closest to `source` in graph distance over the
    k-nearest-neighbour graph, ties by lower index, from one unbounded
    undirected Dijkstra run over the whole pool. Returns (order, dist)."""
    d = dijkstra(raw_knn_graph(positions, k), directed=False, indices=source)
    order = np.lexsort((np.arange(len(positions)), d))[:target]
    return order, d[order]


def gradcheck(make_loss, params, names=None, h=1e-4, rel_tol=1e-3, max_entries=None, rng=None):
    """Central-difference check of every requested parameter gradient.

    make_loss must rebuild the scalar loss Node from the current
    parameter values. Returns the worst relative error seen."""
    names = list(names if names is not None else params.names())
    loss = make_loss()
    ad.backward(loss)
    analytic = {}
    for name in names:
        grad = params[name].grad
        analytic[name] = np.zeros_like(params[name].value) if grad is None else grad.copy()
    params.zero_grad()
    worst = 0.0
    for name in names:
        v = params[name].value
        entries = list(np.ndindex(v.shape))
        if max_entries is not None and len(entries) > max_entries:
            picks = (rng or np.random.default_rng(0)).choice(
                len(entries), size=max_entries, replace=False
            )
            entries = [entries[i] for i in picks]
        for idx in entries:
            orig = v[idx]
            v[idx] = orig + h
            up = float(make_loss().value[0, 0])
            v[idx] = orig - h
            dn = float(make_loss().value[0, 0])
            v[idx] = orig
            fd = (up - dn) / (2.0 * h)
            an = analytic[name][idx]
            err = abs(fd - an) / max(1.0, abs(fd), abs(an))
            worst = max(worst, err)
            assert err <= rel_tol, (
                f"gradient mismatch at {name}{list(idx)}: "
                f"analytic {an!r} vs finite-diff {fd!r} (rel {err:.2e})"
            )
    return worst


def uniformity_loss_value(points, p, seed_count, rng):
    """The uniformity measure at one area fraction p, from its definition
    over metrics.uniformity_subsets' crops: the sum over crops of
    imbalance (|S_j| - n_hat)^2 / n_hat times clutter, each member's gap
    to its partner taken against d_hat as (gap - d_hat)^2 / d_hat. A crop
    of fewer than two members has clutter 0. Each crop's clutter is one
    numpy .sum() over its gaps, so the value's bits are the measure's."""
    pts = np.asarray(points, dtype=float)
    _, n_hat, subsets = metrics.uniformity_subsets(pts, p, seed_count, rng)
    total = 0
    for members, partners, d_hat in subsets:
        if partners is None:
            continue
        gaps = np.linalg.norm(pts[members] - pts[partners], axis=1)
        imbalance = (len(gaps) - n_hat) ** 2 / n_hat
        total += imbalance * float((((gaps - d_hat) ** 2) / d_hat).sum())
    return float(total)


def reference_attention(x, params, prefix):
    """x + softmax(G H^T)^T K straight from the definition, with scipy's
    softmax and the projections read from `params` by name: G and K
    affine, H linear."""
    from scipy.special import softmax

    g, k = (x @ params[f"{prefix}.{t}.w"].value + params[f"{prefix}.{t}.b"].value for t in "gk")
    h = x @ params[f"{prefix}.h.w"].value
    return x + softmax(g @ h.T, axis=1).T @ k


# ---------------------------------------------------------------------------
# point sets with ties, near-ties and collapse


def collapsed_generator_output(n_input, seed=0):
    """What an untrained generator makes of an n_input-point planar patch:
    rate * n_input points collapsed to a few percent of the patch's
    extent, with no exact ties."""
    from pcup import networks, training

    rng = np.random.default_rng(seed)
    patch = rng.normal(size=(n_input, 3)) * [1.0, 1.0, 0.1]
    patch /= np.linalg.norm(patch, axis=1).max()
    cfg = training.TrainConfig(n_input=n_input)
    return networks.generate(networks.init_generator(cfg, rng), cfg, patch)


def cubic_lattice(side, spacing):
    """side**3 points on a cubic lattice: every point has up to six
    neighbors at exactly the same distance."""
    g = np.arange(side) * spacing
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)


def near_tie_cloud(rng, clusters=40, spokes=5, gap=0.5):
    """Clusters of one hub and `spokes` points at the same nominal distance
    from it in random directions, so the computed distances tie or differ
    by an ulp or so, in shuffled index order. Each cluster also holds a
    point a few ulps farther than the rest, on the hub's x axis."""
    pts = []
    for c in range(clusters):
        hub = np.array([gap * c, 0.0, 0.0]) + rng.normal(size=3) * 1e-3
        r = rng.uniform(0.05, 0.1)
        dirs = rng.normal(size=(spokes, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        far = hub + [np.nextafter(np.nextafter(r, 1.0), 1.0), 0.0, 0.0]
        pts += [hub, far, *(hub + r * dirs)]
    pts = np.array(pts)
    return pts[rng.permutation(len(pts))]


def with_duplicates(rng, n=60, copies=4):
    """n distinct points, each repeated `copies` times, in shuffled order."""
    base = rng.normal(size=(n, 3)) * 0.2
    pts = np.repeat(base, copies, axis=0)
    return pts[rng.permutation(len(pts))]


# ---------------------------------------------------------------------------
# reference disks: 2D layouts on the unit disk (embedded at z = 0) with a
# known uniformity ordering, hexagonal < random < clustered


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


# ---------------------------------------------------------------------------
# fixture meshes


def off_text(verts, faces):
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [" ".join(f"{c:.17g}" for c in v) for v in verts]
    lines += ["3 " + " ".join(str(i) for i in f) for f in faces]
    return "\n".join(lines) + "\n"


def ply_text(verts, faces):
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(verts)}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {len(faces)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    lines += [" ".join(f"{c:.17g}" for c in v) for v in verts]
    lines += ["3 " + " ".join(str(i) for i in f) for f in faces]
    return "\n".join(lines) + "\n"


def tetrahedron():
    """Regular tetrahedron inscribed in the unit sphere."""
    s = 1.0 / math.sqrt(3.0)
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float) * s
    faces = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return verts, faces


def icosphere(subdivisions=2):
    """Unit sphere approximated by a subdivided icosahedron
    (20 * 4**subdivisions faces)."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v) for v in verts]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = np.array(verts[i]) + np.array(verts[j])
                m /= np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(tuple(m))
            return cache[key]

        nxt = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nxt += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = nxt
    return np.array(verts), np.array(faces)


def two_triangles():
    """Two coplanar triangles with areas 1 and 3 (for weighting tests)."""
    verts = np.array(
        [
            [0, 0, 0], [2, 0, 0], [0, 1, 0],  # area 1
            [10, 0, 0], [12, 0, 0], [10, 3, 0],  # area 3
        ],
        dtype=float,
    )
    faces = np.array([[0, 1, 2], [3, 4, 5]])
    return verts, faces


def planar_grid(cells=10, width=1.0, height=1.0):
    """Flat rectangle triangulated into a regular grid."""
    xs = np.linspace(0.0, width, cells + 1)
    ys = np.linspace(0.0, height, cells + 1)
    verts = np.array([[x, y, 0.0] for y in ys for x in xs])
    faces = []
    stride = cells + 1
    for j in range(cells):
        for i in range(cells):
            v0 = j * stride + i
            faces.append([v0, v0 + 1, v0 + stride])
            faces.append([v0 + 1, v0 + stride + 1, v0 + stride])
    return verts, np.array(faces)


def bent_sheet(gap=0.05, cells=20):
    """Two long parallel strips joined only at one end.

    Points on opposite strips near the free end are `gap` apart in space
    but nearly two units apart along the surface — the canonical trap for
    Euclidean patch growing."""
    strip_w = 0.1
    xs = np.linspace(0.0, 1.0, cells + 1)
    ys = np.linspace(0.0, strip_w, 3)
    verts = []
    for z in (0.0, gap):
        for y in ys:
            for x in xs:
                verts.append([x, y, z])
    verts = np.array(verts)
    stride = cells + 1
    per_strip = 3 * stride
    faces = []
    for base in (0, per_strip):
        for j in range(2):
            for i in range(cells):
                v0 = base + j * stride + i
                faces.append([v0, v0 + 1, v0 + stride])
                faces.append([v0 + 1, v0 + stride + 1, v0 + stride])
    # fold: join the x=1 edges of the two strips
    for j in range(2):
        a = j * stride + cells            # strip 0, row j, x=1
        b = (j + 1) * stride + cells
        a2 = per_strip + j * stride + cells
        b2 = per_strip + (j + 1) * stride + cells
        faces.append([a, b, a2])
        faces.append([b, b2, a2])
    return verts, np.array(faces)


def quad_off_text():
    """OFF file with a quad face — must be rejected."""
    return "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"


def malformed_mesh_headers():
    """(id, file name, text, line of the fault, message after "path:line: ")
    of mesh files that a loader must refuse: a tetrahedron with one
    count or face index spoiled."""
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    faces = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    off, ply = off_text(verts, faces), ply_text(verts, faces)
    bad = "must be a non-negative integer, got"
    return [
        ("ply-element-without-count", "m.ply", ply.replace("element vertex 4", "element vertex"),
         3, "expected 'element <name> <count>'"),
        ("ply-count-not-integer", "m.ply", ply.replace("element face 4", "element face 4.0"),
         7, f"element count {bad} '4.0'"),
        ("ply-negative-count", "m.ply", ply.replace("element vertex 4", "element vertex -4"),
         3, f"element count {bad} '-4'"),
        ("off-count-not-integer", "m.off", off.replace("4 4 0", "four 4 0"),
         2, f"vertex count {bad} 'four'"),
        ("off-negative-count", "m.off", off.replace("4 4 0", "-1 4 0"),
         2, f"vertex count {bad} '-1'"),
        ("off-negative-count-on-keyword-line", "m.off", off.replace("OFF\n4 4 0", "OFF 4 -4 0"),
         1, f"face count {bad} '-4'"),
        ("off-face-index-not-integer", "m.off", off.replace("3 0 2 3", "3 0 2 z"),
         9, f"face index {bad} 'z'"),
        ("ply-face-index-not-integer", "m.ply", ply.replace("3 1 2 3", "3 1 2.0 3"),
         17, f"face index {bad} '2.0'"),
        ("off-negative-face-index", "m.off", off.replace("3 0 1 3", "3 0 -1 3"),
         8, f"face index {bad} '-1'"),
    ]


def malformed_mesh_arrays():
    """(id, file name, text, line of the fault or None, message after
    "path:line: " or "path: ") of mesh files whose headers parse but whose
    vertices or faces a loader must refuse: a tetrahedron with one face
    index or coordinate spoiled, no vertices or faces, or a triangle of
    (almost) no area."""
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    faces = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    off, ply = off_text(verts, faces), ply_text(verts, faces)
    return [
        ("off-face-index-past-vertex-count", "m.off", off.replace("3 1 2 3", "3 1 2 9"),
         10, "face index 9 out of range for 4 vertices"),
        ("ply-face-index-past-vertex-count", "m.ply", ply.replace("3 1 2 3", "3 1 4 3"),
         17, "face index 4 out of range for 4 vertices"),
        ("off-nan-coordinate", "m.off", off.replace("\n0 1 0\n", "\n0 nan 0\n"),
         5, "non-finite coordinate"),
        ("ply-inf-coordinate", "m.ply", ply.replace("\n0 0 1\n", "\n0 0 -inf\n"),
         13, "non-finite coordinate"),
        ("off-face-without-vertices", "m.off", "OFF\n0 1 0\n3 0 1 2\n",
         3, "face index 2 out of range for 0 vertices"),
        ("off-no-vertices", "m.off", "OFF\n0 0 0\n", None, "empty mesh (0 vertices, no faces)"),
        ("ply-no-faces", "m.ply", ply.replace("element face 4", "element face 0"),
         None, "empty mesh (4 vertices, no faces)"),
        ("off-zero-area-triangle", "m.off", off.replace("3 0 2 3", "3 0 2 2"),
         None, "degenerate triangle 2 (zero area)"),
        ("off-area-below-floor", "m.off",
         off_text(verts + [[0.5, 1e-13, 0]], faces + [[0, 1, 4]]),
         None, "degenerate triangle 4 (area 6.49e-14 after unit-sphere normalization)"),
    ]


def binary_ply_bytes():
    """Minimal binary-format PLY — must be rejected."""
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        "element vertex 1\nproperty float x\nproperty float y\nproperty float z\n"
        "end_header\n"
    )
    return header.encode("ascii") + np.zeros(3, dtype="<f4").tobytes()
