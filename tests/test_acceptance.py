"""Acceptance gate: ten system-level criteria, one test each.

Each test states its tolerances inline and asserts its own runtime
budget where one applies. The conftest reporter prints one PASS/FAIL
line per criterion at the end of the run.
"""

import itertools
import math
import time

import numpy as np
import pytest

import helpers
from test_autodiff import _op_cases, _params_with

from pcup import autodiff as ad
from pcup import losses as lo
from pcup import metrics
from pcup import networks as nw
from pcup import training as tr
from pcup.cli import main as cli_main
from pcup.geometry import SpatialIndex, farthest_point_sampling
from pcup.mesh import (
    TriangleMesh,
    area_weighted_sample,
    point_triangle_distances,
    poisson_disk_sample,
)


def _matching_cost(a, b):
    """Factorial-time exact minimum assignment cost (n <= 7)."""
    n = len(a)
    return min(
        sum(float(np.linalg.norm(a[j] - b[p[j]])) for j in range(n))
        for p in itertools.permutations(range(n))
    )


def test_c01_emd_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    # exact solver vs factorial enumeration: the same distances summed in
    # another order, so only accumulation noise (< 1e-12 relative)
    # separates them
    for _ in range(200):
        n = int(rng.integers(1, 8))
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(n, 3))
        got = metrics.emd_exact(a, b).cost
        want = _matching_cost(a, b)
        assert abs(got - want) <= 1e-12 * max(1.0, want)
    assert time.perf_counter() - start < 60.0


def test_c02_gradient_suite(rng):
    start = time.perf_counter()
    # 1. every registered autodiff op (central differences, step 1e-4,
    #    relative error < 1e-3 -- the helpers.gradcheck defaults)
    for name, (shapes, make) in sorted(_op_cases().items()):
        params = _params_with(np.random.default_rng(7), shapes)
        helpers.gradcheck(lambda: make(params), params)
    # 2. the self-attention unit, over one code that is a leaf
    att = ad.Params()
    ad.init_attention(att, "att", 4, rng)
    x = rng.normal(size=(5, 3))
    code = att.add("code", rng.normal(size=(1, 1)))
    helpers.gradcheck(
        lambda: ad.sum_all(ad.square(ad.self_attention(ad.constant(x), code, att, "att"))),
        att,
    )
    # 3. the expansion operators, each in isolation
    cfg = tr.TrainConfig(
        n_input=8, rate=2, feature_channels=12, working_channels=6,
        group_k=4, regress_hidden=4,
    )
    gp = nw.init_generator(cfg, np.random.default_rng(0))
    rho = cfg.expansion_rate
    feat = rng.normal(size=(5, cfg.working_channels))
    ops = [
        (lambda: ad.sum_all(ad.square(
            nw._up_feature(gp, "expand.up1", cfg, ad.constant(feat)))),
         ["expand.up1.l0.w", "expand.up1.l1.b",
          "expand.up1.attn.g.w", "expand.up1.attn.k.w"]),
        (lambda: ad.sum_all(ad.square(
            nw._down_feature(gp, cfg, ad.constant(np.tile(feat, (rho, 1)))))),
         ["expand.down.l0.w", "expand.down.l1.b"]),
        (lambda: ad.sum_all(ad.square(
            nw._up_down_up(gp, cfg, ad.constant(feat)))),
         ["expand.pre.w", "expand.up1.l0.w", "expand.down.l0.w",
          "expand.up2.l1.w", "expand.up2.attn.h.w"]),
    ]
    for make, names in ops:
        helpers.gradcheck(make, gp, names=names, max_entries=25, rng=rng)
    # 4. all three loss terms
    conf_params = ad.Params()
    conf_params.add("cf", np.array([[0.3]]))
    conf_params.add("cr", np.array([[0.6]]))
    helpers.gradcheck(
        lambda: lo.generator_adversarial_loss(conf_params["cf"]), conf_params,
        names=["cf"],
    )
    helpers.gradcheck(
        lambda: lo.discriminator_adversarial_loss(conf_params["cf"], conf_params["cr"]),
        conf_params,
    )
    base = rng.normal(size=(10, 3))
    target = rng.normal(size=(10, 3))
    _, frozen = lo.reconstruction_loss(ad.constant(base), target)
    matched = target[frozen.permutation]
    rec_params = ad.Params()
    rec_params.add("q", base)
    helpers.gradcheck(
        lambda: ad.sum_all(ad.row_distances(rec_params["q"], ad.constant(matched))),
        rec_params,
    )
    upts = np.random.default_rng(0).normal(size=(40, 3)) * 0.5
    _, n_hat, subsets = metrics.uniformity_subsets(upts, 0.05, 6, 0)
    assert any(nn is not None for _, nn, _ in subsets)
    uni_params = ad.Params()
    uni_params.add("q", upts)

    def uni_frozen():
        q = uni_params["q"]
        total = None
        for members, nn, d_hat in subsets:
            if nn is None:
                continue
            imbalance = (len(members) - n_hat) ** 2 / n_hat
            gaps = ad.row_distances(ad.gather_rows(q, members), ad.gather_rows(q, nn))
            term = ad.scale(
                ad.sum_all(ad.square(ad.add_scalar(gaps, -d_hat))), imbalance / d_hat
            )
            total = term if total is None else ad.add(total, term)
        return total

    helpers.gradcheck(uni_frozen, uni_params, max_entries=30, rng=rng)
    assert time.perf_counter() - start < 300.0


def test_c03_uniform_loss_discrimination():
    # three 625-point reference layouts at p = 1%, ranked by the uniform
    # loss that training runs
    hexv, rand, clus = (
        float(lo.uniform_loss(ad.constant(pts), (0.01,), 50, 0).value[0, 0])
        for pts in (helpers.hexagonal_disk(625), helpers.random_disk(625, seed=0),
                    helpers.clustered_disk(625, seed=0))
    )
    assert hexv < rand < clus
    assert hexv < 0.5 * rand
    # hand values for the two analytic quantities, to 1e-9
    d_hat = metrics.hexagonal_neighbor_spacing(0.1, 10)
    assert abs(d_hat - math.sqrt(2 * math.pi * 0.01 / (10 * math.sqrt(3)))) < 1e-9
    assert abs(d_hat - 0.06023) < 5e-6
    n_hat = metrics.expected_ball_count(1024, 0.01)
    assert abs(n_hat - 10.24) < 1e-9


def test_c04_spatial_query_exactness(icosphere_mesh):
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(400, 3))
    index = SpatialIndex(pts)
    for _ in range(500):
        q = rng.normal(size=(3,))
        k = int(rng.integers(1, 12))
        got, _ = index.knn(q, k)
        assert np.array_equal(got, helpers.brute_knn(pts, q, k))
    for _ in range(250):
        q = rng.normal(size=(3,))
        r = float(rng.uniform(0.05, 0.8))
        assert np.array_equal(index.ball_query(q, r), helpers.brute_ball(pts, q, r))
    corners = icosphere_mesh.corners()
    for _ in range(250):
        q = rng.normal(size=(3,)) * 1.5
        got = icosphere_mesh.distances_to_surface(q[None])[0]
        assert got == point_triangle_distances(q, corners).min()
    assert time.perf_counter() - start < 30.0


def test_c05_architecture_contracts(rng):
    cfg = tr.TrainConfig()
    gp = nw.init_generator(cfg, np.random.default_rng(0))
    dp = nw.init_discriminator(cfg, np.random.default_rng(0))
    # default channel widths: 480 extracted features reduced to 128
    # working channels, 64-wide regression head, 256-wide global pipeline
    assert cfg.feature_channels == 480
    assert gp["reduce.l0.w"].value.shape == (480, 128)
    assert gp["regress.l0.w"].value.shape == (128, 64)
    assert dp["d.global.l0.w"].value.shape == (128, 256)
    # exactly rate*N points selected out of (rate+2)*N regressed ones
    pts = rng.normal(size=(cfg.n_input, 3))
    pts /= np.abs(pts).max()
    out, raw, selected = nw.generate_node(gp, cfg, pts)
    assert raw.value.shape == ((cfg.rate + 2) * cfg.n_input, 3)
    assert out.value.shape == (cfg.rate * cfg.n_input, 3)
    assert np.array_equal(out.value, raw.value[selected])
    assert np.array_equal(
        selected,
        farthest_point_sampling(raw.value, cfg.rate * cfg.n_input, nw.FPS_SEED),
    )
    # permutation invariance of the discriminator at full width
    cloud = rng.normal(size=(512, 3))
    with ad.no_grad():
        base = nw.discriminate_node(dp, cfg, cloud).value[0, 0]
        for _ in range(3):
            perm = rng.permutation(len(cloud))
            assert abs(nw.discriminate_node(dp, cfg, cloud[perm]).value[0, 0] - base) < 1e-9


def test_c06_overfit_sanity(icosphere_mesh):
    start = time.perf_counter()
    cfg = tr.TrainConfig(n_input=64, rate=4, patches_per_mesh=1,
                         patch_fraction=0.05, pool_size=8000, seed=0)
    pairs = tr.build_dataset("ico", icosphere_mesh, cfg)
    target = pairs[0].target  # one fixed 256-point unit-sphere patch
    inp = target[farthest_point_sampling(target, 64, 0)]  # fixed 64-point input
    params = nw.init_generator(cfg, np.random.default_rng(0))
    best = math.inf
    for step in range(1, 1001):
        # reconstruction only (adversarial and uniformity weights zero),
        # with the decay schedule compressed to the short horizon
        lr = max(1e-4, 1e-3 * 0.7 ** ((step - 1) // 250))
        out_node = nw.generate_node(params, cfg, inp)[0]
        rec, _ = lo.reconstruction_loss(out_node, target)
        best = min(best, float(rec.value[0, 0]) / len(target))
        ad.backward(rec)
        ad.adam_step(params, lr)
    elapsed = time.perf_counter() - start
    assert best < 0.05, f"best per-point EMD {best:.4f} after 1000 steps"
    assert elapsed < 600.0


def test_c07_adversarial_smoke(icosphere_mesh, tmp_path):
    cfg = tr.TrainConfig(
        n_input=32, rate=4, patches_per_mesh=10, patch_fraction=0.05,
        pool_size=6000, batch_size=4, iterations=200, checkpoint_every=10**9,
        feature_channels=48, working_channels=24, group_k=8, regress_hidden=16,
        disc_point_channels=16, disc_global_channels=32, disc_head_hidden=16,
        uniform_seed_count=10, seed=0,
    )
    pairs = tr.build_dataset("ico", icosphere_mesh, cfg)
    assert len(pairs) == 10
    result = tr.train(pairs, cfg, tmp_path / "run")
    h = result.history
    assert len(h) == 200
    for row in h:
        assert np.isfinite(row["loss_g"]) and np.isfinite(row["loss_d"])
    quarter = len(h) // 4
    first = np.mean([r["loss_d"] for r in h[:quarter]])
    last = np.mean([r["loss_d"] for r in h[-quarter:]])
    assert last < first, f"L_D rose: {first:.4f} -> {last:.4f}"
    margin = np.mean([r["d_real"] - r["d_fake"] for r in h[-10:]])
    assert margin > 0.1, f"final real/fake confidence margin {margin:.4f}"


def test_c08_pipeline_count_contract():
    mesh = TriangleMesh(*helpers.icosphere(3))
    cloud = area_weighted_sample(mesh, 2048, np.random.default_rng(0)).positions
    cfg = tr.TrainConfig()
    params = nw.init_generator(cfg, np.random.default_rng(0))
    dense = tr.upsample_cloud(cloud, params, cfg)
    assert dense.shape == (8192, 3)
    values = metrics.uniformity_report_mesh(
        dense, mesh, seed_count=50, rng=0, pool_size=3000
    )
    assert len(values) == 5
    assert all(np.isfinite(v) for v in values)


def test_c09_poisson_disk_quality(tetra_mesh, icosphere_mesh, planar_mesh):
    for mesh in (tetra_mesh, icosphere_mesh, planar_mesh):
        poisson = poisson_disk_sample(mesh, 625, np.random.default_rng(0)).positions
        random = area_weighted_sample(mesh, 625, np.random.default_rng(1)).positions
        rep_p = metrics.uniformity_report_mesh(
            poisson, mesh, seed_count=50, rng=2, pool_size=3000
        )
        rep_r = metrics.uniformity_report_mesh(
            random, mesh, seed_count=50, rng=2, pool_size=3000
        )
        for vp, vr in zip(rep_p, rep_r):
            assert vp < vr


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_c10_determinism(mesh_dir, tmp_path):
    desk_prepare = ["--patches-per-mesh", "10", "--N", "64", "--pool-size", "30000",
                    "--seed", "0"]
    archives = []
    for name in ("a1", "a2"):
        out = tmp_path / name
        assert cli_main(["prepare", "--meshes", str(mesh_dir),
                         "--out", str(out)] + desk_prepare) == 0
        archives.append(_tree_bytes(out))
    assert archives[0] == archives[1]

    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        # determinism is invariant to the horizon; six iterations walk the
        # same code path (batching, augmentation, both updates, checkpoint)
        # as the full-length run
        assert cli_main(["train", "--data", str(tmp_path / "a1"),
                         "--out", str(out), "--iterations", "6",
                         "--batch", "4", "--seed", "0"]) == 0
        runs.append(_tree_bytes(out))
    assert runs[0] == runs[1]
