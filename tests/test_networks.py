"""Generator and discriminator: widths, expansion mechanics, grid codes,
invariances, ablation switches, and end-to-end gradients."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import helpers
from pcup import autodiff as ad
from pcup import networks as nw
from pcup.geometry import farthest_point_sampling
from pcup.training import TrainConfig


TOY = TrainConfig(
    n_input=24,
    rate=2,
    feature_channels=24,
    working_channels=10,
    group_k=6,
    regress_hidden=6,
    disc_point_channels=6,
    disc_global_channels=12,
    disc_head_hidden=5,
)

# sha256 of save_params of init_generator and init_discriminator at seed 0.
# Initialisation only draws uniforms and scales them, with no BLAS call,
# so the digests do not depend on the OpenBLAS kernel
INIT_SHA256 = {
    "toy": ("73fa7483bbbc93a822e6bfe821bc66a0e4c2d0be60c622eb2846c6d9b000686c",
            "e58166907482ce1dbf185ff99e4f35f6dd2812c5d3a7f3386e945fd2d364b50e"),
    "ablate_attention": ("63f688b504beef6856e786a69e07fb119448a4b322a6620005913be69c162667",
                         "1d7af3af8a4c59e252dfb52fd99c4f25bfe17e5444601ae851e927d67fa1668d"),
    "ablate_up_down_up": ("301d4fda20ea20176de4916b21bd8cb9e2277e139f0cf26984a0bcf841851b04",
                          "e58166907482ce1dbf185ff99e4f35f6dd2812c5d3a7f3386e945fd2d364b50e"),
    "ablate_fps": ("11bea4454db393e604c6db91e1ba7d7e18c2863a4f1eca24cff0105e83372947",
                   "e58166907482ce1dbf185ff99e4f35f6dd2812c5d3a7f3386e945fd2d364b50e"),
    "paper": ("573d42f9a5de4c33018ae8318544a80e0831b619490daa47f2b575d4446b095a",
              "c268eeb2e231a7b8b5dc68a74b7fd6a27ad51fbe0e31056aae058dc15677f4aa"),
}


def _cloud(n, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 3)) * 0.5


class TestWidths:
    def test_default_channel_plan(self, rng):
        cfg = TrainConfig()
        assert cfg.feature_channels == 480
        assert cfg.working_channels == 128
        assert cfg.regress_hidden == 64
        assert cfg.expansion_rate == 6  # rate 4 + 2 over-generation
        assert cfg.n_target == 1024
        params = nw.init_generator(cfg, rng)
        assert params["feat.b0.l0.w"].value.shape == (6, 160)
        assert params["feat.b1.l0.w"].value.shape == (6 + 160, 160)
        assert params["feat.b2.l0.w"].value.shape == (6 + 320, 160)
        assert params["reduce.l0.w"].value.shape == (480, 128)
        assert params["expand.down.l0.w"].value.shape == (6 * 128, 128)
        assert params["regress.l0.w"].value.shape == (128, 64)
        assert params["regress.l1.w"].value.shape == (64, 3)

    def test_default_discriminator_plan(self, rng):
        params = nw.init_discriminator(TrainConfig(), rng)
        assert params["d.point.l0.w"].value.shape == (3, 64)
        assert params["d.attn.k.w"].value.shape == (128, 128)
        assert params["d.global.l0.w"].value.shape == (128, 256)
        assert params["d.head.l0.w"].value.shape == (256, 64)
        assert params["d.head.l1.w"].value.shape == (64, 1)

    @pytest.mark.parametrize("case", sorted(INIT_SHA256))
    def test_initial_parameters_are_pinned(self, tmp_path, case):
        if case == "paper":
            cfg = TrainConfig()
        else:
            cfg = replace(TOY, **({} if case == "toy" else {case: True}))
        got = []
        for init in (nw.init_generator, nw.init_discriminator):
            path = tmp_path / f"{init.__name__}.params"
            ad.save_params(init(cfg, 0), path)
            got.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert tuple(got) == INIT_SHA256[case]

    def test_feature_channels_must_split_into_three(self, rng):
        with pytest.raises(ValueError, match="divisible by 3"):
            nw.init_generator(TrainConfig(feature_channels=100), rng)


class TestLocalEmbedding:
    def test_shape_and_self_inclusion(self, rng):
        pts = _cloud(30)
        emb = nw.local_embedding(pts, 8)
        assert emb.shape == (30, 6)
        assert np.array_equal(emb[:, :3], pts)
        # offsets include the point itself, so the max is never negative
        assert emb[:, 3:].min() >= 0.0 - 1e-15

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="need at least 16"):
            nw.local_embedding(_cloud(10), 16)

    def test_isolated_cluster_offsets(self):
        # 3 collinear points, k=3: max offset of the leftmost point is the
        # gap to the rightmost
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        emb = nw.local_embedding(pts, 3)
        assert emb[0, 3] == pytest.approx(3.0)
        assert emb[2, 3] == pytest.approx(0.0)  # nothing to its right

    def test_lattice_neighbours_follow_the_tie_rule(self):
        # a 16 x 16 integer lattice: the 16th neighbour of most points ties
        # with others, and a raw kd-tree query picks among them by its own
        # order; the embedding must use the lowest indices
        g = np.arange(16.0)
        pts = np.stack([*np.meshgrid(g, g, indexing="ij"), np.zeros((16, 16))], -1).reshape(-1, 3)
        nbr = np.array([helpers.brute_knn(pts, p, 16) for p in pts])
        want = np.hstack([pts, (pts[nbr] - pts[:, None, :]).max(axis=1)])
        assert np.array_equal(nw.local_embedding(pts, 16), want)


class TestGridCodes:
    def test_rho_four_uses_two_by_two_grid(self):
        codes = nw.grid_codes(4, 1)
        expected = np.array([[-0.2, -0.2], [0.2, -0.2], [-0.2, 0.2], [0.2, 0.2]])
        assert np.allclose(codes, expected)

    def test_rho_six_fills_three_wide_grid_row_major(self):
        codes = nw.grid_codes(6, 1)
        t = np.linspace(-0.2, 0.2, 3)
        expected = np.array(
            [[t[0], t[0]], [t[1], t[0]], [t[2], t[0]], [t[0], t[1]], [t[1], t[1]], [t[2], t[1]]]
        )
        assert np.allclose(codes, expected)

    def test_copies_are_blocked_per_code(self):
        codes = nw.grid_codes(2, 3)
        assert codes.shape == (6, 2)
        assert np.allclose(codes[:3], codes[0])  # first copy-block shares its code
        assert np.allclose(codes[3:], codes[3])
        assert not np.allclose(codes[0], codes[3])


class TestExpansion:
    def test_up_feature_shape(self, rng):
        params = nw.init_generator(TOY, rng)
        x = ad.constant(rng.normal(size=(5, TOY.working_channels)))
        up = nw.up_feature(params, "expand.up1", TOY, x, 4)
        assert up.value.shape == (20, TOY.working_channels)

    def test_down_feature_inverts_grouping(self, rng):
        params = nw.init_generator(TOY, rng)
        rho = TOY.expansion_rate
        # mark each (point, copy) pair so the regroup is visible
        n, c = 4, TOY.working_channels
        base = np.arange(n * rho * c, dtype=float).reshape(n * rho, c)
        node = ad.constant(base)
        rn = node.value.shape[0]
        idx = (np.arange(n)[:, None] + n * np.arange(rho)[None, :]).ravel()
        regrouped = base[idx].reshape(n, rho * c)
        got = ad.reshape(ad.gather_rows(node, idx), n, rho * c)
        assert np.array_equal(got.value, regrouped)
        # and the full operator accepts exactly divisible inputs only
        with pytest.raises(ValueError, match="not divisible"):
            nw.down_feature(params, TOY, ad.constant(np.zeros((7, c))), rho)

    def test_up_down_up_residual_structure(self, rng):
        params = nw.init_generator(TOY, rng)
        x = ad.constant(rng.normal(size=(6, TOY.working_channels)))
        rho = TOY.expansion_rate
        out = nw.up_down_up(params, TOY, x, rho)
        assert out.value.shape == (6 * rho, TOY.working_channels)
        # recompute by hand from the building blocks
        f1 = ad.linear_relu(x, params["expand.pre.w"], params["expand.pre.b"])
        f_up = nw.up_feature(params, "expand.up1", TOY, f1, rho)
        f2 = nw.down_feature(params, TOY, f_up, rho)
        delta = nw.up_feature(params, "expand.up2", TOY, ad.sub(f2, f1), rho)
        assert np.allclose(out.value, f_up.value + delta.value)

    def test_rate_below_two_rejected(self, rng):
        params = nw.init_generator(TOY, rng)
        x = ad.constant(rng.normal(size=(5, TOY.working_channels)))
        with pytest.raises(ValueError, match=">= 2"):
            nw.up_feature(params, "expand.up1", TOY, x, 1)


class TestGenerator:
    def test_output_counts_and_trim_subset(self, rng):
        params = nw.init_generator(TOY, rng)
        pts = _cloud(TOY.n_input)
        out, raw, selected = nw.generate_node(params, TOY, pts)
        assert raw.value.shape == (TOY.expansion_rate * TOY.n_input, 3)
        assert out.value.shape == (TOY.n_target, 3)
        assert np.array_equal(out.value, raw.value[selected])
        # trim is exactly farthest point sampling from the configured seed
        assert np.array_equal(
            selected, farthest_point_sampling(raw.value, TOY.n_target, nw.FPS_SEED)
        )

    @pytest.mark.parametrize("ablation", [None, "ablate_attention", "ablate_up_down_up",
                                          "ablate_fps"])
    def test_generate_returns_the_bytes_of_generate_node(self, rng, ablation):
        cfg = TOY if ablation is None else replace(TOY, **{ablation: True})
        params = nw.init_generator(cfg, rng)
        pts = _cloud(cfg.n_input)
        out = nw.generate(params, cfg, pts)
        assert out.tobytes() == nw.generate_node(params, cfg, pts)[0].value.tobytes()
        # a stack of patches: one trim over all raw outputs, each row the
        # bytes of its own generate_node
        stack = np.stack([pts, _cloud(cfg.n_input, 1), _cloud(cfg.n_input, 2)])
        rows = nw.generate(params, cfg, stack)
        assert rows.tobytes() == np.stack(
            [nw.generate_node(params, cfg, p)[0].value for p in stack]).tobytes()

    def test_generate_at_paper_size_keeps_no_graph(self):
        # the graph of one N=256 patch, with its two 1536 x 1536 attention
        # weights, traced 76 MiB at its peak when generate kept it for a
        # backward pass; without it the peak is about 26 MiB
        cfg = TrainConfig()
        params = nw.init_generator(cfg, 0)
        pts = _cloud(cfg.n_input)
        tracemalloc.start()
        try:
            out = nw.generate(params, cfg, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (cfg.n_target, 3)
        assert peak < 40 * 2**20

    def test_recorded_step_at_paper_size_peaks_under_125_mib(self):
        # one N=256 generator and discriminator pass and its backward, as
        # a training step records them: 140.9 MiB traced at its peak while
        # relu kept each pre-activation and the attention push made the
        # (1536, 1536) product dW * W whole; 111.8 MiB without either
        cfg = TrainConfig()
        gparams, dparams = nw.init_generator(cfg, 0), nw.init_discriminator(cfg, 1)
        pts = np.random.default_rng(0).standard_normal((cfg.n_input, 3))
        tracemalloc.start()
        try:
            fake = nw.generate_node(gparams, cfg, pts)[0]
            ad.backward(nw.discriminate_node(dparams, cfg, fake))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gparams["feat.b0.l0.w"].grad is not None
        assert peak < 125 * 2**20

    def test_wrong_input_count_rejected(self, rng):
        params = nw.init_generator(TOY, rng)
        with pytest.raises(ValueError, match="expects 24 input points"):
            nw.generate_node(params, TOY, _cloud(25))

    def test_gradients_flow_to_every_parameter(self, rng):
        params = nw.init_generator(TOY, rng)
        pts = _cloud(TOY.n_input)
        out, _, _ = nw.generate_node(params, TOY, pts)
        ad.backward(ad.sum_all(ad.square(out)))
        for name in params.names():
            grad = params[name].grad
            assert grad is not None and np.isfinite(grad).all(), name

    def test_end_to_end_gradcheck_sampled(self, rng):
        params = nw.init_generator(TOY, rng)
        pts = _cloud(TOY.n_input)
        _, raw0, selected = nw.generate_node(params, TOY, pts)

        # freeze the selection so finite differences see a fixed graph
        def make_loss():
            _, raw, _ = nw.generate_node(params, TOY, pts)
            picked = ad.square(ad.gather_rows(raw, selected))
            return ad.scale(ad.sum_all(picked), 1 / picked.value.size)

        helpers.gradcheck(
            make_loss,
            params,
            names=["reduce.l0.w", "expand.up1.l0.w", "regress.l1.w", "expand.down.l0.b"],
            max_entries=6,
            rng=rng,
        )


class TestAblations:
    def test_fps_trim_off_returns_raw(self, rng):
        cfg = replace(TOY, ablate_fps=True)
        params = nw.init_generator(cfg, rng)
        assert cfg.expansion_rate == cfg.rate
        out, raw, selected = nw.generate_node(params, cfg, _cloud(cfg.n_input))
        assert out is raw
        assert out.value.shape == (cfg.n_target, 3)
        assert np.array_equal(selected, np.arange(cfg.n_target))

    def test_attention_off_removes_only_attention_params(self, rng):
        on = nw.init_generator(TOY, rng)
        cfg = replace(TOY, ablate_attention=True)
        off = nw.init_generator(cfg, rng)
        gone = set(on.names()) - set(off.names())
        assert gone and all(".attn." in name for name in gone)
        for name in off.names():
            assert off[name].value.shape == on[name].value.shape

    def test_up_down_up_off_removes_correction_blocks(self, rng):
        cfg = replace(TOY, ablate_up_down_up=True)
        off = nw.init_generator(cfg, rng)
        assert not any(name.startswith(("expand.up2", "expand.down")) for name in off.names())
        out, _, _ = nw.generate_node(off, cfg, _cloud(cfg.n_input))
        assert out.value.shape == (cfg.n_target, 3)


def _confidence(params, cfg, q):
    """discriminate_node's confidence as a float, computed without a graph."""
    with ad.no_grad():
        return float(nw.discriminate_node(params, cfg, q).value[0, 0])


class TestDiscriminator:
    def test_confidence_in_unit_interval(self, rng):
        params = nw.init_discriminator(TOY, rng)
        val = _confidence(params, TOY, _cloud(40))
        assert 0.0 < val < 1.0
        assert val == nw.discriminate_node(params, TOY, _cloud(40)).value[0, 0]

    def test_permutation_invariance(self, rng):
        params = nw.init_discriminator(TOY, rng)
        pts = _cloud(60)
        base = _confidence(params, TOY, pts)
        for _ in range(5):
            perm = rng.permutation(60)
            assert abs(_confidence(params, TOY, pts[perm]) - base) < 1e-9

    def test_variable_input_sizes(self, rng):
        params = nw.init_discriminator(TOY, rng)
        for n in (1, 2, 17, 100):
            val = _confidence(params, TOY, _cloud(n))
            assert np.isfinite(val)

    def test_wrong_shape_rejected(self, rng):
        params = nw.init_discriminator(TOY, rng)
        with pytest.raises(ValueError):
            _confidence(params, TOY, np.zeros((5, 2)))

    def test_gradcheck_sampled(self, rng):
        params = nw.init_discriminator(TOY, rng)
        pts = _cloud(12)

        def make_loss():
            return ad.square(nw.discriminate_node(params, TOY, pts))

        helpers.gradcheck(
            make_loss,
            params,
            names=["d.point.l0.w", "d.attn.g.w", "d.global.l1.w", "d.head.l1.w"],
            max_entries=6,
            rng=rng,
        )

    def test_gradient_reaches_generator_through_confidence(self):
        # seed chosen so the toy 5-channel head has live ReLUs; with
        # realistic widths (64) a fully dead head is vanishingly unlikely
        rng = np.random.default_rng(1)
        gparams = nw.init_generator(TOY, rng)
        dparams = nw.init_discriminator(TOY, rng)
        out, _, _ = nw.generate_node(gparams, TOY, _cloud(TOY.n_input))
        conf = nw.discriminate_node(dparams, TOY, out)
        ad.backward(ad.square(conf))
        assert gparams["regress.l1.w"].grad is not None
        assert np.linalg.norm(gparams["regress.l1.w"].grad) > 0

    def test_learns_to_separate_clustered_from_uniform(self):
        # 200 adversarial-objective steps on freshly drawn 1024-point
        # sets: confidence should favor the uniform ("real") class by a
        # clear margin on held-out draws
        from pcup import losses as lo

        def uniform_ball(rng, n=1024):
            v = rng.normal(size=(n, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            return v * rng.uniform(0, 1, (n, 1)) ** (1 / 3)

        def clustered_ball(rng, n=1024, k=12, sigma=0.05):
            centers = uniform_ball(rng, k)
            return centers[rng.integers(0, k, n)] + rng.normal(0, sigma, (n, 3))

        cfg = TrainConfig(disc_point_channels=8, disc_global_channels=16, disc_head_hidden=8)
        rng = np.random.default_rng(0)
        params = nw.init_discriminator(cfg, rng)
        for _ in range(200):
            loss = lo.discriminator_adversarial_loss(
                nw.discriminate_node(params, cfg, clustered_ball(rng)),
                nw.discriminate_node(params, cfg, uniform_ball(rng)),
            )
            ad.backward(loss)
            ad.adam_step(params, 1e-3)
        eval_rng = np.random.default_rng(99)
        real = np.mean(
            [_confidence(params, cfg, uniform_ball(eval_rng)) for _ in range(10)]
        )
        fake = np.mean(
            [_confidence(params, cfg, clustered_ball(eval_rng)) for _ in range(10)]
        )
        assert real - fake > 0.2
