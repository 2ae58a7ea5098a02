"""Config serialization, schedule, augmentation, dataset assembly,
archive I/O, the training loop, and whole-cloud upsampling."""

import dataclasses
import math
import os

import numpy as np
import pytest

from pcup import training as tr
from pcup.geometry import pairwise_distances, read_xyz
from pcup.mesh import TriangleMesh
from pcup.networks import init_generator


TINY = dict(
    n_input=16,
    rate=2,
    patches_per_mesh=10,
    patch_fraction=0.05,
    pool_size=2000,
    batch_size=2,
    iterations=3,
    checkpoint_every=2,
    feature_channels=24,
    working_channels=8,
    group_k=8,
    regress_hidden=8,
    disc_point_channels=8,
    disc_global_channels=16,
    disc_head_hidden=8,
    uniform_seed_count=5,
    seed=0,
)


@pytest.fixture(scope="module")
def tiny_pairs(tetra_mesh):
    cfg = tr.TrainConfig(**TINY)
    return tr.build_dataset([("tetra", tetra_mesh)], cfg), cfg


class TestConfig:
    def test_text_roundtrip_is_exact(self):
        cfg = tr.TrainConfig(**TINY)
        assert tr.TrainConfig.from_text(cfg.to_text()) == cfg

    def test_defaults_roundtrip(self):
        cfg = tr.TrainConfig()
        assert tr.TrainConfig.from_text(cfg.to_text()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            tr.TrainConfig.from_text("not_a_field = 3\n")

    def test_config_with_retired_emd_epsilon_still_loads(self, tmp_path):
        cfg = tr.TrainConfig(**TINY)
        text = cfg.to_text()
        assert "emd_epsilon" not in text
        assert "emd_epsilon" not in {f.name for f in dataclasses.fields(tr.TrainConfig)}
        with pytest.raises(TypeError):
            tr.TrainConfig(emd_epsilon=1e-3)
        # the line as configs written with the auction matcher hold it
        lines = text.splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("p_values")) + 1
        old_text = "".join(lines[:at] + ["emd_epsilon = 0.001\n"] + lines[at:])
        assert tr.TrainConfig.from_text(old_text) == cfg
        ckpt = tmp_path / "ckpt"
        gparams = init_generator(cfg.generator_config(), 0)
        tr.save_checkpoint(ckpt, gparams, None, cfg)
        (ckpt / "config.txt").write_text(old_text)
        assert tr.load_checkpoint(ckpt)[2] == cfg
        with pytest.raises(ValueError, match="unknown key"):
            tr.TrainConfig.from_text(old_text + "emd_epsilonn = 0.001\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            tr.TrainConfig.from_text("just words\n")

    def test_bool_spelling_enforced(self):
        with pytest.raises(ValueError, match="true or false"):
            tr.TrainConfig.from_text("augment_rotate = yes\n")

    def test_default_hyperparameters(self):
        cfg = tr.TrainConfig()
        assert cfg.n_input == 256 and cfg.rate == 4
        assert cfg.batch_size == 28 and cfg.patches_per_mesh == 200
        assert cfg.lr_g == 1e-3 and cfg.lr_d == 1e-4
        assert cfg.uniform_seed_count == 50
        assert cfg.w_gan == 0.5 and cfg.w_reconstruction == 100.0 and cfg.w_uniform == 10.0

    def test_desk_profile(self):
        cfg = tr.TrainConfig.desk_profile()
        assert cfg.n_input == 64 and cfg.rate == 4
        assert cfg.patches_per_mesh == 10 and cfg.iterations == 500

    def test_schedule_decays_by_0_7_every_50k(self):
        cfg = tr.TrainConfig()
        assert cfg.learning_rate(1e-3, 1) == 1e-3
        assert cfg.learning_rate(1e-3, 50000) == 1e-3
        assert cfg.learning_rate(1e-3, 50001) == pytest.approx(0.7e-3)
        assert cfg.learning_rate(1e-3, 100001) == pytest.approx(0.49e-3)
        assert cfg.learning_rate(1e-3, 10**7) == 1e-6  # floor


class TestAugmentation:
    def test_rotation_matrices_are_special_orthogonal(self, rng):
        for _ in range(20):
            rot = tr.random_rotation(rng)
            assert np.abs(rot @ rot.T - np.eye(3)).max() < 1e-12
            assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_pair_shares_rotation_and_scale(self, rng):
        cfg = tr.TrainConfig(augment_jitter=False)
        p = rng.normal(size=(20, 3))
        q = rng.normal(size=(40, 3))
        p2, q2 = tr.augment_pair(p, q, rng, cfg)
        # the same similarity transform applies to both clouds: all
        # cross-distances scale by one factor
        before = pairwise_distances(p, q)
        after = pairwise_distances(p2, q2)
        ratio = after / before
        s = ratio.mean()
        assert 0.8 <= s <= 1.2
        assert np.abs(ratio - s).max() < 1e-9

    def test_jitter_is_clipped_and_input_only(self, rng):
        cfg = tr.TrainConfig(augment_rotate=False, augment_scale=False)
        p = rng.normal(size=(50, 3))
        q = rng.normal(size=(60, 3))
        p2, q2 = tr.augment_pair(p, q, rng, cfg)
        assert np.array_equal(q2, q)
        move = np.abs(p2 - p)
        assert move.max() <= 3 * cfg.jitter_sigma + 1e-12
        assert move.max() > 0

    def test_identity_when_disabled(self, rng):
        cfg = tr.TrainConfig(augment_rotate=False, augment_scale=False, augment_jitter=False)
        p = rng.normal(size=(10, 3))
        q = rng.normal(size=(12, 3))
        p2, q2 = tr.augment_pair(p, q, rng, cfg)
        assert np.array_equal(p2, p) and np.array_equal(q2, q)


class TestDataset:
    def test_build_counts_and_normalization(self, tiny_pairs):
        pairs, cfg = tiny_pairs
        assert len(pairs) == 10
        for pair in pairs:
            assert pair.target.shape == (cfg.n_target, 3)
            assert np.linalg.norm(pair.target, axis=1).max() <= 1.0 + 1e-12
            assert pair.scale > 0
            assert pair.mesh_id == "tetra"

    def test_deterministic(self, tetra_mesh):
        cfg = tr.TrainConfig(**TINY)
        a = tr.build_dataset([("t", tetra_mesh)], cfg)
        b = tr.build_dataset([("t", tetra_mesh)], cfg)
        assert all(np.array_equal(x.target, y.target) for x, y in zip(a, b))

    def test_partial_failures_logged_and_skipped(self, two_triangle_mesh):
        # seeds landing on the small component (25% of samples) cannot
        # reach a 30% patch and are skipped with a warning
        cfg = tr.TrainConfig(**{**TINY, "patches_per_mesh": 20, "patch_fraction": 0.3,
                                "pool_size": 2000, "n_input": 8})
        messages = []
        pairs = tr.build_dataset([("two", two_triangle_mesh)], cfg, log=messages.append)
        assert messages, "expected at least one skipped-seed warning"
        assert all("skipped" in m for m in messages)
        assert len(pairs) == 20 - len(messages)
        assert len(pairs) >= 10

    def test_pool_floor_is_logged(self, tetra_mesh):
        # 5 x 32 target points / 0.05 = 3200 > the configured 2000
        messages = []
        tr.build_dataset([("t", tetra_mesh)], tr.TrainConfig(**TINY), log=messages.append)
        assert messages == ["t: pool size raised from 2000 to 3200 "
                            "(5 x 32 target points / patch fraction 0.05)"]
        messages = []
        cfg = tr.TrainConfig(**{**TINY, "pool_size": 3200})
        tr.build_dataset([("t", tetra_mesh)], cfg, log=messages.append)
        assert messages == []

    def test_mesh_with_too_few_usable_patches_fails(self):
        # three equal disconnected triangles: every component holds ~1/3 of
        # the pool, below the requested 45% patch, so every seed fails
        verts, faces = [], []
        for i in range(3):
            x = 10.0 * i
            verts += [[x, 0, 0], [x + 1, 0, 0], [x, 1, 0]]
            faces.append([3 * i, 3 * i + 1, 3 * i + 2])
        mesh = TriangleMesh(np.array(verts, float), np.array(faces))
        cfg = tr.TrainConfig(**{**TINY, "patch_fraction": 0.45, "n_input": 8,
                                "pool_size": 3000})
        with pytest.raises(ValueError, match="only 0 of 10 patches succeeded"):
            tr.build_dataset([("tri3", mesh)], cfg, log=lambda m: None)


class TestArchive:
    def test_layout_and_roundtrip(self, tmp_path, tetra_mesh):
        cfg = tr.TrainConfig(**TINY)
        out = tmp_path / "arch"
        pairs = tr.prepare_archive([("tetra", tetra_mesh)], cfg, out)
        mesh_dir = out / "tetra"
        assert (out / "config.txt").is_file()
        assert (mesh_dir / "meta.json").is_file()
        for i in range(len(pairs)):
            assert (mesh_dir / f"patch_{i:04d}_input.xyz").is_file()
            assert (mesh_dir / f"patch_{i:04d}_gt.xyz").is_file()
        inp = read_xyz(mesh_dir / "patch_0000_input.xyz")
        gt = read_xyz(mesh_dir / "patch_0000_gt.xyz")
        assert inp.shape == (cfg.n_input, 3)
        assert gt.shape == (cfg.n_target, 3)
        # every input point is one of the target points (6-digit files)
        d = pairwise_distances(inp, gt).min(axis=1)
        assert d.max() < 1e-9

        back, cfg2 = tr.read_archive(out)
        assert cfg2 == cfg
        assert len(back) == len(pairs)
        assert np.abs(back[0].target - pairs[0].target).max() < 1e-5

    def test_rerun_is_byte_identical(self, tmp_path, tetra_mesh):
        cfg = tr.TrainConfig(**TINY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        tr.prepare_archive([("tetra", tetra_mesh)], cfg, out1)
        tr.prepare_archive([("tetra", tetra_mesh)], cfg, out2)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_missing_config_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="config.txt"):
            tr.read_archive(tmp_path)


class TestTrainLoop:
    def test_smoke_run_logs_and_checkpoints(self, tiny_pairs, tmp_path):
        pairs, cfg = tiny_pairs
        out = tmp_path / "run"
        result = tr.train(pairs, cfg, out)
        assert result.iterations == 3
        assert len(result.history) == 3
        for row in result.history:
            for key in ("loss_d", "loss_g", "adv_g", "rec", "uni", "d_real", "d_fake"):
                assert np.isfinite(row[key]), key
        lines = (out / "losses.csv").read_text().splitlines()
        assert lines[0] == tr.LOSS_LOG_HEADER
        assert len(lines) == 4
        assert sorted(os.listdir(out)) == ["ckpt_000002", "ckpt_000003", "losses.csv"]
        # TTUR: the two rates differ by 10x
        assert result.history[0]["lr_g"] == pytest.approx(10 * result.history[0]["lr_d"])

    def test_checkpoint_reproduces_generator(self, tiny_pairs, tmp_path):
        from pcup.networks import generate

        pairs, cfg = tiny_pairs
        out = tmp_path / "run"
        result = tr.train(pairs, cfg, out)
        gp, dp, cfg2 = tr.load_checkpoint(out / "ckpt_000003")
        assert dp is not None
        pts = pairs[0].target[: cfg.n_input]
        a = generate(result.generator, cfg.generator_config(), pts)
        b = generate(gp, cfg2.generator_config(), pts)
        assert np.array_equal(a, b)

    def test_training_is_deterministic(self, tiny_pairs, tmp_path):
        pairs, cfg = tiny_pairs
        tr.train(pairs, cfg, tmp_path / "r1")
        tr.train(pairs, cfg, tmp_path / "r2")
        a = (tmp_path / "r1" / "ckpt_000003" / "generator.params").read_bytes()
        b = (tmp_path / "r2" / "ckpt_000003" / "generator.params").read_bytes()
        assert a == b
        assert (tmp_path / "r1" / "losses.csv").read_text() == (
            tmp_path / "r2" / "losses.csv"
        ).read_text()

    def test_ablated_discriminator_run(self, tiny_pairs, tmp_path):
        pairs, cfg0 = tiny_pairs
        cfg = tr.TrainConfig(**{**TINY, "ablate_discriminator": True, "iterations": 2})
        result = tr.train(pairs, cfg, tmp_path / "run")
        assert result.discriminator is None
        row = result.history[-1]
        assert row["loss_d"] is None and row["adv_g"] is None
        assert np.isfinite(row["rec"])
        assert not (tmp_path / "run" / "ckpt_000002" / "discriminator.params").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_dump(self, tiny_pairs, tmp_path):
        # a huge discriminator rate overflows its activations to NaN
        # while the generator stays sane, so the abort fires on the
        # discriminator-loss check rather than on input validation
        pairs, _ = tiny_pairs
        cfg = tr.TrainConfig(**{**TINY, "lr_d": 1e80, "iterations": 10,
                                "ablate_uniform": True})
        out = tmp_path / "boom"
        with pytest.raises(RuntimeError, match="non-finite"):
            tr.train(pairs, cfg, out)
        dumps = [f for f in os.listdir(out) if f.startswith("nan_dump_")]
        assert len(dumps) == 1
        blob = np.load(out / dumps[0])
        assert blob["inputs"].shape[1:] == (cfg.n_input, 3)

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty dataset"):
            tr.train([], tr.TrainConfig(**TINY), tmp_path / "x")

    @pytest.mark.parametrize("key, value, message", [
        ("batch_size", 0, "batch_size must be at least 1, got 0"),
        ("iterations", -1, "training needs at least 1 iteration, got -1"),
        ("epochs", 0, "training needs at least 1 iteration, got 0"),
    ])
    def test_sizes_without_an_iteration_rejected(self, tiny_pairs, tmp_path, key, value, message):
        pairs, cfg = tiny_pairs
        cfg = tr.TrainConfig(**{**cfg.__dict__, "iterations": 0, key: value})
        with pytest.raises(ValueError, match=message):
            tr.train(pairs, cfg, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["checkpoint_every", "lr_decay_every", "uniform_seed_count"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_zero_periods_and_counts_rejected_before_writing(self, tiny_pairs, tmp_path, key, value):
        # each would fail only mid-run: a modulo or floor division by
        # zero, or an empty uniform-loss seed set
        pairs, cfg = tiny_pairs
        cfg = dataclasses.replace(cfg, **{key: value})
        with pytest.raises(ValueError, match=f"^{key} must be at least 1, got {value}$"):
            tr.train(pairs, cfg, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_reconstruction_only_training_improves_held_out_patch(
        self, icosphere_mesh, tmp_path
    ):
        from pcup.metrics import emd_exact
        from pcup.networks import generate

        cfg = tr.TrainConfig(**{**TINY, "patches_per_mesh": 6, "iterations": 250,
                                "ablate_discriminator": True})
        pairs = tr.build_dataset([("ico", icosphere_mesh)], cfg)
        held, train_pairs = pairs[-1], pairs[:-1]
        inp = held.target[: cfg.n_input]

        def held_out_emd(params):
            out = generate(params, cfg.generator_config(), inp)
            return emd_exact(out, held.target).cost / len(held.target)

        before = held_out_emd(
            init_generator(cfg.generator_config(), np.random.default_rng(cfg.seed))
        )
        result = tr.train(train_pairs, cfg, tmp_path / "run", log=lambda m: None)
        after = held_out_emd(result.generator)
        assert after < 0.9 * before


class TestUpsampleCloud:
    def _stub(self, params, cfg, patch):
        return np.tile(patch, (cfg.rate, 1))

    def test_stub_output_is_subset_of_input(self, rng):
        cfg = tr.TrainConfig(**TINY).generator_config()
        pts = rng.normal(size=(50, 3))
        up = tr.upsample_cloud(pts, None, cfg, generator_fn=self._stub)
        assert up.shape == (cfg.rate * 50, 3)
        # replication + normalize/denormalize roundtrip stays on the input
        d = pairwise_distances(up, pts).min(axis=1)
        assert d.max() < 1e-9

    def test_small_cloud_zero_pad_path(self, rng):
        cfg = tr.TrainConfig(**TINY).generator_config()
        pts = rng.normal(size=(5, 3))  # below n_input=16
        up = tr.upsample_cloud(pts, None, cfg, generator_fn=self._stub)
        assert up.shape == (cfg.rate * 5, 3)

    def test_small_cloud_pads_with_its_own_points(self, rng):
        # an ideal generator gives back the padded patch, so padding at the
        # origin would survive the final trim as points off the cloud
        cfg = tr.TrainConfig(**TINY).generator_config()
        pts = 10.0 + rng.normal(size=(10, 3))  # below n_input=16
        up = tr.upsample_cloud(pts, None, cfg, generator_fn=self._stub)
        assert up.shape == (cfg.rate * 10, 3)
        assert pairwise_distances(up, pts).min(axis=1).max() < 1e-9

    def test_trained_network_path(self, tiny_pairs, tmp_path, rng):
        pairs, cfg = tiny_pairs
        result = tr.train(pairs, cfg, tmp_path / "run")
        pts = rng.normal(size=(40, 3))
        up = tr.upsample_cloud(pts, result.generator, cfg.generator_config())
        assert up.shape == (cfg.rate * 40, 3)
        assert np.isfinite(up).all()

    def test_empty_input_rejected(self):
        cfg = tr.TrainConfig(**TINY).generator_config()
        with pytest.raises(ValueError, match="empty input"):
            tr.upsample_cloud(np.zeros((0, 3)), None, cfg, generator_fn=self._stub)

    @pytest.mark.parametrize("overlap", [0, 0.5, -1])
    def test_overlap_below_one_rejected(self, rng, overlap):
        cfg = tr.TrainConfig(**TINY).generator_config()
        calls = []

        def generator(params, gen_cfg, patch):
            calls.append(patch)
            return self._stub(params, gen_cfg, patch)

        with pytest.raises(ValueError, match="overlap_factor must be at least 1"):
            tr.upsample_cloud(rng.normal(size=(50, 3)), None, cfg, overlap, generator)
        assert calls == []

