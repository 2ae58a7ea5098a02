"""Config serialization, schedule, augmentation, dataset assembly,
archive I/O, the training loop, and whole-cloud upsampling."""

import copy
import ctypes
import dataclasses
import glob
import hashlib
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

import helpers
from pcup import autodiff as ad
from pcup import losses as lo
from pcup import training as tr
from pcup.geometry import (
    denormalize,
    farthest_point_sampling,
    normalize_unit_sphere,
    pairwise_distances,
    read_xyz,
    write_xyz,
)
from pcup.mesh import TriangleMesh
from pcup.networks import generate, init_discriminator, init_generator


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


# TrainConfig().to_text() as written before the paper's fixed values left
# the config: every archive and checkpoint of that time lists these 45 keys
DEFAULTS_45_KEYS = """\
n_input = 256
rate = 4
patches_per_mesh = 200
patch_fraction = 0.05
pool_size = 50000
graph_k = 10
feature_channels = 480
working_channels = 128
grid_extent = 0.2
group_k = 16
regress_hidden = 64
generator_fps_seed = 0
disc_point_channels = 64
disc_global_channels = 256
disc_head_hidden = 64
w_gan = 0.5
w_reconstruction = 100.0
w_uniform = 10.0
uniform_seed_count = 50
p_values = 0.004,0.006,0.008,0.01,0.012
batch_size = 28
epochs = 100
iterations = 0
lr_g = 0.001
lr_d = 0.0001
lr_decay = 0.7
lr_decay_every = 50000
lr_floor = 1e-06
adam_beta1 = 0.9
adam_beta2 = 0.999
adam_eps = 1e-08
checkpoint_every = 5000
augment_rotate = true
augment_scale = true
augment_jitter = true
scale_low = 0.8
scale_high = 1.2
jitter_sigma = 0.01
jitter_clip_sigmas = 3.0
ablate_discriminator = false
ablate_uniform = false
ablate_attention = false
ablate_up_down_up = false
ablate_fps = false
seed = 0
"""

# TrainConfig().to_text() as written while the schedule, the p values and
# the augmentation switches were keys: 30 keys
DEFAULTS_30_KEYS = """\
n_input = 256
rate = 4
patches_per_mesh = 200
patch_fraction = 0.05
pool_size = 50000
feature_channels = 480
working_channels = 128
group_k = 16
regress_hidden = 64
disc_point_channels = 64
disc_global_channels = 256
disc_head_hidden = 64
uniform_seed_count = 50
p_values = 0.004,0.006,0.008,0.01,0.012
batch_size = 28
epochs = 100
iterations = 0
lr_g = 0.001
lr_d = 0.0001
lr_decay_every = 50000
checkpoint_every = 5000
augment_rotate = true
augment_scale = true
augment_jitter = true
ablate_discriminator = false
ablate_uniform = false
ablate_attention = false
ablate_up_down_up = false
ablate_fps = false
seed = 0
"""

# each key the config no longer holds, at the value every such config held,
# as its line in those configs spells it
RETIRED_DEFAULTS = {
    "graph_k": "10", "grid_extent": "0.2", "generator_fps_seed": "0",
    "w_gan": "0.5", "w_reconstruction": "100.0", "w_uniform": "10.0",
    "p_values": "0.004,0.006,0.008,0.01,0.012", "epochs": "100",
    "lr_g": "0.001", "lr_d": "0.0001", "lr_decay": "0.7", "lr_decay_every": "50000",
    "lr_floor": "1e-06",
    "adam_beta1": "0.9", "adam_beta2": "0.999", "adam_eps": "1e-08",
    "augment_rotate": "true", "augment_scale": "true", "augment_jitter": "true",
    "scale_low": "0.8", "scale_high": "1.2", "jitter_sigma": "0.01", "jitter_clip_sigmas": "3.0",
}


# sha256 of losses.csv and of the last checkpoint's generator.params and
# discriminator.params in TestTrainLoop's batch of three, per OpenBLAS kernel
# as numpy's bundled library names it. Each set was recorded by setting
# OPENBLAS_CORETYPE, and holds at 1 and at 2 BLAS threads;
# OPENBLAS_CORETYPE=Prescott runs the kernel named Katmai
BATCH_OF_THREE_DIGESTS = {
    "SkylakeX": (
        "d3d33f2f079a2e66fc132a6c46430df7862e1a357a2f582bfebf297166ad6173",
        "72c51763c281c61cf7e599ac56c467f59c965256f8b08122ef550aad225411a5",
        "e0826f11cc0c41d6b774cf7b901f7e2846ebdd462fdd0513839bca3efc9c3269",
    ),
    "Haswell": (
        "fdb3630555910bc999ea70ba05a0ba7a6e65461bb0ca3f3881bd74798a1e34a6",
        "b2a3a64068f5f72c0ebfa86f27e5b4dc2326e6db9dc130d479d4febbb4972dc3",
        "5a159962bb4856df7b330401714960a88fb6124c2c02ea7f117a398a90a8aa52",
    ),
    "Sandybridge": (
        "fe4763c7c165d12a15c1770eb064611ab7efde902f9328c6ece4fce0d48324bd",
        "57f08b619bc5bdea5721def30085d6fbfa7f13b27c7bba159affcaf9a40dfb7e",
        "b5489522ab8de5b99f4bb351f8a1da790a9aadbdae8427c77e5b41b822e1bb0d",
    ),
    "Nehalem": (
        "81150730d12083bc3a20f197947c35cffceacb653c2c997ec66abf9209173336",
        "9055c8b7fcca91d68dfb9bcf5cb69d679ec575cc9029abb7c014b00c0bb59931",
        "816a90ca92941917a4d6699f8e0cdf6f99c7908bb9921854946117c2c24c17c3",
    ),
    "Katmai": (
        "d8987176b72a7e628aa9c249bb43c645a92d6759c074ec07eed3af46c6d8422f",
        "a983448a0cdba68d1b49707d0dda51618f187c92456fa88e0bac6dc11375bf8a",
        "5f3dfedd45a6f4dd15a0201485b3a15ea4ad65d4f7f5657395d36ca599f40324",
    ),
}


def openblas_core():
    """Name of the kernel that numpy's bundled OpenBLAS runs, or None
    where no bundled library reports one."""
    here = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*openblas*"))
                       + glob.glob(os.path.join(here, ".dylibs", "*openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode("ascii", "replace")
    return None


@pytest.fixture(scope="module")
def tiny_pairs(tetra_mesh):
    cfg = tr.TrainConfig(**TINY)
    return tr.build_dataset("tetra", tetra_mesh, cfg), cfg


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
        at = next(i for i, line in enumerate(lines) if line.startswith("uniform_seed_count")) + 1
        old_text = "".join(lines[:at] + ["emd_epsilon = 0.001\n"] + lines[at:])
        assert tr.TrainConfig.from_text(old_text) == cfg
        ckpt = tmp_path / "ckpt"
        gparams = init_generator(cfg, 0)
        tr.save_checkpoint(ckpt, gparams, None, cfg)
        (ckpt / "config.txt").write_text(old_text)
        assert tr.load_checkpoint(ckpt)[2] == cfg
        with pytest.raises(ValueError, match="unknown key"):
            tr.TrainConfig.from_text(old_text + "emd_epsilonn = 0.001\n")

    def test_config_with_every_retired_key_still_loads(self, tmp_path):
        assert len(DEFAULTS_45_KEYS.splitlines()) == 45
        assert tr.TrainConfig.from_text(DEFAULTS_45_KEYS) == tr.TrainConfig()
        names = {f.name for f in dataclasses.fields(tr.TrainConfig)}
        assert names.isdisjoint(RETIRED_DEFAULTS)
        assert len(names) == 22
        assert len(names) + len(RETIRED_DEFAULTS) == 45
        path = tmp_path / "config.txt"
        path.write_text(DEFAULTS_45_KEYS)
        assert tr.TrainConfig.load(path) == tr.TrainConfig()
        assert len(DEFAULTS_30_KEYS.splitlines()) == 30
        assert tr.TrainConfig.from_text(DEFAULTS_30_KEYS) == tr.TrainConfig()
        assert set(tr._RETIRED_KEYS) == set(RETIRED_DEFAULTS) | {"emd_epsilon"}

    @pytest.mark.parametrize("key", sorted(RETIRED_DEFAULTS))
    def test_retired_key_at_another_value_is_rejected(self, tmp_path, key):
        fixed = RETIRED_DEFAULTS[key]
        # another value of the same type: a number with one more digit
        other = {"true": "false", RETIRED_DEFAULTS["p_values"]: "0.004,0.006"}.get(fixed, fixed + "1")
        for value in (other, "nan", "x"):
            text = DEFAULTS_45_KEYS.replace(f"\n{key} = {fixed}\n", f"\n{key} = {value}\n")
            assert text != DEFAULTS_45_KEYS
            with pytest.raises(ValueError, match=rf"^config line \d+: {key} "):
                tr.TrainConfig.from_text(text)
        path = tmp_path / "config.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line \\d+: {key} "):
            tr.TrainConfig.load(path)

    def test_retired_key_in_a_checkpoint_is_rejected(self, tmp_path):
        cfg = tr.TrainConfig(**TINY)
        ckpt = tmp_path / "ckpt"
        tr.save_checkpoint(ckpt, init_generator(cfg, 0), None, cfg)
        (ckpt / "config.txt").write_text(cfg.to_text() + "grid_extent = 0.2\n")
        assert tr.load_checkpoint(ckpt)[2] == cfg
        (ckpt / "config.txt").write_text(cfg.to_text() + "grid_extent = 0.3\n")
        with pytest.raises(ValueError, match="grid_extent is fixed at 0.2, got 0.3"):
            tr.load_checkpoint(ckpt)

    def test_non_ascii_config_names_the_file(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_bytes(b"seed = 1\n\xff\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: binary config files"):
            tr.TrainConfig.load(path)
        archive = tmp_path / "archive"
        archive.mkdir()
        (archive / "config.txt").write_bytes(b"\xff")
        with pytest.raises(ValueError, match=re.escape(str(archive / "config.txt"))):
            tr.read_archive(archive)

    def test_repeated_key_rejected(self):
        text = "seed = 1\nbatch_size = 2\n# a comment\nbatch_size = 3\n"
        with pytest.raises(ValueError, match="^config line 4: batch_size repeats the key of line 2$"):
            tr.TrainConfig.from_text(text)
        # a retired key too, also at its fixed value
        text = DEFAULTS_45_KEYS + "grid_extent = 0.2\n"
        line = DEFAULTS_45_KEYS.splitlines().index("grid_extent = 0.2") + 1
        with pytest.raises(ValueError, match=f"^config line 46: grid_extent repeats the key of "
                                             f"line {line}$"):
            tr.TrainConfig.from_text(text)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            tr.TrainConfig.from_text("just words\n")

    def test_bool_spelling_enforced(self):
        with pytest.raises(ValueError, match="true or false"):
            tr.TrainConfig.from_text("ablate_uniform = yes\n")

    @pytest.mark.parametrize("changes, message", [
        *(({key: value}, f"{key} must be at least 1, got {value}")
          for key in ("batch_size", "checkpoint_every", "uniform_seed_count",
                      "working_channels", "regress_hidden", "disc_point_channels",
                      "disc_global_channels", "disc_head_hidden") for value in (0, -2)),
        *(({"feature_channels": value}, f"feature_channels must be a positive multiple of 3, "
                                        f"got {value}") for value in (0, -3, 25)),
        ({"iterations": -1}, "training needs at least 1 iteration, got -1"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
        ({"rate": 1, "ablate_fps": True}, "rate must be at least 2 under ablate_fps, got 1"),
        *(({"n_input": value}, f"n_input must be at least 1, got {value}") for value in (0, -3)),
        ({"rate": 0}, "rate must be at least 1, got 0"),
        *(({"patch_fraction": value}, f"patch_fraction must be in (0, 0.5), got {value}")
          for value in (float("nan"), 0.0, -0.1, 0.5, 0.9)),
        *(({key: value}, f"{key} must be at least 1, got {value}")
          for key in ("pool_size", "patches_per_mesh") for value in (0, -2)),
        *(({"group_k": value}, f"group_k must be in 1..n_input = 16, got {value}")
          for value in (0, -1)),
        ({"patch_fraction": 1e-320}, "patch_fraction must leave a finite pool of 5 x 32 "
                                     "target points / patch_fraction, got 1e-320"),
    ])
    def test_value_no_run_can_use_refused_however_made(self, tmp_path, changes, message):
        match = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=match):
            tr.TrainConfig(**{**TINY, **changes})
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(tr.TrainConfig(**TINY), **changes)
        values = {**TINY, **changes}
        text = "".join(f"{key} = {str(value).lower()}\n" for key, value in values.items())
        with pytest.raises(ValueError, match=match):
            tr.TrainConfig.from_text(text)
        path = tmp_path / "config.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            tr.TrainConfig.load(path)

    def test_fields_cannot_be_assigned(self):
        cfg = tr.TrainConfig(**TINY)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.batch_size = 3
        assert cfg == tr.TrainConfig(**TINY)

    def test_rules_that_need_the_data_are_not_the_configs(self):
        # train checks group_k against the patch, so a config whose group_k
        # exceeds its own n_input loads; the fields only prepare reads are
        # refused as prepare's flags refuse them
        cfg = tr.TrainConfig(n_input=8, group_k=16)
        assert tr.TrainConfig.from_text(cfg.to_text()) == cfg

    def test_default_hyperparameters(self):
        cfg = tr.TrainConfig()
        assert cfg.n_input == 256 and cfg.rate == 4
        assert cfg.batch_size == 28 and cfg.patches_per_mesh == 200
        assert tr.LR_G == 1e-3 and tr.LR_D == 1e-4
        assert cfg.uniform_seed_count == 50
        assert lo.W_GAN == 0.5 and lo.W_RECONSTRUCTION == 100.0 and lo.W_UNIFORM == 10.0

    def test_schedule_decays_by_0_7_every_50k(self):
        assert tr.learning_rate(1e-3, 1) == 1e-3
        assert tr.learning_rate(1e-3, 50000) == 1e-3
        assert tr.learning_rate(1e-3, 50001) == pytest.approx(0.7e-3)
        assert tr.learning_rate(1e-3, 100001) == pytest.approx(0.49e-3)
        assert tr.learning_rate(1e-3, 10**7) == 1e-6  # floor


def _replay_augmentation(rng, shape):
    """(rotation, scale, clipped input jitter) that augment_pair draws
    from a generator in the state of `rng`, drawn from a copy of it."""
    replay = copy.deepcopy(rng)
    rot = tr.random_rotation(replay)
    s = replay.uniform(tr.SCALE_LOW, tr.SCALE_HIGH)
    bound = tr.JITTER_CLIP_SIGMAS * tr.JITTER_SIGMA
    return rot, s, np.clip(replay.normal(0.0, tr.JITTER_SIGMA, shape), -bound, bound)


class TestAugmentation:
    def test_rotation_matrices_are_special_orthogonal(self, rng):
        for _ in range(20):
            rot = tr.random_rotation(rng)
            assert np.abs(rot @ rot.T - np.eye(3)).max() < 1e-12
            assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_pair_shares_rotation_and_scale(self, rng):
        p = rng.normal(size=(20, 3))
        q = rng.normal(size=(40, 3))
        _, _, jitter = _replay_augmentation(rng, p.shape)
        p2, q2 = tr.augment_pair(p, q, rng)
        # without the input jitter, the same similarity transform applies
        # to both clouds: all cross-distances scale by one factor
        before = pairwise_distances(p, q)
        after = pairwise_distances(p2 - jitter, q2)
        ratio = after / before
        s = ratio.mean()
        assert 0.8 <= s <= 1.2
        assert np.abs(ratio - s).max() < 1e-9

    def test_jitter_is_clipped_and_input_only(self, rng):
        p = rng.normal(size=(50, 3))
        q = rng.normal(size=(60, 3))
        rot, s, jitter = _replay_augmentation(rng, p.shape)
        p2, q2 = tr.augment_pair(p, q, rng)
        assert np.array_equal(q2, (q @ rot.T) * s)
        assert np.array_equal(p2, (p @ rot.T) * s + jitter)
        move = np.abs(p2 - (p @ rot.T) * s)
        assert move.max() <= 3 * tr.JITTER_SIGMA + 1e-12
        assert move.max() > 0


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
        a = tr.build_dataset("t", tetra_mesh, cfg)
        b = tr.build_dataset("t", tetra_mesh, cfg)
        assert all(np.array_equal(x.target, y.target) for x, y in zip(a, b))

    def test_partial_failures_logged_and_skipped(self, two_triangle_mesh):
        # seeds landing on the small component (25% of samples) cannot
        # reach a 30% patch and are skipped with a warning
        cfg = tr.TrainConfig(**{**TINY, "patches_per_mesh": 20, "patch_fraction": 0.3,
                                "pool_size": 2000, "n_input": 8})
        messages = []
        pairs = tr.build_dataset("two", two_triangle_mesh, cfg, log=messages.append)
        assert messages, "expected at least one skipped-seed warning"
        assert all("skipped" in m for m in messages)
        assert len(pairs) == 20 - len(messages)
        assert len(pairs) >= 10

    def test_pool_floor_is_logged(self, tetra_mesh):
        # 5 x 32 target points / 0.05 = 3200 > the configured 2000
        messages = []
        tr.build_dataset("t", tetra_mesh, tr.TrainConfig(**TINY), log=messages.append)
        assert messages == ["t: pool size raised from 2000 to 3200 "
                            "(5 x 32 target points / patch fraction 0.05)"]
        messages = []
        cfg = tr.TrainConfig(**{**TINY, "pool_size": 3200})
        tr.build_dataset("t", tetra_mesh, cfg, log=messages.append)
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
            tr.build_dataset("tri3", mesh, cfg, log=lambda m: None)


class TestArchive:
    def test_layout_and_roundtrip(self, tmp_path, tetra_mesh):
        cfg = tr.TrainConfig(**TINY)
        out = tmp_path / "arch"
        pairs = tr.prepare_archive("tetra", tetra_mesh, cfg, out)
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
        tr.prepare_archive("tetra", tetra_mesh, cfg, out1)
        tr.prepare_archive("tetra", tetra_mesh, cfg, out2)
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
        a = generate(result.generator, cfg, pts)
        b = generate(gp, cfg2, pts)
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

    @staticmethod
    def _networks_and_batch(pairs, cfg):
        rng = np.random.default_rng(cfg.seed)
        gparams = init_generator(cfg, rng)
        dparams = init_discriminator(cfg, rng)
        batch = [(pair.target[rng.choice(len(pair.target), size=cfg.n_input, replace=False)],
                  pair.target) for pair in pairs[:cfg.batch_size]]
        return gparams, dparams, batch

    def test_generator_step_adds_nothing_into_the_discriminator(self, tiny_pairs):
        pairs, cfg = tiny_pairs
        gparams, dparams, [(p, q), *_] = self._networks_and_batch(pairs, cfg)
        values = tr._generator_patch(gparams, dparams, cfg, p, q, 7, 0.5)
        assert all(np.isfinite(v) for v in values)
        assert [name for name, node in dparams.items() if node.grad is not None] == []
        assert [name for name, node in gparams.items() if node.grad is None] == []

    def test_generator_gradient_is_patches_summed_in_order(self, tiny_pairs):
        # what a worker per patch would return: each patch's gradient in
        # buffers of its own, added in patch order, gives the serial
        # accumulation's bits, since each generator parameter gets one push
        # per patch. The discriminator step pushes twice per parameter and
        # patch (fake, then real), so its per-patch sums round differently
        pairs, _ = tiny_pairs
        cfg = tr.TrainConfig(**{**TINY, "batch_size": 3})
        gparams, dparams, batch = self._networks_and_batch(pairs, cfg)
        per_patch = []
        for p, q in batch:
            tr._generator_patch(gparams, dparams, cfg, p, q, 7, 1.0 / 3)
            per_patch.append({name: node.grad for name, node in gparams.items()})
            gparams.zero_grad()
        for p, q in batch:
            tr._generator_patch(gparams, dparams, cfg, p, q, 7, 1.0 / 3)
        for name, node in gparams.items():
            total = per_patch[0][name] + per_patch[1][name]
            total += per_patch[2][name]
            assert total.tobytes() == node.grad.tobytes(), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_dump(self, tiny_pairs, tmp_path, monkeypatch):
        # a huge discriminator rate overflows its activations to NaN
        # while the generator stays sane, so the abort fires on the
        # discriminator-loss check rather than on input validation
        pairs, _ = tiny_pairs
        monkeypatch.setattr(tr, "LR_D", 1e80)
        cfg = tr.TrainConfig(**{**TINY, "iterations": 10, "ablate_uniform": True})
        out = tmp_path / "boom"
        with pytest.raises(RuntimeError, match="non-finite"):
            tr.train(pairs, cfg, out)
        dumps = [f for f in os.listdir(out) if f.startswith("nan_dump_")]
        assert len(dumps) == 1
        blob = np.load(out / dumps[0])
        assert blob["inputs"].shape[1:] == (cfg.n_input, 3)

    def test_non_finite_generator_term_aborts_before_any_update(
        self, tiny_pairs, tmp_path, monkeypatch
    ):
        # the second patch's term is NaN; its backward has already run
        # when the batch total is checked, so the check must come before
        # the generator's Adam step
        pairs, _ = tiny_pairs
        cfg = tr.TrainConfig(**{**TINY, "batch_size": 3})
        calls = []
        real_rec = tr.lo.reconstruction_loss

        def rec_nan_on_second_patch(pred, target):
            node, matched = real_rec(pred, target)
            calls.append(1)
            return (ad.scale(node, float("nan")) if len(calls) == 2 else node), matched

        steps = []
        monkeypatch.setattr(tr.lo, "reconstruction_loss", rec_nan_on_second_patch)
        monkeypatch.setattr(tr.ad, "adam_step", lambda *args, **kw: steps.append(args))
        out = tmp_path / "boom"
        with pytest.raises(RuntimeError, match="non-finite generator loss"):
            tr.train(pairs, cfg, out)
        assert len(calls) == 3  # every patch went through before the check
        assert steps == []
        dumps = [f for f in os.listdir(out) if f.startswith("nan_dump_")]
        assert dumps == ["nan_dump_000001.npz"]
        assert sorted(os.listdir(out)) == ["losses.csv", "nan_dump_000001.npz"]

    def test_peak_memory_is_flat_in_batch_size(self, tiny_pairs, tmp_path):
        # each patch's graph is freed once its backward has run; keeping
        # the whole batch's graphs for one backward peaked at 0.87 MB at
        # batch 1 and 3.00 MB at batch 4 here, against 0.56 and 0.57 MB
        pairs, _ = tiny_pairs
        peaks = []
        for batch in (1, 4):
            cfg = tr.TrainConfig(**{**TINY, "batch_size": batch, "iterations": 1})
            tracemalloc.start()
            try:
                tr.train(pairs, cfg, tmp_path / f"b{batch}")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_batch_of_three_reproduces_recorded_bytes(self, tiny_pairs, tmp_path):
        # recorded when the batch loss was one graph node, (t0 + t1 + t2)
        # scaled by 1 / 3, sent through one backward. 1 / 3 is inexact,
        # so these bits pin both the order in which each parameter's
        # gradient adds up over the patches and the arithmetic of the
        # logged totals. Matrix products run in BLAS, and each OpenBLAS
        # kernel has its own bits; a kernel without a recorded set fails
        core = openblas_core()
        if core not in BATCH_OF_THREE_DIGESTS:
            pytest.fail(f"no digests recorded for the OpenBLAS core {core!r}" if core
                        else "cannot read the core name of numpy's bundled OpenBLAS")
        pairs, _ = tiny_pairs
        cfg = tr.TrainConfig(**{**TINY, "batch_size": 3, "iterations": 4})
        out = tmp_path / "run"
        tr.train(pairs, cfg, out)
        paths = ("losses.csv", "ckpt_000004/generator.params", "ckpt_000004/discriminator.params")
        digests = {path: hashlib.sha256((out / path).read_bytes()).hexdigest() for path in paths}
        assert digests == dict(zip(paths, BATCH_OF_THREE_DIGESTS[core])), core

    def test_discriminator_pooled_key_rows_keep_their_initial_bits(self, tiny_pairs, tmp_path):
        # the discriminator's attention takes its pooled feature as its one
        # code, whose rows of H add a constant to each row of scores: they
        # get an exactly zero gradient, and Adam makes zero steps from it
        pairs, _ = tiny_pairs
        cfg = tr.TrainConfig(**{**TINY, "iterations": 4})
        rng = np.random.default_rng(cfg.seed)
        init_generator(cfg, rng)
        start = init_discriminator(cfg, rng)["d.attn.h.w"].value
        end = tr.train(pairs, cfg, tmp_path / "run").discriminator["d.attn.h.w"].value
        c = cfg.disc_point_channels
        assert np.array_equal(end[c:], start[c:])
        assert not np.array_equal(end[:c], start[:c])

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty dataset"):
            tr.train([], tr.TrainConfig(**TINY), tmp_path / "x")

    @pytest.mark.parametrize("key, value, message", [
        ("batch_size", 0, "batch_size must be at least 1, got 0"),
        ("iterations", -1, "training needs at least 1 iteration, got -1"),
    ])
    def test_sizes_without_an_iteration_rejected(self, tiny_pairs, tmp_path, key, value, message):
        pairs, cfg = tiny_pairs
        with pytest.raises(ValueError, match=message):
            cfg = tr.TrainConfig(**{**cfg.__dict__, "iterations": 0, key: value})
            tr.train(pairs, cfg, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["checkpoint_every", "uniform_seed_count"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_zero_periods_and_counts_rejected_before_writing(self, tiny_pairs, tmp_path, key, value):
        # each would fail only mid-run: a modulo or floor division by
        # zero, or an empty uniform-loss seed set
        pairs, cfg = tiny_pairs
        with pytest.raises(ValueError, match=f"^{key} must be at least 1, got {value}$"):
            cfg = dataclasses.replace(cfg, **{key: value})
            tr.train(pairs, cfg, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("n_input", [8, 32])
    def test_patch_size_mismatch_rejected_before_writing(self, tiny_pairs, tmp_path, n_input):
        # the archive's targets hold rate 2 x N 16 = 32 points; any other
        # n_input used to fail in the first iteration's loss
        pairs, cfg = tiny_pairs
        cfg = dataclasses.replace(cfg, n_input=n_input)
        message = (f"^patch tetra/0 holds 32 target points, but rate 2 x n_input "
                   f"{n_input} needs {2 * n_input}$")
        with pytest.raises(ValueError, match=message):
            tr.train(pairs, cfg, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("group_k", [0, 17, 32])
    def test_group_k_outside_the_patch_rejected_before_writing(self, tiny_pairs, tmp_path,
                                                               group_k):
        # the local embedding takes group_k of a patch's n_input = 16 points;
        # a larger group_k used to fail in the first iteration, after
        # losses.csv was written, so the run directory refused a rerun
        pairs, cfg = tiny_pairs
        with pytest.raises(ValueError, match=f"^group_k must be in 1..n_input = 16, got {group_k}$"):
            cfg = dataclasses.replace(cfg, group_k=group_k)
            tr.train(pairs, cfg, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("feature_channels", 0, "feature_channels must be a positive multiple of 3, got 0"),
        ("feature_channels", -3, "feature_channels must be a positive multiple of 3, got -3"),
        ("feature_channels", 25, "feature_channels must be a positive multiple of 3, got 25"),
        ("working_channels", 0, "working_channels must be at least 1, got 0"),
        ("regress_hidden", 0, "regress_hidden must be at least 1, got 0"),
        ("disc_point_channels", 0, "disc_point_channels must be at least 1, got 0"),
        ("disc_global_channels", -1, "disc_global_channels must be at least 1, got -1"),
        ("disc_head_hidden", 0, "disc_head_hidden must be at least 1, got 0"),
    ])
    def test_network_widths_rejected_before_writing(self, tiny_pairs, tmp_path, key, value,
                                                    message):
        # a zero width used to end in a ZeroDivisionError from
        # glorot_uniform, a negative one in numpy's "negative dimensions",
        # and regress_hidden = 0 trained a generator that outputs its bias
        pairs, cfg = tiny_pairs
        with pytest.raises(ValueError, match=f"^{message}$"):
            cfg = dataclasses.replace(cfg, **{key: value})
            tr.train(pairs, cfg, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_negative_seed_rejected_before_writing(self, tiny_pairs, tmp_path):
        pairs, cfg = tiny_pairs
        with pytest.raises(ValueError):
            tr.train(pairs, dataclasses.replace(cfg, seed=-1), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_reconstruction_only_training_improves_held_out_patch(
        self, icosphere_mesh, tmp_path
    ):
        from pcup.metrics import emd_exact
        from pcup.networks import generate

        cfg = tr.TrainConfig(**{**TINY, "patches_per_mesh": 6, "iterations": 250,
                                "ablate_discriminator": True})
        pairs = tr.build_dataset("ico", icosphere_mesh, cfg)
        held, train_pairs = pairs[-1], pairs[:-1]
        inp = held.target[: cfg.n_input]

        def held_out_emd(params):
            out = generate(params, cfg, inp)
            return emd_exact(out, held.target).cost / len(held.target)

        before = held_out_emd(
            init_generator(cfg, np.random.default_rng(cfg.seed))
        )
        result = tr.train(train_pairs, cfg, tmp_path / "run")
        after = held_out_emd(result.generator)
        assert after < 0.9 * before


class TestUpsampleCloud:
    def _stub(self, params, cfg, patches):
        return np.tile(patches, (1, cfg.rate, 1))

    def test_stub_output_is_subset_of_input(self, rng):
        cfg = tr.TrainConfig(**TINY)
        pts = rng.normal(size=(50, 3))
        up = tr.upsample_cloud(pts, None, cfg, generator_fn=self._stub)
        assert up.shape == (cfg.rate * 50, 3)
        # replication + normalize/denormalize roundtrip stays on the input
        d = pairwise_distances(up, pts).min(axis=1)
        assert d.max() < 1e-9

    def test_small_cloud_zero_pad_path(self, rng):
        cfg = tr.TrainConfig(**TINY)
        pts = rng.normal(size=(5, 3))  # below n_input=16
        up = tr.upsample_cloud(pts, None, cfg, generator_fn=self._stub)
        assert up.shape == (cfg.rate * 5, 3)

    def test_small_cloud_pads_with_its_own_points(self, rng):
        # an ideal generator gives back the padded patch, so padding at the
        # origin would survive the final trim as points off the cloud
        cfg = tr.TrainConfig(**TINY)
        pts = 10.0 + rng.normal(size=(10, 3))  # below n_input=16
        up = tr.upsample_cloud(pts, None, cfg, generator_fn=self._stub)
        assert up.shape == (cfg.rate * 10, 3)
        assert pairwise_distances(up, pts).min(axis=1).max() < 1e-9

    @staticmethod
    def _single_patch_reference(pts, params, cfg):
        """upsample_cloud from one 2D generate call per patch: each
        normalized patch upsampled on its own, denormalized, and the
        union trimmed."""
        n, n_in = len(pts), cfg.n_input
        if n < n_in:
            patches = [pts[np.arange(n_in) % n]]
        else:
            seeds = farthest_point_sampling(pts, math.ceil(3 * n / n_in), 0)
            patches = [pts[helpers.brute_knn(pts, pts[s], n_in)] for s in seeds]
        pieces = []
        for patch in patches:
            normed, centroid, scale = normalize_unit_sphere(patch)
            pieces.append(denormalize(generate(params, cfg, normed), centroid, scale))
        union = np.vstack(pieces)
        return union[farthest_point_sampling(union, cfg.rate * n, 0)]

    @pytest.mark.parametrize("ablate_fps", [False, True])
    @pytest.mark.parametrize("n", [40, 10])  # 10 < n_input: one padded patch
    def test_matches_single_patch_reference_bytes(self, rng, ablate_fps, n):
        cfg = tr.TrainConfig(**TINY, ablate_fps=ablate_fps)
        params = init_generator(cfg, 1)
        pts = rng.normal(size=(n, 3))
        got = tr.upsample_cloud(pts, params, cfg)
        assert got.shape == (cfg.rate * n, 3)
        assert got.tobytes() == self._single_patch_reference(pts, params, cfg).tobytes()

    def test_trained_network_path(self, tiny_pairs, tmp_path, rng):
        pairs, cfg = tiny_pairs
        result = tr.train(pairs, cfg, tmp_path / "run")
        pts = rng.normal(size=(40, 3))
        up = tr.upsample_cloud(pts, result.generator, cfg)
        assert up.shape == (cfg.rate * 40, 3)
        assert np.isfinite(up).all()

    def test_patches_come_from_one_knn_query(self, rng, monkeypatch):
        cfg = tr.TrainConfig(**TINY)
        pts = rng.normal(size=(200, 3))
        patches = []

        def generator(params, cfg, stack):
            patches.extend(stack)
            return self._stub(params, cfg, stack)

        calls = []
        knn = tr.SpatialIndex.knn
        monkeypatch.setattr(tr.SpatialIndex, "knn",
                            lambda self, q, k: calls.append(len(q)) or knn(self, q, k))
        tr.upsample_cloud(pts, None, cfg, generator_fn=generator)
        seeds = farthest_point_sampling(pts, math.ceil(3 * 200 / cfg.n_input), 0)
        assert calls == [len(seeds)]
        for s, patch in zip(seeds, patches):
            nbr = helpers.brute_knn(pts, pts[s], cfg.n_input)
            normed = (pts[nbr] - pts[nbr].mean(axis=0))
            assert np.allclose(patch, normed / np.linalg.norm(normed, axis=1).max())

    def test_written_cloud_bytes_are_pinned(self, tmp_path):
        # one digest for every OpenBLAS kernel, at 1 and 2 BLAS threads: the
        # generator's output arrays differ between kernels in the last bits
        # (SkylakeX and Haswell agree here, as do Sandybridge, Nehalem and
        # Katmai), but the file, at 6 significant digits, was the same on
        # all five kernels. A kernel whose rounding crosses a printed digit,
        # or flips a near-tie of the trim, would fail here
        cfg = tr.TrainConfig(**TINY)
        up = tr.upsample_cloud(np.random.default_rng(0).normal(size=(200, 3)),
                               init_generator(cfg, 0), cfg)
        write_xyz(str(tmp_path / "up.xyz"), up)
        assert hashlib.sha256((tmp_path / "up.xyz").read_bytes()).hexdigest() == (
            "5a494c0623af108e26191cb0f01984f4b0fa9515f2012833fdf865002aa523b5")

    def test_empty_input_rejected(self):
        cfg = tr.TrainConfig(**TINY)
        with pytest.raises(ValueError, match="empty input"):
            tr.upsample_cloud(np.zeros((0, 3)), None, cfg, generator_fn=self._stub)

    @pytest.mark.parametrize("overlap", [0, 0.5, -1])
    def test_overlap_below_one_rejected(self, rng, overlap):
        cfg = tr.TrainConfig(**TINY)
        calls = []

        def generator(params, cfg, stack):
            calls.append(stack)
            return self._stub(params, cfg, stack)

        with pytest.raises(ValueError, match="overlap_factor must be at least 1"):
            tr.upsample_cloud(rng.normal(size=(50, 3)), None, cfg, overlap, generator)
        assert calls == []

