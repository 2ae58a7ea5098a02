"""Dataset assembly, augmentation, the alternating adversarial training
loop with separate generator/discriminator learning rates, and
patch-based whole-cloud upsampling.

Every random decision flows from one seeded generator, so a fixed
TrainConfig reproduces byte-identical archives, logs, and checkpoints.
"""

import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from . import losses as lo
from . import metrics
from .geometry import (
    SpatialIndex,
    as_points,
    denormalize,
    farthest_point_sampling,
    normalize_unit_sphere,
    read_xyz,
    write_xyz,
)
from .mesh import PatchGrower, area_weighted_sample, poisson_disk_sample
from .networks import (
    DiscriminatorConfig,
    GeneratorConfig,
    discriminate_node,
    generate,
    generate_node,
    init_discriminator,
    init_generator,
)

__all__ = [
    "TrainConfig",
    "PatchPair",
    "TrainResult",
    "build_dataset",
    "prepare_archive",
    "read_archive",
    "random_rotation",
    "augment_pair",
    "train",
    "upsample_cloud",
    "save_checkpoint",
    "load_checkpoint",
    "LOSS_LOG_HEADER",
]


# keys of removed knobs: from_text ignores them, so archives and
# checkpoints written while they existed keep loading
_RETIRED_KEYS = frozenset({"emd_epsilon"})


@dataclass
class TrainConfig:
    """Every knob of the pipeline, serializable as ASCII key-value text."""

    # patch extraction
    n_input: int = 256
    rate: int = 4
    patches_per_mesh: int = 200
    patch_fraction: float = 0.05
    pool_size: int = 50000
    graph_k: int = 10
    # network widths
    feature_channels: int = 480
    working_channels: int = 128
    grid_extent: float = 0.2
    group_k: int = 16
    regress_hidden: int = 64
    generator_fps_seed: int = 0
    disc_point_channels: int = 64
    disc_global_channels: int = 256
    disc_head_hidden: int = 64
    # loss weights and uniformity protocol
    w_gan: float = 0.5
    w_reconstruction: float = 100.0
    w_uniform: float = 10.0
    uniform_seed_count: int = 50
    p_values: tuple = metrics.P_VALUES
    # not a field: the matching is exact, so its tolerance is 0;
    # perfbench/oracles.py reads it
    emd_epsilon: ClassVar[float] = 0.0
    # optimization schedule
    batch_size: int = 28
    epochs: int = 100
    iterations: int = 0  # 0 = epochs * ceil(dataset / batch)
    lr_g: float = 1e-3
    lr_d: float = 1e-4
    lr_decay: float = 0.7
    lr_decay_every: int = 50000
    lr_floor: float = 1e-6
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    checkpoint_every: int = 5000
    # augmentation
    augment_rotate: bool = True
    augment_scale: bool = True
    augment_jitter: bool = True
    scale_low: float = 0.8
    scale_high: float = 1.2
    jitter_sigma: float = 0.01
    jitter_clip_sigmas: float = 3.0
    # ablation switches
    ablate_discriminator: bool = False
    ablate_uniform: bool = False
    ablate_attention: bool = False
    ablate_up_down_up: bool = False
    ablate_fps: bool = False
    # reproducibility
    seed: int = 0

    @property
    def n_target(self):
        return self.rate * self.n_input

    def generator_config(self):
        return GeneratorConfig(
            n_input=self.n_input,
            rate=self.rate,
            feature_channels=self.feature_channels,
            working_channels=self.working_channels,
            grid_extent=self.grid_extent,
            group_k=self.group_k,
            regress_hidden=self.regress_hidden,
            fps_seed=self.generator_fps_seed,
            use_attention=not self.ablate_attention,
            use_up_down_up=not self.ablate_up_down_up,
            use_fps_trim=not self.ablate_fps,
        )

    def discriminator_config(self):
        return DiscriminatorConfig(
            point_channels=self.disc_point_channels,
            global_channels=self.disc_global_channels,
            head_hidden=self.disc_head_hidden,
            use_attention=not self.ablate_attention,
        )

    def loss_weights(self):
        return lo.LossWeights(self.w_gan, self.w_reconstruction, self.w_uniform)

    def uniform_config(self):
        return lo.UniformLossConfig(tuple(self.p_values), self.uniform_seed_count)

    def learning_rate(self, base, step):
        """Step-decayed rate: multiply by lr_decay once per
        lr_decay_every iterations (1-based step), floored at lr_floor."""
        return max(self.lr_floor, base * self.lr_decay ** ((step - 1) // self.lr_decay_every))

    @classmethod
    def desk_profile(cls):
        """Small CPU-friendly profile: tiny patches, short run."""
        return cls(
            n_input=64,
            patches_per_mesh=10,
            pool_size=30000,
            batch_size=4,
            iterations=500,
            checkpoint_every=250,
        )

    def to_text(self):
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                s = "true" if v else "false"
            elif isinstance(v, tuple):
                s = ",".join(repr(float(x)) for x in v)
            else:
                s = repr(v)
            lines.append(f"{f.name} = {s}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        defaults = cls()
        known = {f.name: getattr(defaults, f.name) for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key in _RETIRED_KEYS:
                continue
            if key not in known:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            ref = known[key]
            if isinstance(ref, bool):
                if val not in ("true", "false"):
                    raise ValueError(f"config line {lineno}: {key} must be true or false")
                values[key] = val == "true"
            elif isinstance(ref, int):
                values[key] = int(val)
            elif isinstance(ref, float):
                values[key] = float(val)
            elif isinstance(ref, tuple):
                values[key] = tuple(float(t) for t in val.split(",") if t)
            else:
                values[key] = val
        return cls(**values)


@dataclass
class PatchPair:
    """One training example: a normalized dense target patch plus the
    transform that maps it back to mesh coordinates. Network inputs are
    drawn from the target on the fly."""

    target: np.ndarray
    mesh_id: str
    centroid: np.ndarray
    scale: float
    index: int


def _default_log(message):
    print(message, file=sys.stderr)


def build_dataset(meshes, cfg, rng=None, log=_default_log):
    """Extract patches_per_mesh geodesic patches per (name, mesh) entry
    and Poisson-disk sample a dense target from each.

    Individual patch failures are logged and skipped; a mesh yielding
    fewer than min(10, patches_per_mesh) patches raises."""
    rng = np.random.default_rng(cfg.seed if rng is None else rng)
    pairs = []
    for name, mesh in meshes:
        pairs.extend(_mesh_patches(name, mesh, cfg, rng, log))
    return pairs


def _mesh_patches(name, mesh, cfg, rng, log):
    n_target = cfg.n_target
    # the patch must hold ~5x the Poisson target for elimination quality
    pool_n = max(cfg.pool_size, math.ceil(5 * n_target / cfg.patch_fraction))
    if pool_n > cfg.pool_size:
        log(
            f"{name}: pool size raised from {cfg.pool_size} to {pool_n} "
            f"(5 x {n_target} target points / patch fraction {cfg.patch_fraction:g})"
        )
    pool = area_weighted_sample(mesh, pool_n, rng)
    grower = PatchGrower(pool, k=cfg.graph_k)
    seeds = area_weighted_sample(mesh, cfg.patches_per_mesh, rng)
    out = []
    for i in range(cfg.patches_per_mesh):
        try:
            patch = grower.grow(seeds.positions[i], cfg.patch_fraction)
            dense = poisson_disk_sample(
                mesh, n_target, rng,
                pool=patch.samples,
                area=cfg.patch_fraction * mesh.total_area,
            )
        except ValueError as exc:
            log(f"warning: {name}: patch {i} skipped: {exc}")
            continue
        target, centroid, scale = normalize_unit_sphere(dense.positions)
        out.append(PatchPair(target, name, centroid, float(scale), len(out)))
    required = min(10, cfg.patches_per_mesh)
    if len(out) < required:
        raise ValueError(
            f"{name}: only {len(out)} of {cfg.patches_per_mesh} patches succeeded"
        )
    return out


def _safe_name(name):
    return re.sub(r"[^A-Za-z0-9._-]", "_", name) or "mesh"


def prepare_archive(meshes, cfg, out_dir, log=_default_log):
    """Full data-preparation pipeline: build the dataset and write the
    patch archive (per-mesh directories of paired XYZ files plus JSON
    manifests and the config). Deterministic given cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    pairs = build_dataset(meshes, cfg, rng, log)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="ascii") as fh:
        fh.write(cfg.to_text())
    by_mesh = {}
    for pair in pairs:
        by_mesh.setdefault(pair.mesh_id, []).append(pair)
    for mesh_id, group in by_mesh.items():
        mesh_dir = os.path.join(out_dir, _safe_name(mesh_id))
        os.makedirs(mesh_dir, exist_ok=True)
        manifest = {
            "mesh": mesh_id,
            "rng_seed": cfg.seed,
            "patch_fraction": cfg.patch_fraction,
            "n_input": cfg.n_input,
            "rate": cfg.rate,
            "patches": [],
        }
        for pair in group:
            stem = f"patch_{pair.index:04d}"
            write_xyz(os.path.join(mesh_dir, stem + "_gt.xyz"), pair.target)
            picks = rng.choice(len(pair.target), size=cfg.n_input, replace=False)
            write_xyz(os.path.join(mesh_dir, stem + "_input.xyz"), pair.target[picks])
            manifest["patches"].append(
                {
                    "index": pair.index,
                    "centroid": [float(c) for c in pair.centroid],
                    "scale": pair.scale,
                }
            )
        with open(os.path.join(mesh_dir, "meta.json"), "w", encoding="ascii") as fh:
            fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return pairs


def read_archive(data_dir):
    """Load (pairs, config) back from a prepare_archive directory."""
    cfg_path = os.path.join(data_dir, "config.txt")
    if not os.path.isfile(cfg_path):
        raise ValueError(f"{data_dir}: missing config.txt (not a patch archive?)")
    with open(cfg_path, "r", encoding="ascii") as fh:
        cfg = TrainConfig.from_text(fh.read())
    pairs = []
    for entry in sorted(os.listdir(data_dir)):
        mesh_dir = os.path.join(data_dir, entry)
        meta_path = os.path.join(mesh_dir, "meta.json")
        if not os.path.isfile(meta_path):
            continue
        with open(meta_path, "r", encoding="ascii") as fh:
            manifest = json.load(fh)
        for rec in manifest["patches"]:
            stem = f"patch_{rec['index']:04d}"
            target = read_xyz(os.path.join(mesh_dir, stem + "_gt.xyz"))
            pairs.append(
                PatchPair(
                    target,
                    manifest["mesh"],
                    np.array(rec["centroid"]),
                    float(rec["scale"]),
                    int(rec["index"]),
                )
            )
    if not pairs:
        raise ValueError(f"{data_dir}: archive holds no patches")
    return pairs, cfg


# ---------------------------------------------------------------------------
# augmentation


def random_rotation(rng):
    """Uniformly distributed rotation matrix (normalized quaternion)."""
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def augment_pair(inputs, target, rng, cfg):
    """One shared random rotation and uniform scale applied to both
    clouds, plus clipped Gaussian jitter on the inputs only."""
    p = as_points(inputs).copy()
    q = as_points(target).copy()
    if cfg.augment_rotate:
        rot = random_rotation(rng)
        p = p @ rot.T
        q = q @ rot.T
    if cfg.augment_scale:
        s = rng.uniform(cfg.scale_low, cfg.scale_high)
        p *= s
        q *= s
    if cfg.augment_jitter:
        bound = cfg.jitter_clip_sigmas * cfg.jitter_sigma
        p += np.clip(rng.normal(0.0, cfg.jitter_sigma, p.shape), -bound, bound)
    return p, q


# ---------------------------------------------------------------------------
# training loop


LOSS_LOG_HEADER = "step,lr_g,lr_d,loss_d,loss_g,adv_g,rec,uni,d_real,d_fake"


@dataclass
class TrainResult:
    generator: ad.Params
    discriminator: ad.Params
    history: list
    iterations: int


def _mean_node(nodes):
    total = nodes[0]
    for node in nodes[1:]:
        total = ad.add(total, node)
    return ad.scale(total, 1.0 / len(nodes))


def _dump_batch(out_dir, step, batch):
    path = os.path.join(out_dir, f"nan_dump_{step:06d}.npz")
    np.savez(
        path,
        inputs=np.stack([p for p, _ in batch]),
        targets=np.stack([q for _, q in batch]),
    )
    return path


def _require_finite(value, label, out_dir, step, batch):
    if not np.isfinite(value):
        path = _dump_batch(out_dir, step, batch)
        raise RuntimeError(
            f"non-finite {label} ({value}) at step {step}; offending batch saved to {path}"
        )


def _require_finite_params(params, label, out_dir, step, batch):
    # a saturated activation can keep the loss finite while its backward
    # pass poisons the weights, so divergence is caught at the update
    for name in params.names():
        if not np.isfinite(params[name].value).all():
            path = _dump_batch(out_dir, step, batch)
            raise RuntimeError(
                f"non-finite {label} ({name}) after update at step {step}; "
                f"offending batch saved to {path}"
            )


def save_checkpoint(ckpt_dir, gparams, dparams, cfg):
    os.makedirs(ckpt_dir, exist_ok=True)
    ad.save_params(gparams, os.path.join(ckpt_dir, "generator.params"))
    if dparams is not None:
        ad.save_params(dparams, os.path.join(ckpt_dir, "discriminator.params"))
    with open(os.path.join(ckpt_dir, "config.txt"), "w", encoding="ascii") as fh:
        fh.write(cfg.to_text())


def load_checkpoint(ckpt_dir):
    """Rebuild (generator params, discriminator params or None, config)
    from a checkpoint directory."""
    with open(os.path.join(ckpt_dir, "config.txt"), "r", encoding="ascii") as fh:
        cfg = TrainConfig.from_text(fh.read())
    gparams = init_generator(cfg.generator_config(), 0)
    gparams.set_values(ad.load_params(os.path.join(ckpt_dir, "generator.params")))
    dparams = None
    dpath = os.path.join(ckpt_dir, "discriminator.params")
    if os.path.isfile(dpath):
        dparams = init_discriminator(cfg.discriminator_config(), 0)
        dparams.set_values(ad.load_params(dpath))
    return gparams, dparams, cfg


def train(pairs, cfg, out_dir, log=_default_log):
    """Alternating optimization: one generator step (compound loss) then
    one discriminator step (on freshly generated vs. real targets) per
    iteration, each with its own decayed learning rate."""
    if not pairs:
        raise ValueError("empty dataset")
    for key in ("batch_size", "checkpoint_every", "lr_decay_every", "uniform_seed_count"):
        if getattr(cfg, key) < 1:
            raise ValueError(f"{key} must be at least 1, got {getattr(cfg, key)}")
    batch_size = min(cfg.batch_size, len(pairs))
    iterations = cfg.iterations or cfg.epochs * math.ceil(len(pairs) / batch_size)
    if iterations < 1:
        raise ValueError(
            f"training needs at least 1 iteration, got {iterations} "
            f"(iterations = {cfg.iterations}, epochs = {cfg.epochs})"
        )
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    gen_cfg = cfg.generator_config()
    disc_cfg = cfg.discriminator_config()
    gparams = init_generator(gen_cfg, rng)
    dparams = None if cfg.ablate_discriminator else init_discriminator(disc_cfg, rng)
    weights = cfg.loss_weights()
    uni_cfg = cfg.uniform_config()
    history = []
    log_path = os.path.join(out_dir, "losses.csv")
    with open(log_path, "w", encoding="ascii") as logfh:
        logfh.write(LOSS_LOG_HEADER + "\n")
        for step in range(1, iterations + 1):
            lr_g = cfg.learning_rate(cfg.lr_g, step)
            lr_d = cfg.learning_rate(cfg.lr_d, step)
            chosen = rng.choice(len(pairs), size=batch_size, replace=False)
            batch = []
            for j in chosen:
                pair = pairs[j]
                picks = rng.choice(len(pair.target), size=cfg.n_input, replace=False)
                batch.append(augment_pair(pair.target[picks], pair.target, rng, cfg))
            uni_seed = int(rng.integers(2**31 - len(cfg.p_values)))

            g_terms = []
            adv_vals = []
            rec_vals = []
            uni_vals = []
            for p, q in batch:
                out_node = generate_node(gparams, gen_cfg, p)[0]
                rec_node, _ = lo.reconstruction_loss(out_node, q)
                rec_vals.append(float(rec_node.value[0, 0]))
                uni_node = None
                if not cfg.ablate_uniform:
                    uni_node = lo.uniform_loss(out_node, uni_cfg, uni_seed)
                    uni_vals.append(float(uni_node.value[0, 0]))
                adv_node = None
                if dparams is not None:
                    adv_node = lo.generator_adversarial_loss(
                        discriminate_node(dparams, disc_cfg, out_node)
                    )
                    adv_vals.append(float(adv_node.value[0, 0]))
                g_terms.append(lo.compound_generator_loss(adv_node, rec_node, uni_node, weights))
            g_loss = _mean_node(g_terms)
            g_loss_val = float(g_loss.value[0, 0])
            _require_finite(g_loss_val, "generator loss", out_dir, step, batch)
            ad.backward(g_loss)
            ad.adam_step(gparams, lr_g, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
            _require_finite_params(gparams, "generator parameter", out_dir, step, batch)
            if dparams is not None:
                dparams.zero_grad()  # adversarial term leaks gradient into D; discard

            d_loss_val = None
            d_real = d_fake = float("nan")
            if dparams is not None:
                terms = []
                reals = []
                fakes = []
                for p, q in batch:
                    fake_pts = generate_node(gparams, gen_cfg, p)[0].value
                    conf_fake = discriminate_node(dparams, disc_cfg, fake_pts)
                    conf_real = discriminate_node(dparams, disc_cfg, q)
                    fakes.append(float(conf_fake.value[0, 0]))
                    reals.append(float(conf_real.value[0, 0]))
                    terms.append(lo.discriminator_adversarial_loss(conf_fake, conf_real))
                d_loss = _mean_node(terms)
                d_loss_val = float(d_loss.value[0, 0])
                _require_finite(d_loss_val, "discriminator loss", out_dir, step, batch)
                ad.backward(d_loss)
                ad.adam_step(dparams, lr_d, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
                _require_finite_params(
                    dparams, "discriminator parameter", out_dir, step, batch
                )
                d_real = float(np.mean(reals))
                d_fake = float(np.mean(fakes))

            row = {
                "step": step,
                "lr_g": lr_g,
                "lr_d": lr_d,
                "loss_d": d_loss_val,
                "loss_g": g_loss_val,
                "adv_g": float(np.mean(adv_vals)) if adv_vals else None,
                "rec": float(np.mean(rec_vals)),
                "uni": float(np.mean(uni_vals)) if uni_vals else None,
                "d_real": d_real if dparams is not None else None,
                "d_fake": d_fake if dparams is not None else None,
            }
            history.append(row)
            logfh.write(
                ",".join(
                    "" if row[key] is None
                    else (str(row[key]) if key == "step" else repr(float(row[key])))
                    for key in LOSS_LOG_HEADER.split(",")
                )
                + "\n"
            )
            if step % cfg.checkpoint_every == 0 or step == iterations:
                save_checkpoint(
                    os.path.join(out_dir, f"ckpt_{step:06d}"), gparams, dparams, cfg
                )
    return TrainResult(gparams, dparams, history, iterations)


# ---------------------------------------------------------------------------
# inference


def upsample_cloud(points, params, gen_cfg, overlap_factor=3, generator_fn=None):
    """Patch-based upsampling of a whole cloud to rate * len(points).

    Farthest-point seeds cover the cloud with overlap_factor redundancy
    (at least 1); each seed's N nearest input points form a patch that
    is normalized, upsampled, and mapped back; the union is trimmed to
    exactly rate * len(points) by farthest point sampling. `generator_fn`
    maps (params, gen_cfg, patch) -> array and defaults to the real
    network.
    """
    pts = as_points(points)
    n = len(pts)
    if n == 0:
        raise ValueError("empty input")
    if not overlap_factor >= 1:
        raise ValueError(f"overlap_factor must be at least 1, got {overlap_factor}")
    if generator_fn is None:
        generator_fn = generate
    n_in = gen_cfg.n_input
    target_count = gen_cfg.rate * n
    if n < n_in:
        # degenerate path: pad to one full patch by cycling the input's
        # own points, then trim
        normed, centroid, scale = normalize_unit_sphere(pts[np.arange(n_in) % n])
        up = denormalize(generator_fn(params, gen_cfg, normed), centroid, scale)
        keep = farthest_point_sampling(up, target_count, 0)
        return up[keep]
    seed_count = max(1, min(n, math.ceil(overlap_factor * n / n_in)))
    seeds = farthest_point_sampling(pts, seed_count, 0)
    index = SpatialIndex(pts)
    pieces = []
    for s in seeds:
        patch = pts[index.knn(pts[s], n_in)[0]]
        normed, centroid, scale = normalize_unit_sphere(patch)
        up = generator_fn(params, gen_cfg, normed)
        pieces.append(denormalize(up, centroid, scale))
    union = np.vstack(pieces)
    keep = farthest_point_sampling(union, target_count, 0)
    return union[keep]
