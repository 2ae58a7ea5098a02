"""Dataset assembly, augmentation, the alternating adversarial training
loop with separate generator/discriminator learning rates, and
patch-based whole-cloud upsampling.

Every random decision flows from one seeded generator, so a fixed
TrainConfig reproduces byte-identical archives, logs, and checkpoints.
"""

import contextlib
import ctypes
import json
import math
import multiprocessing
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from . import losses as lo
from . import metrics
from .geometry import (
    SpatialIndex,
    _cores,
    as_points,
    denormalize,
    farthest_point_sampling,
    normalize_unit_sphere,
    read_text,
    read_xyz,
    write_xyz,
)
from .mesh import GRAPH_K, PatchGrower, area_weighted_sample, poisson_disk_sample
from .networks import (
    FPS_SEED,
    GRID_EXTENT,
    discriminate_node,
    generate,
    generate_node,
    init_discriminator,
    init_generator,
)

__all__ = [
    "TrainConfig",
    "build_dataset",
    "prepare_archive",
    "read_archive",
    "random_rotation",
    "augment_pair",
    "learning_rate",
    "train",
    "upsample_cloud",
    "save_checkpoint",
    "load_checkpoint",
    "LOSS_LOG_HEADER",
]


# the paper's schedule and augmentation: EPOCHS passes over the dataset
# unless a run sets its iterations; the learning rates start at LR_G and
# LR_D and fall by LR_DECAY every LR_DECAY_EVERY iterations, to no less than
# LR_FLOOR; both clouds of a pair are rotated at random and scaled by one
# uniform factor in [SCALE_LOW, SCALE_HIGH], and the inputs jittered by
# Gaussian noise of JITTER_SIGMA, clipped at JITTER_CLIP_SIGMAS sigmas
EPOCHS = 100
LR_G, LR_D = 1e-3, 1e-4
LR_DECAY, LR_DECAY_EVERY, LR_FLOOR = 0.7, 50000, 1e-6
SCALE_LOW, SCALE_HIGH = 0.8, 1.2
JITTER_SIGMA, JITTER_CLIP_SIGMAS = 0.01, 3.0

# keys of removed knobs, each with the value the program runs at: configs
# written while they existed keep loading, and any other value, which would
# be another model or run, is rejected. emd_epsilon loads at any value
_RETIRED_KEYS = {
    "emd_epsilon": None,
    "graph_k": GRAPH_K,
    "grid_extent": GRID_EXTENT, "generator_fps_seed": FPS_SEED,
    "w_gan": lo.W_GAN, "w_reconstruction": lo.W_RECONSTRUCTION, "w_uniform": lo.W_UNIFORM,
    "p_values": metrics.P_VALUES, "epochs": EPOCHS, "lr_g": LR_G, "lr_d": LR_D,
    "lr_decay": LR_DECAY, "lr_decay_every": LR_DECAY_EVERY, "lr_floor": LR_FLOOR,
    "adam_beta1": ad.ADAM_BETA1, "adam_beta2": ad.ADAM_BETA2, "adam_eps": ad.ADAM_EPS,
    "scale_low": SCALE_LOW, "scale_high": SCALE_HIGH,
    "jitter_sigma": JITTER_SIGMA, "jitter_clip_sigmas": JITTER_CLIP_SIGMAS,
    **{f"augment_{name}": True for name in ("rotate", "scale", "jitter")},
}


def _parse_value(where, text, like):
    """Config text as a value of the type of `like`."""
    if isinstance(like, bool) and text not in ("true", "false"):
        raise ValueError(f"{where} must be true or false")
    try:
        if isinstance(like, tuple):
            return tuple(float(t) for t in text.split(",") if t)
        return text == "true" if isinstance(like, bool) else type(like)(text)
    except ValueError:
        raise ValueError(f"{where} = {text} is not of type {type(like).__name__}") from None


@dataclass(frozen=True)
class TrainConfig:
    """Every knob of the pipeline that a run may set, as ASCII key-value
    text; each fixed value of the paper is a constant where it is used.
    Frozen; made, loaded or replaced, it refuses values no run can use."""

    # patch extraction
    n_input: int = 256  # points per input patch
    rate: int = 4  # upsampling ratio
    patches_per_mesh: int = 200
    patch_fraction: float = 0.05
    pool_size: int = 50000
    # network widths
    feature_channels: int = 480  # dense extractor output width (3 blocks)
    working_channels: int = 128  # width inside the expansion unit
    group_k: int = 16  # neighborhood size of the input embedding
    regress_hidden: int = 64  # hidden width of the coordinate regressor
    disc_point_channels: int = 64  # per-point width before global pooling
    disc_global_channels: int = 256  # width after the global-context stage
    disc_head_hidden: int = 64  # hidden width of the confidence head
    # uniformity protocol
    uniform_seed_count: int = 50
    # not a field: the matching is exact, so its tolerance is 0;
    # perfbench/oracles.py reads it
    emd_epsilon: ClassVar[float] = 0.0
    # optimization schedule
    batch_size: int = 28
    iterations: int = 0  # 0 = EPOCHS * ceil(dataset / batch)
    checkpoint_every: int = 5000
    # ablation switches
    ablate_discriminator: bool = False
    ablate_uniform: bool = False
    ablate_attention: bool = False
    ablate_up_down_up: bool = False
    ablate_fps: bool = False
    # reproducibility
    seed: int = 0

    def __post_init__(self):
        for key in ("n_input", "rate", "patches_per_mesh", "pool_size", "batch_size",
                    "checkpoint_every", "uniform_seed_count", "working_channels",
                    "regress_hidden", "disc_point_channels", "disc_global_channels",
                    "disc_head_hidden"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        if not 0.0 < self.patch_fraction < 0.5:  # what PatchGrower.grow accepts; nan fails
            raise ValueError(f"patch_fraction must be in (0, 0.5), got {self.patch_fraction}")
        # build_dataset's pool, whose largest array, area_weighted_sample's
        # (pool, 3, 3) float64 triangle corners, must fit numpy's maximum
        # size of 2**63 - 1 bytes; an infinite pool fails this too
        if not 5 * self.n_target / self.patch_fraction * 72 < 2**63:
            raise ValueError(f"patch_fraction must leave a pool of 5 x {self.n_target} target "
                             f"points / patch_fraction whose samples fit numpy's maximum "
                             f"array size, got {self.patch_fraction}")
        if self.group_k < 1:  # train checks the upper bound against the archive's n_input
            raise ValueError(f"group_k must be in 1..n_input = {self.n_input}, "
                             f"got {self.group_k}")
        if self.feature_channels < 1 or self.feature_channels % 3:
            raise ValueError("feature_channels must be a positive multiple of 3, "
                             f"got {self.feature_channels}")
        if self.iterations < 0:  # 0 = EPOCHS passes over the dataset
            raise ValueError(f"training needs at least 1 iteration, got {self.iterations}")
        if self.expansion_rate < 2:  # _up_feature needs two copies of each point or more
            raise ValueError(f"rate must be at least 2 under ablate_fps, got {self.rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")

    @property
    def n_target(self):
        return self.rate * self.n_input

    @property
    def expansion_rate(self):
        """Copies the generator makes of each input point: rate + 2, of
        which farthest point sampling keeps rate, or rate under ablate_fps."""
        return self.rate if self.ablate_fps else self.rate + 2

    def generator_config(self):
        """This config itself, which the networks read. Kept only because
        perfbench/run.py and perfbench/oracles.py call it, as
        metrics.emd_approx is kept."""
        return self

    def to_text(self):
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            s = ("true" if v else "false") if isinstance(v, bool) else repr(v)
            lines.append(f"{f.name} = {s}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, source="config"):
        """Parse to_text's format; `source` names the text in errors."""
        known = {f.name: f.default for f in fields(cls)}
        values = {}
        first_line = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{source} line {lineno}: expected 'key = value', got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            where = f"{source} line {lineno}: {key}"
            if key in first_line:
                raise ValueError(f"{where} repeats the key of line {first_line[key]}")
            if key in _RETIRED_KEYS:
                fixed = _RETIRED_KEYS[key]
                if fixed is not None and _parse_value(where, val, fixed) != fixed:
                    raise ValueError(f"{where} is fixed at {fixed!r}, got {val}")
            elif key in known:
                values[key] = _parse_value(where, val, known[key])
            else:
                raise ValueError(f"{source} line {lineno}: unknown key {key!r}")
            first_line[key] = lineno
        return cls(**values)

    @classmethod
    def load(cls, path):
        """from_text of a config file, with errors that name the file."""
        return cls.from_text(read_text(path, "config"), path)


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


def build_dataset(name, mesh, cfg, rng=None, log=_default_log):
    """Extract patches_per_mesh geodesic patches from the mesh and
    Poisson-disk sample a dense target from each.

    Individual patch failures are logged and skipped; fewer than
    min(10, patches_per_mesh) patches raises."""
    rng = np.random.default_rng(cfg.seed if rng is None else rng)
    n_target = cfg.n_target
    # the patch must hold ~5x the Poisson target for elimination quality
    pool_n = max(cfg.pool_size, math.ceil(5 * n_target / cfg.patch_fraction))
    if pool_n > cfg.pool_size:
        log(
            f"{name}: pool size raised from {cfg.pool_size} to {pool_n} "
            f"(5 x {n_target} target points / patch fraction {cfg.patch_fraction:g})"
        )
    pool = area_weighted_sample(mesh, pool_n, rng)
    grower = PatchGrower(pool)
    seeds = area_weighted_sample(mesh, cfg.patches_per_mesh, rng)
    pairs = []
    for i in range(cfg.patches_per_mesh):
        try:
            patch = grower.grow(seeds.positions[i], cfg.patch_fraction)
            dense = poisson_disk_sample(
                mesh, n_target, rng,
                pool=pool.subset(patch),
                area=cfg.patch_fraction * mesh.total_area,
            )
        except ValueError as exc:
            log(f"warning: {name}: patch {i} skipped: {exc}")
            continue
        target, centroid, scale = normalize_unit_sphere(dense.positions)
        pairs.append(PatchPair(target, name, centroid, float(scale), len(pairs)))
    required = min(10, cfg.patches_per_mesh)
    if len(pairs) < required:
        raise ValueError(
            f"{name}: only {len(pairs)} of {cfg.patches_per_mesh} patches succeeded"
        )
    return pairs


def _safe_name(name):
    return re.sub(r"[^A-Za-z0-9._-]", "_", name) or "mesh"


def prepare_archive(name, mesh, cfg, out_dir, log=_default_log):
    """Data preparation of one mesh: build its dataset and write it into
    the patch archive out_dir (a directory of paired XYZ files plus a
    JSON manifest for the mesh, and the archive's config). Deterministic
    given cfg.seed. A mesh whose directory out_dir already holds, such as
    another mesh of the same name, is refused before anything is built."""
    mesh_dir = os.path.join(out_dir, _safe_name(name))
    if os.path.exists(mesh_dir):
        raise ValueError(f"{mesh_dir}: already exists; each mesh of an archive "
                         "needs a name of its own")
    rng = np.random.default_rng(cfg.seed)
    pairs = build_dataset(name, mesh, cfg, rng, log)
    os.makedirs(mesh_dir)
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="ascii") as fh:
        fh.write(cfg.to_text())
    manifest = {
        "mesh": name,
        "rng_seed": cfg.seed,
        "patch_fraction": cfg.patch_fraction,
        "n_input": cfg.n_input,
        "rate": cfg.rate,
        "patches": [],
    }
    for pair in pairs:
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


def _read_manifest(meta_path):
    """(mesh id, {index: (centroid, scale)}) of one meta.json, with
    errors that name the file."""
    try:
        with open(meta_path, "r", encoding="ascii") as fh:
            manifest = json.load(fh)
        records = {}
        for rec in manifest["patches"]:
            index, centroid, scale = rec["index"], rec["centroid"], rec["scale"]
            if not (type(index) is int and index >= 0 and index not in records
                    and isinstance(centroid, list) and len(centroid) == 3
                    and all(type(v) in (int, float) and abs(v) < math.inf  # not bool
                            for v in [*centroid, scale]) and scale > 0):
                raise ValueError(f"patch record {rec}: needs an unused integer index >= 0, "
                                 "a centroid of 3 finite numbers and a finite scale > 0")
            records[index] = (np.array(centroid, dtype=float), float(scale))
        return manifest["mesh"], records
    except KeyError as exc:
        raise ValueError(f"{meta_path}: manifest lacks key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{meta_path}: malformed manifest: {exc}") from None


def read_archive(data_dir):
    """Load (pairs, config) back from a prepare_archive directory."""
    cfg_path = os.path.join(data_dir, "config.txt")
    if not os.path.isfile(cfg_path):
        raise ValueError(f"{data_dir}: missing config.txt (not a patch archive?)")
    cfg = TrainConfig.load(cfg_path)
    pairs = []
    for entry in sorted(os.listdir(data_dir)):
        mesh_dir = os.path.join(data_dir, entry)
        meta_path = os.path.join(mesh_dir, "meta.json")
        if not os.path.isfile(meta_path):
            continue
        mesh_id, records = _read_manifest(meta_path)
        for index, (centroid, scale) in records.items():
            target = read_xyz(os.path.join(mesh_dir, f"patch_{index:04d}_gt.xyz"))
            pairs.append(PatchPair(target, mesh_id, centroid, scale, index))
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


def augment_pair(inputs, target, rng):
    """One shared random rotation and uniform scale applied to both
    clouds, plus clipped Gaussian jitter on the inputs only."""
    rot = random_rotation(rng)
    p = as_points(inputs) @ rot.T
    q = as_points(target) @ rot.T
    s = rng.uniform(SCALE_LOW, SCALE_HIGH)
    p *= s
    q *= s
    bound = JITTER_CLIP_SIGMAS * JITTER_SIGMA
    p += np.clip(rng.normal(0.0, JITTER_SIGMA, p.shape), -bound, bound)
    return p, q


def learning_rate(base, step):
    """Step-decayed rate: multiply by LR_DECAY once per LR_DECAY_EVERY
    iterations (1-based step), floored at LR_FLOOR."""
    return max(LR_FLOOR, base * LR_DECAY ** ((step - 1) // LR_DECAY_EVERY))


# ---------------------------------------------------------------------------
# training loop


LOSS_LOG_HEADER = "step,lr_g,lr_d,loss_d,loss_g,adv_g,rec,uni,d_real,d_fake"


@dataclass
class TrainResult:
    generator: ad.Params
    discriminator: ad.Params
    history: list


def _generator_patch(gparams, dparams, cfg, p, q, uni_seed, weight):
    """(term, adv, rec, uni) values of one patch's compound loss, whose
    gradient, scaled by `weight`, backward adds into gparams. D's values
    enter as constants, so nothing is added into dparams."""
    out_node = generate_node(gparams, cfg, p)[0]
    rec_node, _ = lo.reconstruction_loss(out_node, q)
    uni_node = None
    if not cfg.ablate_uniform:
        uni_node = lo.uniform_loss(out_node, metrics.P_VALUES, cfg.uniform_seed_count, uni_seed)
    adv_node = None
    if dparams is not None:
        frozen = {name: ad.constant(node.value) for name, node in dparams.items()}
        adv_node = lo.generator_adversarial_loss(discriminate_node(frozen, cfg, out_node))
    term = lo.compound_generator_loss(adv_node, rec_node, uni_node)
    ad.backward(ad.scale(term, weight))
    return tuple(
        None if node is None else float(node.value[0, 0])
        for node in (term, adv_node, rec_node, uni_node)
    )


def _discriminator_patch(gparams, dparams, cfg, p, q, weight):
    """(term, d_fake, d_real) values of one patch's discriminator loss,
    whose gradient, scaled by `weight`, backward adds into dparams."""
    conf_fake = discriminate_node(dparams, cfg, generate(gparams, cfg, p))
    conf_real = discriminate_node(dparams, cfg, q)
    term = lo.discriminator_adversarial_loss(conf_fake, conf_real)
    ad.backward(ad.scale(term, weight))
    return tuple(float(node.value[0, 0]) for node in (term, conf_fake, conf_real))


def _update(params, lr, terms, label, out_dir, step, batch):
    """The batch loss, the patches' terms summed in patch order and scaled
    by 1 / B, whose gradient their backward calls added up; then one Adam
    step of params at rate lr. A non-finite loss stops before the step and
    a non-finite parameter after it, each saving the batch to out_dir."""
    loss = terms[0]
    for term in terms[1:]:
        loss += term
    loss = (1.0 / len(terms)) * loss
    if not np.isfinite(loss):
        problem = f"{label} loss ({loss})"
    else:
        ad.adam_step(params, lr)
        # a saturated activation can keep the loss finite while its backward
        # pass poisons the weights, so divergence is caught at the update
        bad = [name for name, node in params.items() if not np.isfinite(node.value).all()]
        if not bad:
            return loss
        problem = f"{label} parameter ({bad[0]}) after update"
    path = os.path.join(out_dir, f"nan_dump_{step:06d}.npz")
    np.savez(path, inputs=np.stack([p for p, _ in batch]),
             targets=np.stack([q for _, q in batch]))
    raise RuntimeError(f"non-finite {problem} at step {step}; offending batch saved to {path}")


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
    cfg = TrainConfig.load(os.path.join(ckpt_dir, "config.txt"))
    gparams = init_generator(cfg, 0)
    _set_values(gparams, os.path.join(ckpt_dir, "generator.params"))
    dparams = None
    dpath = os.path.join(ckpt_dir, "discriminator.params")
    if os.path.isfile(dpath):
        dparams = init_discriminator(cfg, 0)
        _set_values(dparams, dpath)
    return gparams, dparams, cfg


def _set_values(params, path):
    """Params.set_values from a params file, with errors that name it."""
    arrays = ad.load_params(path)
    try:
        params.set_values(arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def train(pairs, cfg, out_dir):
    """Alternating optimization: one generator step (compound loss) then
    one discriminator step (on freshly generated vs. real targets) per
    iteration, each with its own decayed learning rate."""
    if not pairs:
        raise ValueError("empty dataset")
    if cfg.group_k > cfg.n_input:
        raise ValueError(f"group_k must be in 1..n_input = {cfg.n_input}, got {cfg.group_k}")
    batch_size = min(cfg.batch_size, len(pairs))
    iterations = cfg.iterations or EPOCHS * math.ceil(len(pairs) / batch_size)
    for pair in pairs:
        if len(pair.target) != cfg.n_target:
            raise ValueError(
                f"patch {pair.mesh_id}/{pair.index} holds {len(pair.target)} target points, "
                f"but rate {cfg.rate} x n_input {cfg.n_input} needs {cfg.n_target}"
            )
    rng = np.random.default_rng(cfg.seed)
    os.makedirs(out_dir, exist_ok=True)
    gparams = init_generator(cfg, rng)
    dparams = None if cfg.ablate_discriminator else init_discriminator(cfg, rng)

    # Each patch's graph goes through backward as soon as its term exists,
    # scaled by 1 / B, and dies when its function returns, so memory holds
    # one patch's graph whatever the batch size. Gradients add up in the
    # Params nodes across the calls.
    weight = 1.0 / batch_size
    history = []
    log_path = os.path.join(out_dir, "losses.csv")
    with open(log_path, "w", encoding="ascii") as logfh:
        logfh.write(LOSS_LOG_HEADER + "\n")
        for step in range(1, iterations + 1):
            lr_g = learning_rate(LR_G, step)
            lr_d = learning_rate(LR_D, step)
            chosen = rng.choice(len(pairs), size=batch_size, replace=False)
            batch = []
            for j in chosen:
                pair = pairs[j]
                picks = rng.choice(len(pair.target), size=cfg.n_input, replace=False)
                batch.append(augment_pair(pair.target[picks], pair.target, rng))
            uni_seed = int(rng.integers(2**31 - len(metrics.P_VALUES)))

            g_terms, adv_vals, rec_vals, uni_vals = zip(*[
                _generator_patch(gparams, dparams, cfg, p, q, uni_seed, weight) for p, q in batch
            ])
            g_loss_val = _update(gparams, lr_g, g_terms, "generator", out_dir, step, batch)

            d_loss_val = d_real = d_fake = None
            if dparams is not None:
                d_terms, fakes, reals = zip(*[
                    _discriminator_patch(gparams, dparams, cfg, p, q, weight) for p, q in batch
                ])
                d_loss_val = _update(dparams, lr_d, d_terms, "discriminator", out_dir, step,
                                     batch)
                d_real = float(np.mean(reals))
                d_fake = float(np.mean(fakes))

            row = {
                "step": step,
                "lr_g": lr_g,
                "lr_d": lr_d,
                "loss_d": d_loss_val,
                "loss_g": g_loss_val,
                "adv_g": None if dparams is None else float(np.mean(adv_vals)),
                "rec": float(np.mean(rec_vals)),
                "uni": None if cfg.ablate_uniform else float(np.mean(uni_vals)),
                "d_real": d_real,
                "d_fake": d_fake,
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
    return TrainResult(gparams, dparams, history)


# ---------------------------------------------------------------------------
# inference


def _openblas_threads():
    """(get, set) functions of the thread count of numpy's bundled
    OpenBLAS; a RuntimeError where numpy has none."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        raise RuntimeError("cannot run numpy's BLAS at one thread: numpy's bundled OpenBLAS "
                           "(scipy_openblas_set_num_threads64_) was not found") from None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def _one_blas_thread():
    """numpy's BLAS at one thread inside the with block, and at its old
    count after it. A matrix product's bits depend on the thread count."""
    get, put = _openblas_threads()
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


# (params, cfg) in a generator worker process, set by its initializer;
# under fork the worker inherits them, so they are never pickled
_worker_model = None


def _hold_model(params, cfg):
    global _worker_model
    _worker_model = params, cfg


def _generate_block(patches):
    return generate(*_worker_model, patches)


def _generate_on_cores(params, cfg, stack):
    """generate of a (P, N, 3) stack, split into W = min(cores, P)
    contiguous row blocks, each run in a `fork` worker process of a pool
    that lives for this call only, the results joined in block order.
    generate's stacked trim is exact per row, so the array is that of one
    call on the whole stack. W = 1, a platform without `fork`, or a
    daemonic process, which may start no child (a multiprocessing.Pool
    worker, say), runs that call in this process. Workers inherit the
    BLAS thread count."""
    workers = min(_cores(), len(stack))
    if (workers == 1 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return generate(params, cfg, stack)
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_hold_model, initargs=(params, cfg)) as pool:
        return np.concatenate(list(pool.map(_generate_block, np.array_split(stack, workers))))


def upsample_cloud(points, params, cfg, overlap_factor=3, generator_fn=None):
    """Patch-based upsampling of a whole cloud to rate * len(points).

    Farthest-point seeds cover the cloud with overlap_factor redundancy
    (at least 1); each seed's N nearest input points form a patch. A
    cloud smaller than N is one patch, padded by cycling its own points.
    Every patch is normalized, the generator upsamples the stack of them,
    each output is mapped back, and the union is trimmed to exactly
    rate * len(points) by farthest point sampling.
    `generator_fn` maps (params, cfg, (P, N, 3) stack) -> (P, rate *
    N, 3) stack and is called once, in this process. By default the
    real network runs on up to one worker process per core, or in this
    process when it is daemonic and may start none. The whole
    call runs numpy's BLAS at one thread, so the array depends on
    neither the core count nor the BLAS thread count; a numpy without
    its bundled OpenBLAS is a RuntimeError.
    """
    pts = as_points(points)
    n = len(pts)
    if n == 0:
        raise ValueError("empty input")
    if not overlap_factor >= 1:
        raise ValueError(f"overlap_factor must be at least 1, got {overlap_factor}")
    if generator_fn is None:
        generator_fn = _generate_on_cores
    n_in = cfg.n_input
    with _one_blas_thread():
        if n < n_in:
            patches = pts[np.arange(n_in) % n][None]
        else:
            seed_count = max(1, min(n, math.ceil(overlap_factor * n / n_in)))
            seeds = farthest_point_sampling(pts, seed_count, 0)
            patches = pts[SpatialIndex(pts).knn(pts[seeds], n_in)[0]]
        frames = [normalize_unit_sphere(patch) for patch in patches]
        up = generator_fn(params, cfg, np.stack([normed for normed, _, _ in frames]))
        union = np.vstack([denormalize(u, centroid, scale)
                           for u, (_, centroid, scale) in zip(up, frames)])
        keep = farthest_point_sampling(union, cfg.rate * n, 0)
    return union[keep]
