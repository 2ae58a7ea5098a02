"""Batch command-line surface for the whole pipeline.

Commands: prepare (meshes -> patch archive), train (archive ->
checkpoints + loss log), upsample (xyz -> denser xyz), eval (metric
report CSV).

Every command is non-interactive and exits 0 on success, 1 on a runtime
error (one line on stderr), 2 on usage errors. All randomness flows from
--seed (default 0).
"""

import argparse
import dataclasses
import os
import sys

from . import metrics
from .geometry import read_xyz, write_xyz
from .mesh import load_mesh
from .training import (
    TrainConfig,
    load_checkpoint,
    prepare_archive,
    read_archive,
    train,
    upsample_cloud,
)

__all__ = ["main", "build_parser"]

MESH_EXTENSIONS = (".off", ".ply")

# component names accepted by --ablate, mapped to TrainConfig switches
ABLATION_CHOICES = {
    "discriminator": "ablate_discriminator",
    "uniform": "ablate_uniform",
    "attention": "ablate_attention",
    "up-down-up": "ablate_up_down_up",
    "fps": "ablate_fps",
}
# the four architectural additions; removing them leaves a plain GAN
BASELINE_ABLATIONS = ("uniform", "attention", "up-down-up", "fps")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pcup",
        description="Patch-based point cloud upsampling: data preparation, "
        "adversarial training, inference, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("prepare", help="extract training patches from a directory of meshes")
    p.add_argument("--meshes", required=True, help="directory of ASCII OFF/PLY meshes")
    p.add_argument("--out", required=True, help="output archive directory")
    p.add_argument(
        "--patches-per-mesh", type=_int_at_least(1), default=TrainConfig.patches_per_mesh,
        help="patch seeds per mesh (>= 1)",
    )
    p.add_argument(
        "--N", type=_int_at_least(1), default=TrainConfig.n_input, dest="n_input",
        help="input points per patch (>= 1)",
    )
    p.add_argument(
        "--r", type=_int_at_least(1), default=TrainConfig.rate, dest="rate",
        help="upsampling rate (>= 1)",
    )
    p.add_argument(
        "--fraction", type=_open_fraction, default=TrainConfig.patch_fraction,
        help="surface area fraction per patch, in (0, 0.5)",
    )
    p.add_argument(
        "--pool-size",
        type=_int_at_least(1),
        default=TrainConfig.pool_size,
        help="dense sample pool per mesh (>= 1); raised to at least "
        "ceil(5 * r * N / fraction) so that each patch holds 5x its target points",
    )
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="rng seed (>= 0)")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("train", help="train on a patch archive")
    p.add_argument("--data", required=True, help="patch archive from `pcup prepare`")
    p.add_argument("--out", required=True, help="run directory for checkpoints and logs")
    p.add_argument("--config", default=None, help="config text file overriding the archive's")
    p.add_argument(
        "--iterations", type=_int_at_least(1), default=None,
        help="override iteration count (>= 1)",
    )
    p.add_argument(
        "--batch", type=_int_at_least(1), default=None, help="override batch size (>= 1)"
    )
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="rng seed (>= 0)")
    p.add_argument(
        "--ablate",
        action="append",
        default=[],
        choices=sorted(ABLATION_CHOICES),
        help="disable one component (repeatable)",
    )
    p.add_argument(
        "--baseline",
        action="store_true",
        help="shorthand: disable uniform, attention, up-down-up, and fps "
        "(plain adversarial upsampler)",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("upsample", help="upsample an xyz cloud with a trained checkpoint")
    p.add_argument("--in", required=True, dest="input", help="input .xyz cloud")
    p.add_argument("--ckpt", required=True, help="checkpoint directory")
    p.add_argument("--out", required=True, help="output .xyz path")
    p.add_argument(
        "--overlap", type=_int_at_least(1), default=3, help="patch coverage redundancy (>= 1)"
    )
    p.set_defaults(func=_cmd_upsample)

    p = sub.add_parser("eval", help="metric report for a predicted cloud")
    p.add_argument("--pred", required=True, help="predicted .xyz cloud")
    p.add_argument("--gt", required=True, help="ground-truth .xyz cloud")
    p.add_argument("--mesh", required=True, help="source mesh (OFF/PLY) for surface metrics")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--name", default=None, help="row label (default: pred file stem)")
    p.add_argument("--subsets", type=_int_at_least(1), default=1000, help="uniformity crop count")
    p.add_argument(
        "--pool-size", type=_int_at_least(2), default=20000,
        help="surface pool for geodesic crops (>= 2)",
    )
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="rng seed (>= 0)")
    p.set_defaults(func=_cmd_eval)

    return parser


def _int_at_least(minimum):
    """argparse type: an int no smaller than `minimum`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _open_fraction(text):
    """argparse type: a float in the open interval (0, 0.5), the patch
    area fractions that PatchGrower.grow accepts."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < 0.5:
        raise argparse.ArgumentTypeError(f"must be in (0, 0.5), got {text}")
    return value


def _cmd_prepare(args):
    # read_archive loads every mesh directory of an archive, so preparing
    # into an old one would mix its patches with the new ones
    if os.path.isdir(args.out) and any(
        entry == "config.txt" or os.path.isfile(os.path.join(args.out, entry, "meta.json"))
        for entry in os.listdir(args.out)
    ):
        raise ValueError(f"{args.out}: already holds a patch archive; "
                         "prepare into a new or empty directory")
    if not os.path.isdir(args.meshes):
        raise ValueError(f"{args.meshes}: not a directory")
    names = sorted(
        f for f in os.listdir(args.meshes)
        if os.path.splitext(f)[1].lower() in MESH_EXTENSIONS
    )
    if not names:
        raise ValueError(f"{args.meshes}: no .off or .ply meshes found")
    cfg = TrainConfig(
        n_input=args.n_input,
        rate=args.rate,
        patches_per_mesh=args.patches_per_mesh,
        patch_fraction=args.fraction,
        pool_size=args.pool_size,
        seed=args.seed,
    )
    failures = 0
    prepared = 0
    for fname in names:
        stem = os.path.splitext(fname)[0]
        try:
            mesh = load_mesh(os.path.join(args.meshes, fname))
            pairs = prepare_archive(stem, mesh, cfg, args.out)
            prepared += 1
            print(f"{stem}: {len(pairs)} patches")
        except (ValueError, OSError) as exc:
            failures += 1
            print(f"error: {fname}: {exc}", file=sys.stderr)
    if prepared == 0:
        raise ValueError("no mesh produced a usable patch set")
    return 1 if failures else 0


def _cmd_train(args):
    # an old run's checkpoints would sit beside the new run's, and the
    # newest of them could be the old run's
    if os.path.isdir(args.out) and any(
        entry == "losses.csv" or entry.startswith("ckpt_") for entry in os.listdir(args.out)
    ):
        raise ValueError(f"{args.out}: already holds a training run; "
                         "train into a new or empty directory")
    if not os.path.isdir(args.data):
        print(f"error: {args.data}: no such data directory", file=sys.stderr)
        return 2
    pairs, cfg = read_archive(args.data)
    if args.config is not None:
        cfg = TrainConfig.load(args.config)
    sizes = {"iterations": args.iterations, "batch_size": args.batch}
    chosen = args.ablate + list(BASELINE_ABLATIONS if args.baseline else ())
    cfg = dataclasses.replace(
        cfg, seed=args.seed, **{key: value for key, value in sizes.items() if value is not None},
        **{ABLATION_CHOICES[component]: True for component in chosen},
    )
    result = train(pairs, cfg, args.out)
    last = result.history[-1]
    print(
        f"trained {len(result.history)} iterations on {len(pairs)} patches; "
        f"final generator loss {last['loss_g']:.6g}"
    )
    return 0


def _read_cloud(path, flag):
    """read_xyz, refusing a file without points, named with its flag."""
    points = read_xyz(path)
    if len(points) == 0:
        raise ValueError(f"{path}: the {flag} cloud holds no points")
    return points


def _cmd_upsample(args):
    points = _read_cloud(args.input, "--in")
    gparams, _, cfg = load_checkpoint(args.ckpt)
    dense = upsample_cloud(points, gparams, cfg, args.overlap)
    write_xyz(args.out, dense)
    print(f"{len(points)} -> {len(dense)} points written to {args.out}")
    return 0


def _cmd_eval(args):
    name = args.name or os.path.splitext(os.path.basename(args.pred))[0]
    # the label is written raw as the first field of a CSV row
    if not name.isascii() or set(name) & set(',"\r\n'):
        raise ValueError(f"report label {name!r} holds a comma, a double quote, a line break "
                         "or a non-ASCII character; give another with --name")
    pred = _read_cloud(args.pred, "--pred")
    gt = _read_cloud(args.gt, "--gt")
    mesh = load_mesh(args.mesh)
    cd = metrics.chamfer_distance(pred, gt)
    hd = metrics.hausdorff_distance(pred, gt)
    p2f_mean, p2f_max = metrics.point_to_surface_stats(pred, mesh)
    uniformity = metrics.uniformity_report_mesh(
        pred, mesh,
        seed_count=args.subsets,
        rng=args.seed,
        pool_size=args.pool_size,
    )
    metrics.write_report_csv(args.out, [(name, cd, hd, p2f_mean, uniformity)])
    uni = "  ".join(f"{v * 1e3:9.4f}" for v in uniformity)
    print("all values x 1e-3; uniformity at p = 0.4/0.6/0.8/1.0/1.2 %")
    print(f"{'name':<16} {'CD':>9} {'HD':>9} {'P2F':>9}  uniformity")
    print(
        f"{name:<16} {cd * 1e3:9.4f} {hd * 1e3:9.4f} {p2f_mean * 1e3:9.4f}  {uni}"
    )
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args) or 0)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        # Python's own MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
