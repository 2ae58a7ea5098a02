"""pcup benchmark: runs the `pcup` pipeline in-process on inputs made
from a seed, checks every output, and prints its metrics.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 10 --trace 0

Each run sets up its inputs three times (the median is `setup_s`), then
repeats rounds of its workload's schedule of `prepare`, `train`,
`upsample` and `eval` commands through `pcup.cli.main` until they have
taken `--seconds` in total; every run does at least one round. With
`--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` the calls into each module are
traced and it holds the per-layer metrics. See perfbench/README.md.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RATE = 4
SET_UPS = 3
GENERATOR_SEED = 0
# the pace loop's typical seconds on the machine of the README's figures
PACE_REFERENCE_S = 0.05


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; why each was chosen is in BENCHMARK.json."""

    train_meshes: tuple  # shapes written to the `prepare` mesh directory
    n_input: int  # prepare --N
    patches_per_mesh: int
    pool_size: int  # prepare --pool-size, None for the default
    iterations: int  # train --iterations
    batch: int  # train --batch
    upsample_n: int  # N of the untrained generator `upsample` runs
    sparse_points: int  # points of the cloud `upsample` reads
    eval_mesh: str  # shape `eval` measures against; the clouds are sampled from it
    # the commands of one round in order. A short command runs three or four
    # times, spread before and after the long ones, and its median is reported:
    # a shared machine's speed drifts in phases of seconds, and samples
    # taken at different times of the run keep one slow phase from setting it
    schedule: tuple


SHORT = ("prepare", "upsample", "eval")
AROUND_TRAIN = SHORT * 2 + ("train",) + SHORT * 2

WORKLOADS = {
    "train_desk": Workload(
        train_meshes=("icosphere", "tetrahedron"), n_input=64, patches_per_mesh=6,
        pool_size=30000, iterations=20, batch=4, upsample_n=64, sparse_points=512,
        eval_mesh="tetrahedron", schedule=AROUND_TRAIN),
    "train_paper": Workload(
        train_meshes=("icosphere",), n_input=256, patches_per_mesh=4,
        pool_size=None, iterations=1, batch=1, upsample_n=64, sparse_points=512,
        eval_mesh="tetrahedron", schedule=AROUND_TRAIN),
    "upsample_eval": Workload(
        train_meshes=("tetrahedron",), n_input=64, patches_per_mesh=10, pool_size=30000,
        iterations=1, batch=2, upsample_n=256, sparse_points=2048,
        eval_mesh="ellipsoid",
        schedule=("prepare", "train", "upsample", "prepare", "train", "eval",
                  "prepare", "train")),
}

END_TO_END = {"setup_s": "s", "prepare_s": "s", "train_patches_per_s": "patches/s",
              "upsample_s": "s", "eval_s": "s", "peak_rss_mb": "MB"}
COMMANDS = ("prepare", "train", "upsample", "eval")


def per_layer_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import pcup from this checkout's src/, never from an install."""
    src = ROOT / "src"
    if not (src / "pcup" / "cli.py").is_file():
        raise SystemExit(f"error: {src / 'pcup'} not found; run from a pcup checkout")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (timed as part of set-up)
    import pcup
    import pcup.cli

    if Path(pcup.__file__).resolve().parent != src / "pcup":
        raise SystemExit(f"error: imported pcup from {pcup.__file__}, not {src}")
    return pcup


class Run:
    def __init__(self, workload, seed, work):
        self.w = workload
        self.seed = seed
        self.work = work
        self.meshes = work / "meshes"
        self.eval_mesh = work / "eval" / (workload.eval_mesh + ".off")
        self.sparse = work / "sparse.xyz"
        self.gt = work / "gt.xyz"
        self.archive = work / "archive"
        self.run_dir = work / "run"
        self.pred = work / "pred.xyz"
        self.report = work / "report.csv"
        # upsample -> eval runs an untrained generator with fixed weights, not
        # the one `train` wrote: the cost of upsampling and evaluating depends
        # on how collapsed the generator's output is, so weights that changed
        # with the seed or with training would make that cost vary between runs
        self.checkpoint = work / "init_ckpt"
        self.mesh_paths = {}

    def set_up(self):
        """Write the meshes, the clouds and the generator checkpoint."""
        import numpy as np
        from pcup import geometry, mesh, networks, training

        import inputs

        rng = np.random.default_rng(self.seed)
        self.mesh_paths = inputs.write_meshes(self.meshes, self.w.train_meshes, rng)
        inputs.write_meshes(self.eval_mesh.parent, [self.w.eval_mesh], rng)
        surface = mesh.load_mesh(str(self.eval_mesh))
        n = self.w.sparse_points
        for path, count in ((self.sparse, n), (self.gt, RATE * n)):
            cloud = mesh.poisson_disk_sample(surface, count, rng, pool_factor=3)
            geometry.write_xyz(str(path), cloud.positions)
        cfg = training.TrainConfig(n_input=self.w.upsample_n, rate=RATE)
        gparams = networks.init_generator(cfg.generator_config(), GENERATOR_SEED)
        training.save_checkpoint(str(self.checkpoint), gparams, None, cfg)

    def argv(self, command):
        w, seed = self.w, str(self.seed)
        if command == "prepare":
            pool = [] if w.pool_size is None else ["--pool-size", str(w.pool_size)]
            return ["prepare", "--meshes", str(self.meshes), "--out", str(self.archive),
                    "--N", str(w.n_input), "--r", str(RATE),
                    "--patches-per-mesh", str(w.patches_per_mesh), "--seed", seed] + pool
        if command == "train":
            return ["train", "--data", str(self.archive), "--out", str(self.run_dir),
                    "--iterations", str(w.iterations), "--batch", str(w.batch), "--seed", seed]
        if command == "upsample":
            return ["upsample", "--in", str(self.sparse), "--ckpt", str(self.checkpoint),
                    "--out", str(self.pred)]
        return ["eval", "--pred", str(self.pred), "--gt", str(self.gt),
                "--mesh", str(self.eval_mesh), "--out", str(self.report), "--seed", seed]

    def outputs(self, command):
        return {"prepare": self.archive, "train": self.run_dir,
                "upsample": self.pred, "eval": self.report}[command]

    def check(self, command):
        from pcup import metrics, mesh

        import oracles

        if command == "prepare":
            oracles.check_archive(self.archive, self.w.n_input, RATE,
                                  self.w.patches_per_mesh, self.mesh_paths)
        elif command == "train":
            oracles.check_training(self.run_dir, self.archive, self.w.iterations)
        elif command == "upsample":
            oracles.check_upsample(self.pred, self.w.sparse_points, RATE)
        else:
            surface = mesh.load_mesh(str(self.eval_mesh))
            oracles.check_eval(self.report, self.pred, self.gt, self.eval_mesh,
                               lambda pts: metrics.point_to_surface_stats(pts, surface))


def digest(path):
    """sha256 over the names and bytes of every file under `path`."""
    h = hashlib.sha256()
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    for f in files:
        h.update(str(f.relative_to(path.parent)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def pace():
    """Seconds a fixed mix of small numpy operations and Python arithmetic,
    like the per-op work of pcup, takes now. On a shared machine the CPU's
    speed can drift by tens of percent for minutes at a time, alike for
    every command; sampled between the commands, the loop's median time
    gives the machine's speed during this run."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    start = time.perf_counter()
    total = 0.0
    for i in range(4000):
        total += float((a @ a)[0, i % 64]) + sum(range(200))
    return time.perf_counter() - start


def run_command(cli, argv, log_path):
    """Run one pcup command in-process; returns (ok, seconds). Its own
    output goes to log_path."""
    with open(log_path, "w", encoding="utf-8") as log:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed operation, not a crashed benchmark
                traceback.print_exc()
                code = None
            seconds = time.perf_counter() - start
    if code != 0:
        with open(log_path, encoding="utf-8") as log:
            tail = log.read()[-2000:]
        print(f"pcup {argv[0]} failed (exit {code}):\n{tail}", file=sys.stderr)
    return code == 0, seconds


def measure(args):
    start = time.perf_counter()
    pcup = import_program()
    import_s = time.perf_counter() - start
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    # pace samples before any pcup code has run, to compare with the ones
    # taken between commands: a pcup state that slowed the loop would show
    pace_before = [pace() for _ in range(3)]
    w = WORKLOADS[args.workload]
    work = HERE / "work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(w, args.seed, work)
    set_up_times = []
    for _ in range(SET_UPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t = time.perf_counter()
        run.set_up()
        set_up_times.append(time.perf_counter() - t)

    tracer = Tracer()
    if args.trace:
        tracer.install(pcup)
    times = {c: [] for c in COMMANDS}
    failed = {c: 0 for c in COMMANDS}
    first = {}
    paces = []
    rounds = 0
    spent = 0.0
    while rounds == 0 or spent < args.seconds:
        for command in w.schedule:
            paces.append(pace())
            out = run.outputs(command)
            if out.is_dir():
                shutil.rmtree(out)
            tracer.active = bool(args.trace)
            ok, seconds = run_command(pcup.cli, run.argv(command), work / f"{command}.log")
            tracer.active = False
            spent += seconds
            times[command].append(seconds)
            if not ok:
                failed[command] += 1
            elif command not in first:
                first[command] = digest(out)
            elif digest(out) != first[command]:
                failed[command] += 1
                print(f"pcup {command}: output differs from its first run", file=sys.stderr)
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    correct = True
    for command in COMMANDS:
        if command not in first:
            continue  # no run of it succeeded: counted already, nothing to check
        try:
            run.check(command)
        except Exception as exc:
            correct = False
            failed[command] = rounds * w.schedule.count(command)
            print(f"check of pcup {command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    median = {c: statistics.median(times[c]) for c in COMMANDS}
    summary = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "commands_s": median, "samples_s": times, "pace_s": paces, "pace_before_s": pace_before,
        "set_ups_s": set_up_times, "import_s": import_s,
    }
    print(json.dumps(summary), file=sys.stderr)
    if args.trace:
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        tracer.write(results / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = tracer.layer_metrics(per_layer_metrics(), rounds)
    else:
        # times at the speed the pace loop takes PACE_REFERENCE_S at
        scale = PACE_REFERENCE_S / statistics.median(paces)
        values = {
            "setup_s": (import_s + statistics.median(set_up_times)) * scale,
            "prepare_s": median["prepare"] * scale,
            "train_patches_per_s": w.iterations * w.batch / (median["train"] * scale),
            "upsample_s": median["upsample"] * scale,
            "eval_s": median["eval"] * scale,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{args.workload:<14} {name:<44} {m['value']:.6g} {m['unit']}")
    attempted = rounds * len(w.schedule)
    print(f"{args.workload:<14} operations attempted {attempted}, failed {sum(failed.values())}")
    return {"correct": correct, "attempted": attempted, "failed": sum(failed.values()),
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
