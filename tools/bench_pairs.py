"""Alternating parent/change pairs of the benchmark, written as a
performance record.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workloads upsample_eval train_desk --seeds 201-210 --out BENCH_10.json

Each revision is exported with `git archive` into a temporary directory,
so only committed files run and the checkout is left alone. For every
seed and workload, `perfbench/run.py` runs once on each side, the parent
first on even pairs and the change first on odd ones, one run at a time.
The record holds the commit shas, the core count, the Python, numpy and
scipy versions, and per workload and metric every run's value, each
side's median and quartiles, the pairs the change won (a tie counts
for neither side) and a verdict on a claim: `gain`, `worse`,
`unresolved` or `within bound`, or `no gain` for a per-layer metric,
which has no bound (see `verdict`). The closing summary prints, per
workload, each side's failed and attempted operations, then each
metric's medians, pairs won and verdict. The run length
(`run_seconds`), the metric units, directions and bounds come from the
change's BENCHMARK.json. With `--trace` the runs are traced and the per-layer
metrics go to the record's `per_layer` section instead of `end_to_end`;
a record written before for the same commits and machine keeps its
other section. Needs only the standard library and git.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    """'201-210' or '1,2,5' -> list of ints. A descending range is an
    error, not an empty list."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"descending seed range {part!r}")
        seeds.extend(range(lo, hi + 1))
    return seeds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 201-210")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, dest):
    """Write the files of commit `rev` into `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def versions():
    code = "import numpy, scipy; print(numpy.__version__, scipy.__version__)"
    numpy_v, scipy_v = subprocess.run([sys.executable, "-c", code], check=True,
                                      capture_output=True, text=True).stdout.split()
    return {"python": platform.python_version(), "numpy": numpy_v, "scipy": scipy_v}


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run; its result object, or None if it crashed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


MIN_CLAIM_PAIRS = 10


def verdict(metric, bound):
    """'gain' when at least MIN_CLAIM_PAIRS pairs ran, the change won at
    least nine tenths of them (ties count for neither side) and its median
    beats the parent's by more than the distance between the parent's
    quartiles; 'worse' when its median is worse than the parent's by more
    than the relative `bound`; 'unresolved' when the parent's quartile
    distance is wider than that bound, so its own runs cannot tell a
    regression from noise, and not every change run beats every parent
    run; otherwise 'within bound', or 'no gain' for a metric without a
    bound."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    parent, change = metric["parent"], metric["change"]
    gained = sign * (change["median"] - parent["median"])
    if (metric["pairs"] >= MIN_CLAIM_PAIRS and 10 * metric["change_won"] >= 9 * metric["pairs"]
            and gained > parent["q3"] - parent["q1"]):
        return "gain"
    if bound is None:
        return "no gain"
    allowed = bound * abs(parent["median"])
    if gained < -allowed:
        return "worse"
    runs = metric["runs"]
    beats_all = (min(sign * v for v in runs["change"])
                 > max(sign * v for v in runs["parent"]))
    if parent["q3"] - parent["q1"] > allowed and not beats_all:
        return "unresolved"
    return "within bound"


def summarize(runs, definitions):
    """Per metric: units, both sides' runs, medians, quartiles, pairs won
    and the verdict."""
    out = {}
    for name, definition in definitions.items():
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in runs if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        parent, change = map(list, zip(*pairs))
        sign = -1.0 if definition["better"] == "lower" else 1.0
        out[name] = {
            "unit": definition["unit"], "better": definition["better"],
            "parent": spread(parent), "change": spread(change),
            "pairs": len(pairs), "change_won": sum(sign * (c - p) > 0 for p, c in pairs),
            "runs": {"parent": parent, "change": change},
        }
        out[name]["verdict"] = verdict(out[name], definition.get("bound"))
    return out


def main(argv=None):
    args = parse_args(argv)
    section = "per_layer" if args.trace else "end_to_end"
    shas = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {}
        for side in ("parent", "change"):
            sides[side] = Path(tmp) / side
            sides[side].mkdir()
            export(shas[side], sides[side])
        with open(sides["change"] / "BENCHMARK.json", encoding="ascii") as fh:
            benchmark = json.load(fh)
        definitions = {m["name"]: m for m in benchmark[section]}
        head = {**shas, "cores": os.cpu_count(), **versions(),
                "seconds": benchmark["run_seconds"]}
        record = {**head, "end_to_end": {}, "per_layer": {}}
        if args.out.is_file():
            old = json.loads(args.out.read_text(encoding="ascii"))
            if all(old.get(key) == value for key, value in head.items()):
                record.update({k: old.get(k, {}) for k in ("end_to_end", "per_layer")})
        for workload in args.workloads:
            runs, failed, attempted = [], {"parent": 0, "change": 0}, {"parent": 0, "change": 0}
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                result = {}
                for side in order:
                    result[side] = run_once(sides[side], workload, seed, head["seconds"],
                                            args.trace)
                    ok = result[side] is not None
                    failed[side] += result[side]["failed"] if ok else 1
                    attempted[side] += result[side]["attempted"] if ok else 1
                    print(f"{workload} seed {seed} {side}: "
                          + (json.dumps({k: round(v["value"], 4) for k, v in
                                         result[side]["metrics"].items()}) if ok else "crashed"),
                          flush=True)
                if all(result.values()):
                    runs.append((result["parent"], result["change"]))
            record[section][workload] = {
                "seeds": args.seeds, "attempted": attempted, "failed": failed,
                "metrics": summarize(runs, definitions),
            }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="ascii")
    for workload, w in record[section].items():
        print(f"{workload:<14} operations failed/attempted: "
              + ", ".join(f"{side} {w['failed'][side]}/{w['attempted'][side]}"
                          for side in ("parent", "change")))
        for name, m in w["metrics"].items():
            print(f"{workload:<14} {name:<44} {m['parent']['median']:.4g} -> "
                  f"{m['change']['median']:.4g} {m['unit']} (change won {m['change_won']}"
                  f"/{m['pairs']}): {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
