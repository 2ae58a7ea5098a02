"""Peak resident memory after each command of one benchmark round.

    python3 tools/command_peaks.py --workload upsample_eval --seed 1

Sets up a workload's inputs once in a temporary directory, runs one
round of its schedule through `pcup.cli.main` in this process, as
`perfbench/run.py` does, and prints one JSON record: the process's
`ru_maxrss` in MB after set-up and after each command, and beside each
the `RUSAGE_CHILDREN` figure, the peak of the largest child process
waited for so far (0 while none has run). `ru_maxrss` only rises, so
the command after which it last rises set the peak that the benchmark
reports as `peak_rss_mb`. The figures depend on the C library's
allocator, so they compare commands and commits on one machine only.
perfbench/ is read, never written, bytecode included.
Needs pcup and the standard library only; exits 1 if a command fails.
"""

import argparse
import contextlib
import importlib.util
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@contextlib.contextmanager
def _reading_perfbench():
    """perfbench/ on sys.path (Run.set_up imports its `inputs`), with no
    bytecode written."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


def load_bench():
    """perfbench/run.py under a private name."""
    spec = importlib.util.spec_from_file_location("_perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    with _reading_perfbench():
        spec.loader.exec_module(module)
    return module


def peak_rss_mb(who=resource.RUSAGE_SELF):
    """Peak resident memory in MB: of this process, or with
    resource.RUSAGE_CHILDREN of its largest waited-for child."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def peaks():
    """This process's peak and its children's, in MB."""
    return peak_rss_mb(), peak_rss_mb(resource.RUSAGE_CHILDREN)


def command_peaks(bench, workload, seed):
    """Run one set-up and one round of `workload` (a bench.Workload) and
    return the record: the set-up's peaks, then each command's name,
    success and the peaks after it."""
    import pcup.cli

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run = bench.Run(workload, seed, work)
        with _reading_perfbench():
            run.set_up()
        own, children = peaks()
        record = {"seed": seed, "setup_rss_mb": own, "setup_children_rss_mb": children,
                  "commands": []}
        for command in workload.schedule:
            out = run.outputs(command)
            if out.is_dir():
                shutil.rmtree(out)
            ok, _ = bench.run_command(pcup.cli, run.argv(command), work / f"{command}.log")
            own, children = peaks()
            record["commands"].append({"command": command, "ok": ok, "rss_mb": own,
                                       "children_rss_mb": children})
    return record


def main(argv=None):
    bench = load_bench()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    bench.import_program()
    record = {"workload": args.workload,
              **command_peaks(bench, bench.WORKLOADS[args.workload], args.seed)}
    print(json.dumps(record))
    return 0 if all(c["ok"] for c in record["commands"]) else 1


if __name__ == "__main__":
    sys.exit(main())
