"""The checks that CI runs beside tier-1, one command each.

    python3 tools/ci_checks.py pinned
    python3 tools/ci_checks.py bench-smoke

`pinned` runs the pinned-byte and determinism tests (PINNED_TESTS) once
under each of BLAS_SETTINGS: the four OpenBLAS kernels with a recorded
digest set beside SkylakeX (AVX2, AVX, SSE4.2, and SSE3, which reports
itself as Katmai), so the machine's CPU does not decide which kernel's
digests are checked, and one BLAS thread, since the recorded digests
hold at one and at two threads and the default is the core count. The
written upsample file has one digest for every kernel. With one code of
no columns the attention push's row blocks must give the whole
product's bits on these settings too; with the discriminator's pooled
feature as its one code, and with the generator's six code rows, the op
must match the stored-weights op over the explicit copies within
tolerance. Each patch's generator gradient, taken alone and added in
patch order, must give the bits of the batch's serial accumulation.

`bench-smoke` runs one round of each workload and one traced round of
`train_desk` through perfbench/run.py, each of which must report
`correct` and no failed operation; then tools/command_peaks.py on
`upsample_eval` and `train_desk`, whose peaks `eval` sets, and on
`train_paper`, whose train step holds the uniform loss at its largest;
then tools/api_counts.py. The peaks and counts must print a record that
parses; no threshold is set on them, as RSS depends on the C library.

Each command runs from the checkout's root with this interpreter, and
the first that fails stops the check with exit status 1. Needs the
standard library only (the commands it runs need numpy, scipy and
pytest).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLAS_SETTINGS = [
    ("OPENBLAS_CORETYPE", "Haswell"),
    ("OPENBLAS_CORETYPE", "Sandybridge"),
    ("OPENBLAS_CORETYPE", "Nehalem"),
    ("OPENBLAS_CORETYPE", "Prescott"),
    ("OPENBLAS_NUM_THREADS", "1"),
]

PINNED_TESTS = [
    "tests/test_training.py::TestTrainLoop::test_batch_of_three_reproduces_recorded_bytes",
    "tests/test_training.py::TestTrainLoop::test_generator_gradient_is_patches_summed_in_order",
    "tests/test_networks.py::TestWidths::test_initial_parameters_are_pinned",
    "tests/test_acceptance.py::test_c10_determinism",
    "tests/test_metrics.py::TestEmdExact",
    "tests/test_losses.py::TestUniformFlatGraph::test_value_and_gradient_bytes_are_pinned",
    "tests/test_losses.py::TestUniformFlatGraph::test_metric_values_are_pinned",
    "tests/test_autodiff.py::TestAttention::test_value_and_gradients_are_the_stored_weights_op_bits",
    "tests/test_autodiff.py::TestAttention::test_one_code_matches_the_op_over_explicit_copies",
    "tests/test_autodiff.py::TestAttentionOverCopies::test_matches_the_op_over_explicit_copies",
    "tests/test_training.py::TestUpsampleCloud::test_written_cloud_bytes_are_pinned",
]

# (workload, --trace) of the perfbench rounds
BENCH_ROUNDS = [("train_desk", 0), ("train_paper", 0), ("upsample_eval", 0), ("train_desk", 1)]
PEAK_WORKLOADS = ["upsample_eval", "train_paper", "train_desk"]


class CheckFailed(Exception):
    pass


def run(argv, env=None):
    """Run `argv` from the root and return its standard output; standard
    error passes through. A nonzero exit fails the check."""
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        raise CheckFailed(f"{' '.join(argv)} exited {done.returncode}")
    return done.stdout


def last_record(stdout, what):
    """The JSON object on the last line of `stdout`."""
    lines = stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise CheckFailed(f"{what}: the last line of its output is no JSON record") from None


def check_bench_record(record, what):
    """A perfbench record must say its outputs were correct and that no
    operation failed."""
    print(what, "correct:", record["correct"], "failed:", record["failed"])
    if record["correct"] is not True or record["failed"] != 0:
        raise CheckFailed(f"{what}: correct {record['correct']}, failed {record['failed']}")


def pinned():
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for name, value in BLAS_SETTINGS:
        print(f"{name}={value}", flush=True)
        sys.stdout.write(run([sys.executable, "-m", "pytest", "-q", *PINNED_TESTS],
                             env=dict(os.environ, PYTHONPATH=src, **{name: value})))


def bench_smoke():
    for workload, trace in BENCH_ROUNDS:
        what = f"{workload} trace {trace}"
        out = run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                   "--seconds", "0", "--trace", str(trace)])
        check_bench_record(last_record(out, what), what)
    for workload in PEAK_WORKLOADS:
        out = run([sys.executable, "tools/command_peaks.py", "--workload", workload,
                   "--seed", "1"])
        r = last_record(out, f"command_peaks {workload}")
        print(r["workload"], "peak RSS MB after set-up:", r["setup_rss_mb"],
              "children:", r["setup_children_rss_mb"])
        for c in r["commands"]:
            print(c["command"], c["rss_mb"], "children:", c["children_rss_mb"])
    print(json.dumps(last_record(run([sys.executable, "tools/api_counts.py"]), "api_counts"),
                     indent=1))


CHECKS = {"pinned": pinned, "bench-smoke": bench_smoke}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("check", choices=sorted(CHECKS))
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)  # in order with the commands' output
    try:
        CHECKS[args.check]()
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
