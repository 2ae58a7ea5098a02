"""Times of the attention op, forward and forward plus push, as one JSON
record.

    python3 tools/op_times.py [--base DIR] [--repeats 31] [--shrink 1]

Times `autodiff.self_attention` of this checkout's src/ on the three
shapes it has in a network at N=64 and N=256, with random weights,
inputs and codes: the generator's 384 and 1536 rows (6 coded copies of
64 and 256 points, 128 feature and 2 code columns) and the
discriminator's 1024 rows (one code, 64 feature and 64 code columns).
Each repeat times, per shape, one forward pass and one forward pass plus
the push of the output's sum, with the shapes and passes interleaved so
that a slow phase of the machine falls on all of them. Everything runs
at one BLAS thread (`training._one_blas_thread()`), as `upsample`'s
workers do. `--shrink K` divides every row count by K, for a quick run.

`--base DIR` compares this checkout with another: DIR/pcup/autodiff.py
(another checkout's src/) is loaded under a module name of its own and
each repeat times both ops back to back on the same inputs, the two in
turn first, so that both see the same phases of the machine. Two
processes, one per checkout, do not: on a shared machine a process's
whole record moves with the machine's load.

The record holds the core count, the Python, numpy and scipy versions,
the `src` timed, the `base` (or null) and per shape its rows, code count
and columns and, per pass, the median and quartiles in milliseconds over
the repeats. With a base, each shape also holds the base's passes under
`base` and, per pass, `wins`: the repeats in which this checkout's op
took less time than the base's. Needs pcup and the standard library
only; a DIR without pcup/autodiff.py is an error.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# name: (points, codes, feature columns, code columns)
SHAPES = {
    "generator_n64": (64, 6, 128, 2),
    "generator_n256": (256, 6, 128, 2),
    "discriminator_n256": (1024, 1, 64, 64),
}

PASSES = ("forward", "forward_push")


def load_autodiff(src):
    """src/pcup/autodiff.py as a module named apart from this checkout's."""
    spec = importlib.util.spec_from_file_location("base_autodiff", src / "pcup" / "autodiff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_case(ad, points, codes, features, code_columns, seed=0):
    """Attention weights, with noise on every tensor so no bias is 0, an
    input leaf and a code table leaf, as nodes of the module `ad`."""
    import numpy

    rng = numpy.random.default_rng(seed)
    params = ad.Params()
    ad.init_attention(params, "att", features + code_columns, rng)
    for _, node in params.items():
        node.value += rng.normal(scale=0.05, size=node.value.shape)
    x = params.add("x", rng.normal(size=(points, features)))
    return params, x, params.add("codes", rng.normal(size=(codes, code_columns)))


def time_passes(ad, case):
    """Seconds of one forward pass and of one forward pass plus push."""
    params, x, codes = case
    start = time.perf_counter()
    ad.self_attention(x, codes, params, "att")
    forward = time.perf_counter() - start
    params.zero_grad()
    start = time.perf_counter()
    ad.backward(ad.sum_all(ad.self_attention(x, codes, params, "att")))
    return forward, time.perf_counter() - start


def spread_ms(seconds):
    ms = [1000.0 * s for s in seconds]
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def op_times(repeats, shrink, base=None):
    """The record for this checkout's op, and the base's beside it."""
    import numpy
    import scipy

    sys.path.insert(0, str(SRC))
    from pcup import autodiff, training

    ops = {"src": autodiff} if base is None else {"src": autodiff, "base": load_autodiff(base)}
    cases = {op: {name: make_case(ad, max(1, points // shrink), codes, features, code_columns)
                  for name, (points, codes, features, code_columns) in SHAPES.items()}
             for op, ad in ops.items()}
    runs = {op: {name: {p: [] for p in PASSES} for name in SHAPES} for op in ops}
    with training._one_blas_thread():
        for repeat in range(repeats):
            for name in SHAPES:
                order = list(ops) if repeat % 2 == 0 else list(ops)[::-1]
                for op in order:
                    for p, seconds in zip(PASSES, time_passes(ops[op], cases[op][name])):
                        runs[op][name][p].append(seconds)
    shapes = {}
    for name in SHAPES:
        params, x, codes = cases["src"][name]
        shape = {"rows": x.shape[0] * codes.shape[0], "codes": codes.shape[0],
                 "columns": x.shape[1] + codes.shape[1],
                 **{p: spread_ms(runs["src"][name][p]) for p in PASSES}}
        if base is not None:
            shape["base"] = {p: spread_ms(runs["base"][name][p]) for p in PASSES}
            shape["wins"] = {p: sum(s < b for s, b in zip(runs["src"][name][p],
                                                          runs["base"][name][p]))
                             for p in PASSES}
        shapes[name] = shape
    return {"src": str(SRC), "base": None if base is None else str(base),
            "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "repeats": repeats,
            "shapes": shapes}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path,
                        help="another checkout's src/, timed in turn with this one's")
    parser.add_argument("--repeats", type=int, default=31,
                        help="timed runs of each pass on each shape (default: %(default)s)")
    parser.add_argument("--shrink", type=int, default=1,
                        help="divide every row count by this (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.repeats < 2 or args.shrink < 1:
        parser.error("--repeats must be at least 2 and --shrink at least 1")
    if args.base is not None and not (args.base / "pcup" / "autodiff.py").is_file():
        print(f"error: {args.base}: no pcup/autodiff.py", file=sys.stderr)
        return 1
    try:
        record = op_times(args.repeats, args.shrink, args.base)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
