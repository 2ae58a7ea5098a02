"""The pair runner in tools/: seed ranges, the per-metric summary and the run length."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("_bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_seed_ranges_and_lists(bench_pairs):
    assert bench_pairs.seed_list("201-204") == [201, 202, 203, 204]
    assert bench_pairs.seed_list("1,3,7-8") == [1, 3, 7, 8]
    assert bench_pairs.seed_list("205-205") == [205]


@pytest.mark.parametrize("seeds", ["210-201", "1,9-8"])
def test_descending_seed_range_is_a_usage_error(bench_pairs, capsys, seeds):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(["--parent", "HEAD~1", "--workloads", "train_desk",
                                "--seeds", seeds, "--out", "BENCH.json"])
    assert exc.value.code == 2
    assert "descending seed range" in capsys.readouterr().err


def _run(**values):
    return {"metrics": {k: {"value": v} for k, v in values.items()}}


def test_summary_counts_wins_by_direction_and_ties_for_neither(bench_pairs):
    definitions = {"upsample_s": {"unit": "s", "better": "lower"},
                   "train_patches_per_s": {"unit": "patches/s", "better": "higher"},
                   "eval_s": {"unit": "s", "better": "lower"}}
    pairs = [((3.0, 1.0), (2.0, 1.0)), ((2.9, 1.0), (3.1, 2.0)), ((3.2, 2.0), (2.5, 1.0))]
    runs = [tuple(_run(upsample_s=s, train_patches_per_s=p) for s, p in pair) for pair in pairs]
    out = bench_pairs.summarize(runs, definitions)
    assert set(out) == {"upsample_s", "train_patches_per_s"}  # eval_s was never measured
    up = out["upsample_s"]
    assert (up["pairs"], up["change_won"]) == (3, 2)
    assert up["parent"] == {"median": 3.0, "q1": 2.95, "q3": 3.1}
    assert up["runs"]["change"] == [2.0, 3.1, 2.5]
    assert out["train_patches_per_s"]["change_won"] == 1  # the first pair is a tie


def test_summary_of_one_pair(bench_pairs):
    runs = [(_run(upsample_s=3.0), _run(upsample_s=2.0))]
    up = bench_pairs.summarize(runs, {"upsample_s": {"unit": "s", "better": "lower"}})["upsample_s"]
    assert up["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert up["change_won"] == 1


def _verdict(bench_pairs, parent, change, better="lower", bound=0.1):
    runs = [(_run(m=p), _run(m=c)) for p, c in zip(parent, change)]
    definition = {"unit": "MB", "better": better, "bound": bound}
    return bench_pairs.summarize(runs, {"m": definition})["m"]["verdict"]


PARENT = [400.0, 395.0, 410.0, 405.0, 398.0, 402.0, 407.0, 393.0, 412.0, 400.0]


def test_verdict_gain_needs_nine_tenths_and_a_margin_past_the_parents_quartiles(bench_pairs):
    change = [170.0] * 10
    assert _verdict(bench_pairs, PARENT, change) == "gain"
    # 9 of 10 pairs won is still a gain; 8 of 10 is not
    assert _verdict(bench_pairs, PARENT, change[:9] + [500.0]) == "gain"
    assert _verdict(bench_pairs, PARENT, change[:8] + [500.0, 500.0]) == "within bound"
    # won every pair, by less than the parent's quartile distance (406.5 - 398.5)
    assert _verdict(bench_pairs, PARENT, [p - 1.0 for p in PARENT]) == "within bound"
    # a tie counts for neither side
    assert _verdict(bench_pairs, PARENT, change[:9] + [PARENT[9]]) == "gain"
    assert _verdict(bench_pairs, PARENT, change[:8] + PARENT[8:]) == "within bound"
    # fewer than ten pairs back no claim, whatever they show
    assert _verdict(bench_pairs, PARENT[:9], change[:9]) == "within bound"


def test_verdict_gain_follows_the_metrics_direction(bench_pairs):
    rates = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    doubled = [2 * r for r in rates]
    assert _verdict(bench_pairs, rates, doubled, better="higher") == "gain"
    assert _verdict(bench_pairs, rates, doubled, better="lower", bound=0.25) == "worse"


def test_verdict_worse_is_beyond_the_relative_bound_of_the_parents_median(bench_pairs):
    # parent median 401; a bound of 0.1 allows up to 441.1
    assert _verdict(bench_pairs, PARENT, [440.0] * 10) == "within bound"
    assert _verdict(bench_pairs, PARENT, [442.0] * 10) == "worse"
    assert _verdict(bench_pairs, PARENT, [442.0] * 10, bound=0.25) == "within bound"
    assert _verdict(bench_pairs, PARENT, [442.0] * 10, bound=None) == "no gain"


# quartiles 100 and 137.5 about a median of 100.5: wider than 10 % of it
NOISY = [100.0, 130.0, 100.0, 150.0, 101.0, 100.0, 160.0, 140.0, 100.0, 100.0]


def test_verdict_unresolved_when_the_parents_quartiles_are_wider_than_the_bound(bench_pairs):
    assert _verdict(bench_pairs, NOISY, NOISY) == "unresolved"
    assert _verdict(bench_pairs, NOISY, [105.0] * 10) == "unresolved"
    # a bound wider than the parent's quartile distance resolves it
    assert _verdict(bench_pairs, NOISY, [105.0] * 10, bound=0.4) == "within bound"
    # so does every change run beating every parent run, short of a gain
    assert _verdict(bench_pairs, NOISY, [99.0] * 10) == "within bound"
    assert _verdict(bench_pairs, NOISY, [99.0] * 9 + [100.0]) == "unresolved"
    rates = [200.0 - v for v in NOISY]  # the highest is 100
    assert _verdict(bench_pairs, rates, [101.0] * 10, better="higher") == "within bound"
    assert _verdict(bench_pairs, rates, [99.8] * 10, better="higher") == "unresolved"
    assert _verdict(bench_pairs, NOISY[:3], [99.0] * 3) == "within bound"
    assert _verdict(bench_pairs, NOISY[:4], [102.0] * 4) == "unresolved"


def test_verdict_gain_then_worse_come_before_unresolved(bench_pairs):
    assert _verdict(bench_pairs, NOISY, [50.0] * 10) == "gain"
    assert _verdict(bench_pairs, NOISY, [200.0] * 10) == "worse"
    assert _verdict(bench_pairs, NOISY, NOISY, bound=None) == "no gain"


def _stub_runs(bench_pairs, monkeypatch, run_once):
    benchmark = {"run_seconds": 7, "end_to_end": [{"name": "upsample_s", "unit": "s",
                                                   "better": "lower"}]}

    def export(rev, dest):
        (dest / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="ascii")

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "versions", lambda: {})
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)  # runs outside a checkout


def test_runs_last_the_benchmarks_run_seconds(bench_pairs, monkeypatch, tmp_path):
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append(seconds)
        return {"failed": 0, "attempted": 1, "metrics": {"upsample_s": {"value": 1.0}}}

    _stub_runs(bench_pairs, monkeypatch, run_once)
    out = tmp_path / "record.json"
    assert bench_pairs.main(["--parent", "HEAD", "--workloads", "upsample_eval",
                             "--seeds", "1-2", "--out", str(out)]) == 0
    assert calls == [7, 7, 7, 7]
    assert json.loads(out.read_text(encoding="ascii"))["seconds"] == 7


def test_summary_prints_failed_and_attempted_operations_per_side(bench_pairs, monkeypatch,
                                                                  tmp_path, capsys):
    def run_once(checkout, workload, seed, seconds, trace):
        if checkout.name == "change" and seed == 2:
            return None  # a crashed run counts as one failed operation
        failed = 1 if checkout.name == "parent" and seed == 3 else 0
        return {"failed": failed, "attempted": 5, "metrics": {"upsample_s": {"value": 1.0}}}

    _stub_runs(bench_pairs, monkeypatch, run_once)
    out = tmp_path / "record.json"
    assert bench_pairs.main(["--parent", "HEAD", "--workloads", "upsample_eval",
                             "--seeds", "1-3", "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="ascii"))["end_to_end"]["upsample_eval"]
    assert record["failed"] == {"parent": 1, "change": 1}
    assert record["attempted"] == {"parent": 15, "change": 11}
    lines = capsys.readouterr().out.splitlines()
    assert ("upsample_eval  operations failed/attempted: parent 1/15, change 1/11"
            in lines)
