"""The per-command peak memory tool in tools/: its record on a toy workload."""

import importlib.util
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "command_peaks.py"


@pytest.fixture(scope="module")
def command_peaks():
    spec = importlib.util.spec_from_file_location("_command_peaks", TOOL)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _perfbench_files():
    return {p: p.stat().st_mtime_ns for p in (ROOT / "perfbench").rglob("*")}


def test_record_of_a_toy_round(command_peaks):
    before = _perfbench_files()
    bench = command_peaks.load_bench()
    toy = bench.Workload(
        train_meshes=("tetrahedron",), n_input=16, patches_per_mesh=2, pool_size=2000,
        iterations=1, batch=1, upsample_n=16, sparse_points=64, eval_mesh="tetrahedron",
        schedule=("prepare", "train", "upsample", "prepare", "eval"))
    record = command_peaks.command_peaks(bench, toy, 3)
    assert set(record) == {"seed", "setup_rss_mb", "setup_children_rss_mb", "commands"}
    assert record["seed"] == 3
    assert [c["command"] for c in record["commands"]] == list(toy.schedule)
    assert all(set(c) == {"command", "ok", "rss_mb", "children_rss_mb"} and c["ok"] is True
               for c in record["commands"])
    # ru_maxrss is the process's peak so far: it never falls
    peaks = [record["setup_rss_mb"]] + [c["rss_mb"] for c in record["commands"]]
    assert all(isinstance(v, float) and v > 0 for v in peaks)
    assert peaks == sorted(peaks)
    # nor does the children's, 0 until one has been waited for
    children = [record["setup_children_rss_mb"]] + [c["children_rss_mb"]
                                                    for c in record["commands"]]
    assert all(isinstance(v, float) and v >= 0 for v in children)
    assert children == sorted(children)
    assert str(command_peaks.PERFBENCH) not in sys.path
    assert _perfbench_files() == before  # nothing written there, bytecode included


def test_children_peak_counts_a_waited_for_child(command_peaks):
    # a child that touches 64 MiB: RUSAGE_CHILDREN reads its peak, which
    # RUSAGE_SELF does not include
    subprocess.run([sys.executable, "-c", "b = bytearray(64 << 20)"], check=True)
    assert command_peaks.peak_rss_mb(resource.RUSAGE_CHILDREN) >= 64.0
    own, children = command_peaks.peaks()
    assert children >= 64.0 and 0 < own <= command_peaks.peak_rss_mb()


def test_unknown_workload_is_a_usage_error(command_peaks, capsys):
    with pytest.raises(SystemExit) as exc:
        command_peaks.main(["--workload", "no_such_workload", "--seed", "1"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
