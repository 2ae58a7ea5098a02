"""The attention timing tool in tools/: its record at toy size."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "op_times.py"


def _run(*args):
    return subprocess.run([sys.executable, "-B", str(TOOL), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def _spread_ok(spread):
    return set(spread) == {"median", "q1", "q3"} and 0 < spread["q1"] <= spread["median"] <= spread["q3"]


def test_record_at_toy_size():
    done = _run("--repeats", "2", "--shrink", "16")
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert set(record) == {"src", "base", "cores", "python", "numpy", "scipy", "repeats",
                           "shapes"}
    assert record["src"] == str(ROOT / "src")
    assert record["base"] is None
    assert record["repeats"] == 2
    assert isinstance(record["cores"], int) and record["cores"] >= 1
    # the generator's 6 coded copies of 64 and 256 points and the
    # discriminator's 1024 points, each point count divided by 16
    assert {name: (s["rows"], s["codes"], s["columns"])
            for name, s in record["shapes"].items()} == {
        "generator_n64": (24, 6, 130), "generator_n256": (96, 6, 130),
        "discriminator_n256": (64, 1, 128)}
    for shape in record["shapes"].values():
        assert set(shape) == {"rows", "codes", "columns", "forward", "forward_push"}
        assert _spread_ok(shape["forward"]) and _spread_ok(shape["forward_push"])


def test_base_is_timed_in_turn_with_this_checkout():
    # this checkout against itself: both ops run on every repeat
    done = _run("--base", str(ROOT / "src"), "--repeats", "3", "--shrink", "16")
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["base"] == str(ROOT / "src")
    for shape in record["shapes"].values():
        for run in ("forward", "forward_push"):
            assert _spread_ok(shape[run]) and _spread_ok(shape["base"][run])
            assert 0 <= shape["wins"][run] <= 3


def test_base_without_autodiff_exits_1(tmp_path):
    done = _run("--base", str(tmp_path), "--repeats", "2")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"error: {tmp_path}: no pcup/autodiff.py\n"


def test_too_few_repeats_is_a_usage_error():
    done = _run("--repeats", "1")
    assert done.returncode == 2
    assert "--repeats must be at least 2" in done.stderr
