"""The CI check runner in tools/: its test ids exist, and its record
checks refuse what the workflow's steps refused."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ci_checks.py"


@pytest.fixture(scope="module")
def ci_checks():
    spec = importlib.util.spec_from_file_location("_ci_checks", TOOL)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_pinned_test_id_is_collected(ci_checks):
    # a renamed test would otherwise drop out of the BLAS loop unnoticed
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *ci_checks.PINNED_TESTS],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    collected = [line for line in done.stdout.splitlines() if "::" in line]
    for test_id in ci_checks.PINNED_TESTS:
        assert any(line.startswith(test_id) for line in collected), test_id


@pytest.mark.parametrize("record, ok", [
    ({"correct": True, "failed": 0}, True),
    ({"correct": False, "failed": 0}, False),
    ({"correct": "true", "failed": 0}, False),
    ({"correct": True, "failed": 1}, False),
])
def test_bench_record_must_be_correct_with_no_failure(ci_checks, capsys, record, ok):
    if ok:
        ci_checks.check_bench_record(record, "train_desk trace 0")
    else:
        with pytest.raises(ci_checks.CheckFailed, match="train_desk trace 0"):
            ci_checks.check_bench_record(record, "train_desk trace 0")
    assert capsys.readouterr().out.startswith("train_desk trace 0 correct:")


@pytest.mark.parametrize("stdout", ["", "progress\n", '{"a": 1}\nnot json\n'])
def test_output_must_end_in_a_record(ci_checks, stdout):
    with pytest.raises(ci_checks.CheckFailed, match="no JSON record"):
        ci_checks.last_record(stdout, "api_counts")


def test_last_line_is_the_record(ci_checks):
    assert ci_checks.last_record('progress\n{"a": 1}\n', "api_counts") == {"a": 1}


def test_failing_command_fails_the_check(ci_checks):
    with pytest.raises(ci_checks.CheckFailed, match="exited 3"):
        ci_checks.run([sys.executable, "-c", "import sys; sys.exit(3)"])


def test_unknown_check_is_a_usage_error():
    done = subprocess.run([sys.executable, str(TOOL), "nope"], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "invalid choice: 'nope'" in done.stderr
