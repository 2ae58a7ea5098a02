"""The source and public-surface counter in tools/: its record on this
checkout, and its refusal of a directory without pcup."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

from pcup.cli import build_parser
from pcup.training import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "api_counts.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True,
                          text=True, timeout=120)


def test_record_of_this_checkout():
    done = run_tool()
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout)
    assert set(record) == {"src", "src_lines", "exported_names", "exported_parameters",
                           "parameters_with_default", "train_config_fields", "cli_options"}
    assert Path(record["src"]) == ROOT / "src"
    assert record["src_lines"] == sum(len(p.read_text().splitlines())
                                      for p in (ROOT / "src").rglob("*.py"))
    assert all(isinstance(record[key], int) and record[key] > 0 for key in
               ("exported_names", "exported_parameters", "parameters_with_default"))
    assert record["parameters_with_default"] < record["exported_parameters"]
    assert record["train_config_fields"] == len(dataclasses.fields(TrainConfig))
    commands = build_parser()._subparsers._group_actions[0].choices
    assert set(record["cli_options"]) == set(commands)
    assert all(isinstance(n, int) and n > 0 for n in record["cli_options"].values())


def test_directory_without_pcup_is_refused(tmp_path):
    done = run_tool("--src", str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
    assert done.stderr.splitlines() == [f"error: {tmp_path}: no pcup package"]
