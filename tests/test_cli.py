"""End-to-end command-line behavior: exit codes, file outputs, and the
prepare -> train -> upsample -> eval chain on a tiny workload."""

import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import pcup
from pcup.cli import main
from pcup.geometry import read_xyz, write_xyz
from pcup.mesh import area_weighted_sample, load_mesh


PREPARE_TINY = [
    "--patches-per-mesh", "4", "--N", "16", "--r", "2",
    "--fraction", "0.05", "--pool-size", "2000", "--seed", "0",
]

CONFIG_TINY = """\
n_input = 16
rate = 2
batch_size = 2
iterations = 2
checkpoint_every = 2
feature_channels = 24
working_channels = 8
group_k = 8
regress_hidden = 8
disc_point_channels = 8
disc_global_channels = 16
disc_head_hidden = 8
uniform_seed_count = 5
"""


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_console_script(name):
    """The `[project.scripts]` entry `name` of pyproject.toml, parsed.

    A regex rather than tomllib, which Python 3.10 lacks.
    """
    table = re.search(r"^\[project\.scripts\]\s*$(.*?)(?=^\[|\Z)",
                      PYPROJECT.read_text(), re.M | re.S)
    assert table, f"no [project.scripts] table in {PYPROJECT}"
    value = re.search(rf'^\s*{re.escape(name)}\s*=\s*"([^"]+)"',
                      table.group(1), re.M)
    assert value, f"no {name!r} entry in [project.scripts] of {PYPROJECT}"
    return EntryPoint(name=name, value=value.group(1), group="console_scripts")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def archive(tmp_path_factory, mesh_dir):
    out = tmp_path_factory.mktemp("archive")
    code = main(["prepare", "--meshes", str(mesh_dir), "--out", str(out)] + PREPARE_TINY)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, archive):
    cfg_path = tmp_path_factory.mktemp("cfg") / "config.txt"
    cfg_path.write_text(CONFIG_TINY)
    out = tmp_path_factory.mktemp("run")
    code = main([
        "train", "--data", str(archive), "--out", str(out),
        "--config", str(cfg_path), "--seed", "0",
    ])
    assert code == 0
    return out


class TestUsageErrors:
    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "prepare", "--meshes", "x", "--out", "y", "--bogus")[0] == 2

    def test_bad_ablate_choice(self, capsys):
        code, _, err = run(capsys, "train", "--data", "x", "--out", "y",
                           "--ablate", "gravity")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "train", "--help")[0] == 0

    def test_installed_entry_point(self):
        # Run, in a fresh interpreter, what pip's generated `pcup` wrapper
        # runs, so the declared entry point is checked without an install.
        ep = declared_console_script("pcup")
        src = str(Path(pcup.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
        proc = subprocess.run(
            [sys.executable, "-c", code, "--help"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "prepare" in proc.stdout, proc.stderr

    @pytest.mark.skipif(shutil.which("pcup") is None,
                        reason="pcup console script not installed")
    def test_console_script_on_path(self):
        proc = subprocess.run(
            ["pcup", "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert "prepare" in proc.stdout, proc.stderr


class TestPrepare:
    @pytest.mark.parametrize("flag, value", [
        ("--patches-per-mesh", "0"), ("--patches-per-mesh", "-1"),
        ("--N", "0"), ("--N", "-4"), ("--r", "0"), ("--r", "-2"),
        ("--pool-size", "0"), ("--pool-size", "-5"),
    ])
    def test_bad_sizes_are_usage_errors(self, capsys, tmp_path, mesh_dir, flag, value):
        # rejected while parsing, before any mesh is loaded or sampled
        out = tmp_path / "archive"
        code, stdout, err = run(capsys, "prepare", "--meshes", str(mesh_dir),
                                "--out", str(out), flag, value)
        assert code == 2
        assert f"{flag}: must be at least 1, got {value}" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-0.1", "0.5", "1.5", "nan"])
    def test_fraction_outside_open_half_is_usage_error(self, capsys, tmp_path, mesh_dir, value):
        out = tmp_path / "archive"
        code, stdout, err = run(capsys, "prepare", "--meshes", str(mesh_dir),
                                "--out", str(out), "--fraction", value)
        assert code == 2
        assert f"--fraction: must be in (0, 0.5), got {value}" in err
        assert stdout == ""
        assert not out.exists()

    def test_archive_layout(self, archive, capsys):
        assert (archive / "config.txt").is_file()
        assert (archive / "tetra" / "patch_0000_input.xyz").is_file()
        assert (archive / "icosphere" / "patch_0003_gt.xyz").is_file()
        pts = read_xyz(archive / "tetra" / "patch_0000_input.xyz")
        assert pts.shape == (16, 3)

    def test_missing_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "prepare", "--meshes", str(tmp_path / "nope"),
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith("error:")

    def test_directory_without_meshes(self, capsys, tmp_path):
        (tmp_path / "readme.txt").write_text("hi\n")
        code, _, err = run(capsys, "prepare", "--meshes", str(tmp_path),
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert "no .off or .ply" in err

    def test_corrupt_mesh_reported_but_good_one_prepared(self, capsys, tmp_path, mesh_dir):
        src = tmp_path / "meshes"
        src.mkdir()
        (src / "tetra.off").write_bytes((mesh_dir / "tetra.off").read_bytes())
        (src / "broken.off").write_text("OFF\nnot numbers\n")
        out = tmp_path / "arch"
        code, stdout, err = run(
            capsys, "prepare", "--meshes", str(src), "--out", str(out), *PREPARE_TINY
        )
        assert code == 1
        assert "error: broken.off" in err
        assert "tetra: 4 patches" in stdout
        assert (out / "tetra" / "patch_0003_gt.xyz").is_file()

    def test_rerun_is_byte_identical(self, capsys, tmp_path, mesh_dir):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code, _, _ = run(capsys, "prepare", "--meshes", str(mesh_dir),
                             "--out", str(out), *PREPARE_TINY)
            assert code == 0
            outs.append(out)
        rels = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        assert rels
        for rel in rels:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


class TestTrain:
    def test_missing_data_dir_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "missing"),
                           "--out", str(tmp_path / "run"))
        assert code == 2
        assert "no such data directory" in err

    @pytest.mark.parametrize("flag, value", [
        ("--iterations", "0"), ("--iterations", "-1"), ("--batch", "0"), ("--batch", "-2"),
    ])
    def test_bad_sizes_are_usage_errors(self, capsys, archive, tmp_path, flag, value):
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(archive),
                                "--out", str(out), flag, value)
        assert code == 2
        assert f"{flag}: must be at least 1, got {value}" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("batch_size = 0", "batch_size must be at least 1, got 0"),
        ("iterations = -1", "training needs at least 1 iteration, got -1"),
    ])
    def test_config_without_an_iteration_exits_1(self, capsys, archive, tmp_path, line, message):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(CONFIG_TINY + line + "\n")
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(archive), "--out", str(out),
                                "--config", str(cfg_path))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("key", ["checkpoint_every", "lr_decay_every", "uniform_seed_count"])
    def test_config_zero_period_or_count_exits_1(self, capsys, archive, tmp_path, key):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(CONFIG_TINY + f"{key} = 0\n")
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(archive), "--out", str(out),
                                "--config", str(cfg_path))
        assert code == 1
        assert err == f"error: {key} must be at least 1, got 0\n"
        assert stdout == ""
        assert not out.exists()

    def test_run_outputs(self, run_dir, capsys):
        lines = (run_dir / "losses.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 iterations
        assert (run_dir / "ckpt_000002" / "generator.params").is_file()
        assert (run_dir / "ckpt_000002" / "discriminator.params").is_file()

    def test_ablate_discriminator_leaves_column_empty(self, capsys, archive, tmp_path):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(CONFIG_TINY)
        out = tmp_path / "run"
        code, stdout, _ = run(
            capsys, "train", "--data", str(archive), "--out", str(out),
            "--config", str(cfg_path), "--ablate", "discriminator",
        )
        assert code == 0
        header, first = (out / "losses.csv").read_text().splitlines()[:2]
        row = dict(zip(header.split(","), first.split(",")))
        assert row["loss_d"] == "" and row["adv_g"] == ""
        assert row["rec"] != ""
        assert not (out / "ckpt_000002" / "discriminator.params").exists()

    def test_baseline_sets_four_switches(self, capsys, archive, tmp_path):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(CONFIG_TINY)
        out = tmp_path / "run"
        code, _, _ = run(
            capsys, "train", "--data", str(archive), "--out", str(out),
            "--config", str(cfg_path), "--baseline", "--iterations", "1",
        )
        assert code == 0
        saved = (out / "ckpt_000001" / "config.txt").read_text()
        for switch in ("ablate_uniform", "ablate_attention",
                       "ablate_up_down_up", "ablate_fps"):
            assert f"{switch} = true" in saved
        assert "ablate_discriminator = false" in saved


class TestUpsample:
    def test_round_trip(self, capsys, run_dir, tmp_path, rng):
        src = tmp_path / "cloud.xyz"
        write_xyz(src, rng.normal(size=(40, 3)))
        dst = tmp_path / "dense.xyz"
        code, stdout, _ = run(
            capsys, "upsample", "--in", str(src),
            "--ckpt", str(run_dir / "ckpt_000002"), "--out", str(dst),
        )
        assert code == 0
        assert "40 -> 80" in stdout
        dense = read_xyz(dst)
        assert dense.shape == (80, 3)
        assert np.isfinite(dense).all()

    def test_malformed_cloud_reports_line(self, capsys, run_dir, tmp_path):
        src = tmp_path / "bad.xyz"
        src.write_text("0 0 0\n1 2\n")
        code, _, err = run(
            capsys, "upsample", "--in", str(src),
            "--ckpt", str(run_dir / "ckpt_000002"), "--out", str(tmp_path / "o.xyz"),
        )
        assert code == 1
        assert ":2:" in err

    @pytest.mark.parametrize("overlap", ["0", "-2"])
    def test_overlap_below_one_is_usage_error(self, capsys, tmp_path, rng, overlap):
        # the checkpoint does not exist: loading it first would exit 1
        src = tmp_path / "cloud.xyz"
        write_xyz(src, rng.normal(size=(20, 3)))
        dst = tmp_path / "o.xyz"
        code, _, err = run(
            capsys, "upsample", "--in", str(src), "--ckpt", str(tmp_path / "nope"),
            "--out", str(dst), "--overlap", overlap,
        )
        assert code == 2
        assert "--overlap: must be at least 1" in err
        assert not dst.exists()

    def test_missing_checkpoint(self, capsys, tmp_path, rng):
        src = tmp_path / "cloud.xyz"
        write_xyz(src, rng.normal(size=(20, 3)))
        code, _, err = run(
            capsys, "upsample", "--in", str(src),
            "--ckpt", str(tmp_path / "nope"), "--out", str(tmp_path / "o.xyz"),
        )
        assert code == 1
        assert err.startswith("error:")


class TestEval:
    def test_cloud_against_itself(self, capsys, tmp_path, mesh_dir):
        mesh_path = mesh_dir / "tetra.off"
        mesh = load_mesh(mesh_path)
        samples = area_weighted_sample(mesh, 300, np.random.default_rng(0))
        cloud = tmp_path / "cloud.xyz"
        write_xyz(cloud, samples.positions)
        out = tmp_path / "report.csv"
        code, stdout, _ = run(
            capsys, "eval", "--pred", str(cloud), "--gt", str(cloud),
            "--mesh", str(mesh_path), "--out", str(out),
            "--subsets", "40", "--pool-size", "1500",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("name,cd,hd,p2f_mean,")
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["name"] == "cloud"
        assert float(row["cd"]) == 0.0
        assert float(row["hd"]) == 0.0
        # the 6-significant-digit .xyz round trip moves points ~1e-7 off
        # the surface
        assert float(row["p2f_mean"]) < 1e-5
        for key, value in row.items():
            if key.startswith("uni_"):
                assert np.isfinite(float(value))

    @pytest.mark.parametrize("flag, value, message", [
        ("--subsets", "0", "--subsets: must be at least 1"),
        ("--subsets", "-3", "--subsets: must be at least 1"),
        ("--pool-size", "1", "--pool-size: must be at least 2"),
    ])
    def test_bad_sizes_are_usage_errors(self, capsys, tmp_path, mesh_dir, flag, value, message):
        # the clouds do not exist: reading them first would exit 1
        out = tmp_path / "report.csv"
        code, _, err = run(
            capsys, "eval", "--pred", str(tmp_path / "nope.xyz"),
            "--gt", str(tmp_path / "nope.xyz"),
            "--mesh", str(mesh_dir / "tetra.off"), "--out", str(out), flag, value,
        )
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_missing_prediction_file(self, capsys, tmp_path, mesh_dir):
        code, _, err = run(
            capsys, "eval", "--pred", str(tmp_path / "nope.xyz"),
            "--gt", str(tmp_path / "nope.xyz"),
            "--mesh", str(mesh_dir / "tetra.off"), "--out", str(tmp_path / "o.csv"),
        )
        assert code == 1
        assert err.startswith("error:")


class TestUniformityDemo:
    def test_ordering_and_plots(self, capsys, tmp_path):
        out = tmp_path / "demo"
        code, stdout, _ = run(
            capsys, "uniformity-demo", "--out", str(out),
            "--points", "400", "--subsets", "30",
        )
        assert code == 0
        assert "ordering holds" in stdout
        for label in ("clustered", "random", "hexagonal"):
            assert (out / f"{label}.svg").is_file()

    @pytest.mark.parametrize("flag, value", [
        ("--points", "0"), ("--points", "-5"), ("--subsets", "0"), ("--subsets", "-1"),
    ])
    def test_bad_sizes_are_usage_errors(self, capsys, tmp_path, flag, value):
        out = tmp_path / "demo"
        code, stdout, err = run(capsys, "uniformity-demo", "--out", str(out), flag, value)
        assert code == 2
        assert f"{flag}: must be at least 1, got {value}" in err
        assert stdout == ""
        assert not out.exists()

    def test_default_625_points(self, capsys, tmp_path):
        code, stdout, _ = run(capsys, "uniformity-demo", "--out", str(tmp_path / "d"))
        assert code == 0
        assert "ordering holds" in stdout
