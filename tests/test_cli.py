"""End-to-end command-line behavior: exit codes, file outputs, and the
prepare -> train -> upsample -> eval chain on a tiny workload."""

import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import helpers
import pcup
from pcup import autodiff as ad
from pcup import training
from pcup.cli import main
from pcup.geometry import read_xyz, write_xyz
from pcup.mesh import area_weighted_sample, load_mesh
from pcup.training import TrainConfig, load_checkpoint, read_archive


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


def config_with(line):
    """CONFIG_TINY with `line` in place of the line of its key, which a
    config may give only once."""
    key = line.split("=")[0].strip()
    kept = [old for old in CONFIG_TINY.splitlines() if old.split("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


# the least value a size flag accepts where it is not 1
LEAST = {"--seed": 0}

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

MALFORMED_HEADERS = [pytest.param(*case[1:], id=case[0])
                     for case in helpers.malformed_mesh_headers()]
MALFORMED_ARRAYS = [pytest.param(*case[1:], id=case[0])
                    for case in helpers.malformed_mesh_arrays()]


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
        ("--pool-size", "0"), ("--pool-size", "-5"), ("--seed", "-1"),
    ])
    def test_bad_sizes_are_usage_errors(self, capsys, tmp_path, mesh_dir, flag, value):
        # rejected while parsing, before any mesh is loaded or sampled
        out = tmp_path / "archive"
        code, stdout, err = run(capsys, "prepare", "--meshes", str(mesh_dir),
                                "--out", str(out), flag, value)
        assert code == 2
        assert f"{flag}: must be at least {LEAST.get(flag, 1)}, got {value}" in err
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

    def test_fraction_without_a_finite_pool_exits_1(self, capsys, tmp_path, mesh_dir):
        # the pool of 5 x 1024 target points / 1e-320 overflows to infinity,
        # whose ceil() used to escape main as an OverflowError traceback
        out = tmp_path / "archive"
        code, stdout, err = run(capsys, "prepare", "--meshes", str(mesh_dir),
                                "--out", str(out), "--fraction", "1e-320")
        assert code == 1
        assert err.splitlines() == ["error: patch_fraction must leave a pool of 5 x 1024 "
                                    "target points / patch_fraction whose samples fit numpy's "
                                    "maximum array size, got 1e-320"]
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e-300", "1e-15"])
    def test_fraction_beyond_numpy_array_size_exits_1(self, capsys, tmp_path, mesh_dir, value):
        # the pool of 5 x 1024 target points / value is finite, but its
        # (pool, 3, 3) float64 triangle corners pass numpy's maximum array
        # size: 1e-300 overflowed the int64 of Generator.choice, and 1e-15
        # (5.12e18 points, within int64) printed numpy's "array is too big"
        # and then "no mesh produced a usable patch set"
        out = tmp_path / "archive"
        code, stdout, err = run(capsys, "prepare", "--meshes", str(mesh_dir),
                                "--out", str(out), "--fraction", value)
        assert code == 1
        assert err.splitlines() == ["error: patch_fraction must leave a pool of 5 x 1024 "
                                    "target points / patch_fraction whose samples fit numpy's "
                                    f"maximum array size, got {value}"]
        assert stdout == ""
        assert not out.exists()

    def test_out_of_memory_exits_1(self, capsys, tmp_path, mesh_dir, monkeypatch):
        # a pool too large for memory, as at --fraction 1e-9, used to escape
        # main as a MemoryError traceback; Python's own has no message
        def out_of_memory(mesh, n, rng):
            raise MemoryError()

        monkeypatch.setattr(training, "area_weighted_sample", out_of_memory)
        out = tmp_path / "archive"
        code, stdout, err = run(capsys, "prepare", "--meshes", str(mesh_dir), "--out", str(out),
                                *PREPARE_TINY, "--pool-size", "4000")
        assert code == 1
        assert err.splitlines() == ["error: MemoryError"]
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

    def test_out_holding_an_archive_is_refused(self, capsys, tmp_path, mesh_dir):
        # an icosphere archive at N=32, then a tetrahedron into the same
        # --out at N=16: train would read both meshes' patches
        ico, tetra = tmp_path / "ico", tmp_path / "tetra"
        for d, name in ((ico, "icosphere.ply"), (tetra, "tetra.off")):
            d.mkdir()
            (d / name).write_bytes((mesh_dir / name).read_bytes())
        out = tmp_path / "arch"
        code, _, _ = run(capsys, "prepare", "--meshes", str(ico), "--out", str(out),
                         *PREPARE_TINY, "--N", "32")
        assert code == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        code, stdout, err = run(capsys, "prepare", "--meshes", str(tetra), "--out", str(out),
                                *PREPARE_TINY)
        assert code == 1
        assert stdout == ""
        assert err == f"error: {out}: already holds a patch archive; " \
                      "prepare into a new or empty directory\n"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(CONFIG_TINY.replace("n_input = 16", "n_input = 32"))
        code, stdout, _ = run(capsys, "train", "--data", str(out), "--out", str(tmp_path / "run"),
                              "--config", str(cfg_path))
        assert code == 0
        assert "trained 2 iterations on 4 patches" in stdout

    # a mesh named .tetra.off gets the directory .tetra
    @pytest.mark.parametrize("leftover", ["config.txt", "tetra/meta.json", ".tetra/meta.json"])
    def test_out_holding_part_of_an_archive_is_refused(self, capsys, tmp_path, leftover):
        # refused before the (missing) mesh directory is even looked at
        (tmp_path / leftover).parent.mkdir(exist_ok=True)
        (tmp_path / leftover).write_text("")
        code, _, err = run(capsys, "prepare", "--meshes", str(tmp_path / "nope"),
                           "--out", str(tmp_path))
        assert code == 1
        assert err.startswith(f"error: {tmp_path}: already holds a patch archive")

    def test_existing_empty_out_is_accepted(self, capsys, tmp_path, mesh_dir):
        out = tmp_path / "arch"
        out.mkdir()
        code, stdout, _ = run(capsys, "prepare", "--meshes", str(mesh_dir), "--out", str(out),
                              *PREPARE_TINY)
        assert code == 0
        assert "tetra: 4 patches" in stdout
        assert (out / "config.txt").is_file()

    @pytest.mark.parametrize("first, second", [("bunny.off", "bunny.ply"),
                                               ("a b.off", "a_b.off")])
    def test_mesh_named_like_an_earlier_one_is_refused(self, capsys, tmp_path, mesh_dir,
                                                       first, second):
        # both names map to one mesh directory; the second mesh used to
        # overwrite the first one's patches
        src, alone = tmp_path / "meshes", tmp_path / "alone"
        src.mkdir()
        alone.mkdir()
        for d in (src, alone):
            (d / first).write_bytes((mesh_dir / "tetra.off").read_bytes())
        suffix = os.path.splitext(second)[1]
        (src / second).write_bytes((mesh_dir / f"icosphere{suffix}").read_bytes()
                                   if suffix == ".ply" else
                                   (mesh_dir / "tetra.off").read_bytes())
        out, want = tmp_path / "arch", tmp_path / "want"
        code, stdout, err = run(capsys, "prepare", "--meshes", str(src), "--out", str(out),
                                *PREPARE_TINY)
        stem = os.path.splitext(first)[0]
        mesh_out = out / stem.replace(" ", "_")
        assert code == 1
        assert stdout == f"{stem}: 4 patches\n"
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {second}: {mesh_out}: already exists; each mesh of an archive needs "
            "a name of its own"]
        assert run(capsys, "prepare", "--meshes", str(alone), "--out", str(want),
                   *PREPARE_TINY)[0] == 0
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert files == {p.relative_to(want): p.read_bytes()
                         for p in want.rglob("*") if p.is_file()}

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


    @pytest.mark.parametrize("name, text, lineno, message", MALFORMED_HEADERS)
    def test_malformed_header_exits_1_naming_file_and_line(self, capsys, tmp_path, mesh_dir,
                                                           name, text, lineno, message):
        src = tmp_path / "meshes"
        src.mkdir()
        (src / "tetra.off").write_bytes((mesh_dir / "tetra.off").read_bytes())
        (src / name).write_text(text)
        code, stdout, err = run(capsys, "prepare", "--meshes", str(src),
                                "--out", str(tmp_path / "arch"), *PREPARE_TINY)
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {name}: {src / name}:{lineno}: {message}"]
        assert "tetra: 4 patches" in stdout

    @pytest.mark.parametrize("name, text, lineno, message", MALFORMED_ARRAYS)
    def test_malformed_arrays_exit_1_naming_file(self, capsys, tmp_path, mesh_dir, name, text,
                                                 lineno, message):
        src = tmp_path / "meshes"
        src.mkdir()
        (src / "tetra.off").write_bytes((mesh_dir / "tetra.off").read_bytes())
        (src / name).write_text(text)
        code, stdout, err = run(capsys, "prepare", "--meshes", str(src),
                                "--out", str(tmp_path / "arch"), *PREPARE_TINY)
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        where = f"{src / name}:{lineno}" if lineno else f"{src / name}"
        assert errors == [f"error: {name}: {where}: {message}"]
        assert "tetra: 4 patches" in stdout


class TestMeshFormat:
    """The same vertices and faces, written as OFF and as PLY under one
    stem, give the same archive and the same report."""

    def test_archive_and_report_do_not_depend_on_the_format(self, capsys, tmp_path):
        verts, faces = helpers.tetrahedron()
        cloud = tmp_path / "cloud.xyz"
        results = []
        for suffix, text in ((".off", helpers.off_text), (".ply", helpers.ply_text)):
            side = tmp_path / suffix[1:]
            (side / "meshes").mkdir(parents=True)
            mesh_path = side / "meshes" / f"shape{suffix}"
            mesh_path.write_text(text(verts, faces))
            if not cloud.exists():
                write_xyz(cloud, area_weighted_sample(load_mesh(mesh_path), 300, 0).positions)
            code, prepared, logged = run(capsys, "prepare", "--meshes", str(side / "meshes"),
                                         "--out", str(side / "arch"), *PREPARE_TINY)
            assert code == 0
            archive = {p.relative_to(side / "arch"): p.read_bytes()
                       for p in (side / "arch").rglob("*") if p.is_file()}
            code, evaluated, err = run(capsys, "eval", "--pred", str(cloud), "--gt", str(cloud),
                                       "--mesh", str(mesh_path), "--out", str(side / "r.csv"),
                                       "--subsets", "20", "--pool-size", "500")
            assert (code, err) == (0, "")
            results.append((archive, prepared, logged, (side / "r.csv").read_bytes(), evaluated))
        assert len(results[0][0]) > 2
        assert results[0] == results[1]


class TestTrain:
    def test_missing_data_dir_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "missing"),
                           "--out", str(tmp_path / "run"))
        assert code == 2
        assert "no such data directory" in err

    @pytest.mark.parametrize("flag, value", [
        ("--iterations", "0"), ("--iterations", "-1"), ("--batch", "0"), ("--batch", "-2"),
        ("--seed", "-1"),
    ])
    def test_bad_sizes_are_usage_errors(self, capsys, archive, tmp_path, flag, value):
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(archive),
                                "--out", str(out), flag, value)
        assert code == 2
        assert f"{flag}: must be at least {LEAST.get(flag, 1)}, got {value}" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("batch_size = 0", "batch_size must be at least 1, got 0"),
        ("iterations = -1", "training needs at least 1 iteration, got -1"),
    ])
    def test_config_without_an_iteration_exits_1(self, capsys, archive, tmp_path, line, message):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(config_with(line))
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(archive), "--out", str(out),
                                "--config", str(cfg_path))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("key", ["checkpoint_every", "uniform_seed_count"])
    def test_config_zero_period_or_count_exits_1(self, capsys, archive, tmp_path, key):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(config_with(f"{key} = 0"))
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(archive), "--out", str(out),
                                "--config", str(cfg_path))
        assert code == 1
        assert err == f"error: {key} must be at least 1, got 0\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("patch_fraction = nan", "patch_fraction must be in (0, 0.5), got nan"),
        ("patch_fraction = 0.9", "patch_fraction must be in (0, 0.5), got 0.9"),
        ("patch_fraction = 0.0", "patch_fraction must be in (0, 0.5), got 0.0"),
        ("pool_size = 0", "pool_size must be at least 1, got 0"),
        ("patches_per_mesh = 0", "patches_per_mesh must be at least 1, got 0"),
        ("group_k = 0", "group_k must be in 1..n_input = 16, got 0"),
    ])
    def test_config_value_prepare_refuses_exits_1(self, capsys, archive, tmp_path, line,
                                                   message):
        # pcup prepare's flags refuse each of these; a config file gives
        # the same refusal, naming the key
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(config_with(line))
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(archive), "--out", str(out),
                                "--config", str(cfg_path))
        assert code == 1
        assert err == f"error: {message}\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("n_input", [8, 32])
    def test_config_patch_size_mismatch_exits_1(self, capsys, archive, tmp_path, n_input):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(CONFIG_TINY.replace("n_input = 16", f"n_input = {n_input}"))
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(archive), "--out", str(out),
                                "--config", str(cfg_path))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: patch ")
        assert f"holds 32 target points, but rate 2 x n_input {n_input} needs {2 * n_input}" in err
        assert stdout == ""
        assert not out.exists()

    def test_config_group_k_above_n_input_exits_1(self, capsys, archive, tmp_path):
        # refused before losses.csv is written, so the same --out can be reused
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(CONFIG_TINY.replace("group_k = 8", "group_k = 32"))
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(archive), "--out", str(out),
                                "--config", str(cfg_path))
        assert code == 1
        assert err == "error: group_k must be in 1..n_input = 16, got 32\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("line, key", [
        ("feature_channels = 0", "feature_channels"),
        ("feature_channels = -3", "feature_channels"),
        ("working_channels = 0", "working_channels"),
        ("regress_hidden = 0", "regress_hidden"),
        ("disc_head_hidden = 0", "disc_head_hidden"),
    ])
    def test_config_width_below_one_exits_1(self, capsys, archive, tmp_path, line, key):
        # was a ZeroDivisionError or numpy traceback after --out was made,
        # or for regress_hidden a run without complaint
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(config_with(line))
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(archive), "--out", str(out),
                                "--config", str(cfg_path))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {key} must be ")
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("how", [["--ablate", "fps"], ["--baseline"], ["ablate_fps = true"]])
    def test_rate_one_without_fps_trim_exits_1(self, capsys, tmp_path, mesh_dir, how):
        # the generator would then expand each point by 1, which it refuses;
        # that used to happen after losses.csv was written, so a retry into
        # the same --out was refused as a run already there
        meshes = tmp_path / "meshes"
        meshes.mkdir()
        (meshes / "tetra.off").write_bytes((mesh_dir / "tetra.off").read_bytes())
        data = tmp_path / "archive"
        prepare = PREPARE_TINY[:]
        prepare[prepare.index("--r") + 1] = "1"
        assert main(["prepare", "--meshes", str(meshes), "--out", str(data)] + prepare) == 0
        cfg_path = tmp_path / "config.txt"
        lines = [config_with("rate = 1")] + [line + "\n" for line in how if "=" in line]
        cfg_path.write_text("".join(lines))
        flags = [flag for flag in how if "=" not in flag]
        capsys.readouterr()
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(data), "--out", str(out),
                                "--config", str(cfg_path), *flags)
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "rate" in err and "ablate_fps" in err
        assert not (out / "losses.csv").exists()

    def test_non_ascii_config_exits_1_naming_the_file(self, capsys, archive, tmp_path):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_bytes(CONFIG_TINY.encode("ascii") + b"\xff\n")
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(archive), "--out", str(out),
                                "--config", str(cfg_path))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {cfg_path}: ")
        assert stdout == ""
        assert not out.exists()

    def test_out_holding_a_run_is_refused(self, capsys, archive, tmp_path):
        # 4 iterations, then 2 into the same --out: the new ckpt_000002
        # would sit beside the old run's ckpt_000004
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(CONFIG_TINY)
        out = tmp_path / "run"
        code, _, _ = run(capsys, "train", "--data", str(archive), "--out", str(out),
                         "--config", str(cfg_path), "--iterations", "4")
        assert code == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        code, stdout, err = run(capsys, "train", "--data", str(archive), "--out", str(out),
                                "--config", str(cfg_path), "--iterations", "2", "--seed", "1")
        assert code == 1
        assert stdout == ""
        assert err == f"error: {out}: already holds a training run; " \
                      "train into a new or empty directory\n"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert sorted(p.name for p in out.iterdir()) == ["ckpt_000002", "ckpt_000004",
                                                         "losses.csv"]

    @pytest.mark.parametrize("case, message", [
        ("without patches", "manifest lacks key 'patches'"),
        ("a list", "malformed manifest: list indices must be integers"),
        ("without a centroid", "manifest lacks key 'centroid'"),
    ])
    def test_malformed_manifest_exits_1_naming_the_file(self, capsys, archive, tmp_path,
                                                         case, message):
        # each used to end `pcup train` in a KeyError or TypeError traceback
        data = tmp_path / "archive"
        shutil.copytree(archive, data)
        meta = sorted(data.glob("*/meta.json"))[0]
        manifest = json.loads(meta.read_text())
        if case == "without patches":
            del manifest["patches"]
        elif case == "a list":
            manifest = list(manifest)
        else:
            del manifest["patches"][0]["centroid"]
        meta.write_text(json.dumps(manifest))
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(data), "--out", str(out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {meta}: {message}")
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        # a float index used to read as the patch below it, so that patch
        # trained twice; the others were accepted as they stood
        ("index", 3.9), ("index", True), ("index", "repeat"), ("centroid", ["a", "b"]),
        ("scale", -3.0), ("scale", float("nan")),
    ], ids=["float-index", "bool-index", "repeated-index", "centroid-of-strings",
            "negative-scale", "nan-scale"])
    def test_bad_patch_record_exits_1_naming_the_file(self, capsys, archive, tmp_path,
                                                       field, value):
        data = tmp_path / "archive"
        shutil.copytree(archive, data)
        meta = sorted(data.glob("*/meta.json"))[0]
        manifest = json.loads(meta.read_text())
        rec = manifest["patches"][1]
        rec[field] = manifest["patches"][0]["index"] if value == "repeat" else value
        meta.write_text(json.dumps(manifest))
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(data), "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err == (f"error: {meta}: malformed manifest: patch record {rec}: needs an "
                       "unused integer index >= 0, a centroid of 3 finite numbers and a "
                       "finite scale > 0\n")
        assert not (out / "losses.csv").exists()

    @pytest.mark.parametrize("leftover", ["losses.csv", "ckpt_000002/", "ckpt_partial"])
    def test_out_holding_part_of_a_run_is_refused(self, capsys, tmp_path, leftover):
        # refused before the (missing) archive is even looked at
        out = tmp_path / "run"
        out.mkdir()
        if leftover.endswith("/"):
            (out / leftover).mkdir()
        else:
            (out / leftover).write_text("")
        code, stdout, err = run(capsys, "train", "--data", str(tmp_path / "nope"),
                                "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {out}: already holds a training run")

    def test_existing_empty_out_is_accepted(self, capsys, archive, tmp_path):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(CONFIG_TINY)
        out = tmp_path / "run"
        out.mkdir()
        code, stdout, _ = run(capsys, "train", "--data", str(archive), "--out", str(out),
                              "--config", str(cfg_path))
        assert code == 0
        assert "trained 2 iterations" in stdout
        assert (out / "ckpt_000002" / "generator.params").is_file()

    def test_seed_flag_overrides_the_config_seed(self, capsys, archive, tmp_path):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(config_with("seed = 5"))
        out = tmp_path / "run"
        code, _, _ = run(capsys, "train", "--data", str(archive), "--out", str(out),
                         "--config", str(cfg_path), "--iterations", "1")
        assert code == 0
        saved = (out / "ckpt_000001" / "config.txt").read_text().splitlines()
        assert "seed = 0" in saved

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

    def test_non_ascii_cloud_exits_1_naming_the_file(self, capsys, run_dir, tmp_path):
        src = tmp_path / "bad.xyz"
        src.write_bytes(b"\xff\x00\n1 2 3\n")
        dst = tmp_path / "o.xyz"
        code, _, err = run(
            capsys, "upsample", "--in", str(src),
            "--ckpt", str(run_dir / "ckpt_000002"), "--out", str(dst),
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {src}: ")
        assert not dst.exists()

    @pytest.mark.parametrize("line", ["grid_extent = 0.3", "w_uniform = 1.0", "graph_k = 12",
                                      "lr_decay_every = 0", "p_values = 0.004"])
    def test_retired_key_at_another_value_exits_1(self, capsys, run_dir, tmp_path, rng, line):
        # a checkpoint trained with another value would run a different model
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir / "ckpt_000002", ckpt)
        with open(ckpt / "config.txt", "a", encoding="ascii") as fh:
            fh.write(line + "\n")
        src = tmp_path / "cloud.xyz"
        write_xyz(src, rng.normal(size=(20, 3)))
        dst = tmp_path / "o.xyz"
        code, _, err = run(
            capsys, "upsample", "--in", str(src), "--ckpt", str(ckpt), "--out", str(dst),
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        key = line.split()[0]
        assert err.startswith(f"error: {ckpt / 'config.txt'} line ")
        assert f": {key} is fixed at " in err
        assert not dst.exists()

    def test_rate_one_without_fps_trim_exits_1(self, capsys, run_dir, tmp_path, rng):
        # the generator would expand each point by 1; init_generator refuses
        # that when load_checkpoint builds the model
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir / "ckpt_000002", ckpt)
        text = (ckpt / "config.txt").read_text()
        text = text.replace("rate = 2\n", "rate = 1\n")
        text = text.replace("ablate_fps = false\n", "ablate_fps = true\n")
        assert "\nrate = 1\n" in text and "\nablate_fps = true\n" in text
        (ckpt / "config.txt").write_text(text)
        src = tmp_path / "cloud.xyz"
        write_xyz(src, rng.normal(size=(20, 3)))
        dst = tmp_path / "o.xyz"
        code, stdout, err = run(
            capsys, "upsample", "--in", str(src), "--ckpt", str(ckpt), "--out", str(dst),
        )
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "rate" in err and "ablate_fps" in err
        assert not dst.exists()

    @pytest.mark.parametrize("line", ["feature_channels = 0", "working_channels = 0",
                                      "disc_global_channels = 0", "regress_hidden = -1",
                                      "n_input = 0", "n_input = -3", "rate = 0"])
    def test_config_value_no_run_can_use_exits_1(self, capsys, run_dir, tmp_path, rng, line):
        # building the networks used to end in a ZeroDivisionError traceback
        # from glorot_uniform, or numpy's "negative dimensions are not allowed";
        # n_input = 0 in one from upsample_cloud, n_input = -3 in a knn error
        # and rate = 0 in a parameter shape error, neither naming the key
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir / "ckpt_000002", ckpt)
        assert (ckpt / "discriminator.params").is_file()
        key = line.split()[0]
        text, count = re.subn(rf"^{key} = .*$", line, (ckpt / "config.txt").read_text(),
                              flags=re.M)
        assert count == 1
        (ckpt / "config.txt").write_text(text)
        src = tmp_path / "cloud.xyz"
        write_xyz(src, rng.normal(size=(20, 3)))
        dst = tmp_path / "o.xyz"
        code, stdout, err = run(
            capsys, "upsample", "--in", str(src), "--ckpt", str(ckpt), "--out", str(dst),
        )
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {key} must be ")
        assert not dst.exists()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the generator runs in worker processes only under fork")
    @pytest.mark.parametrize("failure, message", [
        ("raise", "generator failed"),
        ("exit", "A process in the process pool was terminated abruptly while the future "
                 "was running or pending."),
    ], ids=["raise", "exit"])
    def test_failing_worker_exits_1_leaving_no_process(self, capsys, run_dir, tmp_path, rng,
                                                       monkeypatch, failure, message):
        def failing(params, cfg, stack):
            if failure == "exit":
                os._exit(3)
            raise RuntimeError("generator failed")

        # 40 points make 8 patches, on two workers whatever this machine has
        monkeypatch.setattr(training, "generate", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        src = tmp_path / "cloud.xyz"
        write_xyz(src, rng.normal(size=(40, 3)))
        dst = tmp_path / "o.xyz"
        code, stdout, err = run(
            capsys, "upsample", "--in", str(src),
            "--ckpt", str(run_dir / "ckpt_000002"), "--out", str(dst),
        )
        assert code == 1
        assert stdout == ""
        assert err.splitlines() == [f"error: {message}"]
        assert not dst.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("lookup", ["no symbol", "no library"])
    def test_numpy_without_its_openblas_exits_1(self, capsys, run_dir, tmp_path, rng,
                                                monkeypatch, lookup):
        # the generator's bits depend on the BLAS thread count, so upsample
        # refuses to run at the library's default count
        def cdll(path):
            if lookup == "no library":
                raise OSError(f"{path}: cannot open shared object file")
            return object()

        monkeypatch.setattr(training.ctypes, "CDLL", cdll)
        src = tmp_path / "cloud.xyz"
        write_xyz(src, rng.normal(size=(20, 3)))
        dst = tmp_path / "o.xyz"
        code, stdout, err = run(
            capsys, "upsample", "--in", str(src),
            "--ckpt", str(run_dir / "ckpt_000002"), "--out", str(dst),
        )
        assert code == 1
        assert stdout == ""
        assert err.splitlines() == ["error: cannot run numpy's BLAS at one thread: numpy's "
                                    "bundled OpenBLAS (scipy_openblas_set_num_threads64_) "
                                    "was not found"]
        assert not dst.exists()

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

    def test_malformed_checkpoint_header_exits_1(self, capsys, run_dir, tmp_path, rng):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir / "ckpt_000002", ckpt)
        (ckpt / "generator.params").write_bytes(b"PCUP-PARAMS-1\nDATA\n")
        src = tmp_path / "cloud.xyz"
        write_xyz(src, rng.normal(size=(20, 3)))
        code, _, err = run(
            capsys, "upsample", "--in", str(src),
            "--ckpt", str(ckpt), "--out", str(tmp_path / "o.xyz"),
        )
        assert code == 1
        assert err == f"error: {ckpt / 'generator.params'}: malformed header\n"

    @pytest.mark.parametrize("params_file", ["generator.params", "discriminator.params"])
    def test_renamed_parameter_exits_1_naming_the_file(self, capsys, run_dir, tmp_path, rng,
                                                       params_file):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir / "ckpt_000002", ckpt)
        path = ckpt / params_file
        raw = path.read_bytes()
        header = raw[:raw.index(b"\nDATA\n")]
        path.write_bytes(header.replace(b".w ", b".X ", 1) + raw[len(header):])
        src, dst = tmp_path / "cloud.xyz", tmp_path / "o.xyz"
        write_xyz(src, rng.normal(size=(20, 3)))
        code, stdout, err = run(capsys, "upsample", "--in", str(src), "--ckpt", str(ckpt),
                                "--out", str(dst))
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: parameter name mismatch: missing=[")
        assert err.endswith(".X']\n")
        assert not dst.exists()

    def test_checkpoint_with_attention_key_biases_exits_1_naming_them(
            self, capsys, run_dir, tmp_path, rng):
        # checkpoints written while the attention's H map had a bias hold
        # one per attention block; they are refused, not converted
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir / "ckpt_000002", ckpt)
        path = ckpt / "generator.params"
        old = ad.Params()
        for name, value in ad.load_params(path).items():
            old.add(name, value)
            if name.endswith(".attn.h.w"):
                old.add(name[:-1] + "b", np.zeros((1, value.shape[1])))
        ad.save_params(old, path)
        src, dst = tmp_path / "cloud.xyz", tmp_path / "o.xyz"
        write_xyz(src, rng.normal(size=(20, 3)))
        code, stdout, err = run(capsys, "upsample", "--in", str(src), "--ckpt", str(ckpt),
                                "--out", str(dst))
        assert code == 1
        assert stdout == ""
        assert err == (f"error: {path}: parameter name mismatch: missing=[] "
                       "extra=['expand.up1.attn.h.b', 'expand.up2.attn.h.b']\n")
        assert not dst.exists()

    def test_config_width_that_disagrees_exits_1_naming_the_params_file(
            self, capsys, run_dir, tmp_path, rng):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir / "ckpt_000002", ckpt)
        cfg_path = ckpt / "config.txt"
        cfg_path.write_text(cfg_path.read_text().replace("working_channels = 8",
                                                         "working_channels = 16"))
        src, dst = tmp_path / "cloud.xyz", tmp_path / "o.xyz"
        write_xyz(src, rng.normal(size=(20, 3)))
        code, stdout, err = run(capsys, "upsample", "--in", str(src), "--ckpt", str(ckpt),
                                "--out", str(dst))
        assert code == 1
        assert stdout == ""
        assert re.fullmatch(rf"error: {re.escape(str(ckpt / 'generator.params'))}: "
                            r"parameter '[\w.]+': shape \(\d+, \d+\) != \(\d+, \d+\)\n", err)
        assert not dst.exists()

    def test_empty_cloud_exits_1_naming_it_before_the_checkpoint(self, capsys, tmp_path):
        src = tmp_path / "empty.xyz"
        src.write_text("# no points\n")
        dst = tmp_path / "o.xyz"
        code, stdout, err = run(capsys, "upsample", "--in", str(src),
                                "--ckpt", str(tmp_path / "nope"), "--out", str(dst))
        assert code == 1
        assert stdout == ""
        assert err == f"error: {src}: the --in cloud holds no points\n"
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


class TestWrittenConfigsLoad:
    """Every config pcup writes loads again: the config's own rules hold
    for any archive or checkpoint that prepare or train wrote."""

    def test_archive_with_group_k_above_n_input(self, capsys, tmp_path, mesh_dir):
        # prepare --N 8 writes the default group_k of 16; the archive loads,
        # and train refuses the group only when the patch is too small
        meshes = tmp_path / "meshes"
        meshes.mkdir()
        (meshes / "tetra.off").write_bytes((mesh_dir / "tetra.off").read_bytes())
        data = tmp_path / "archive"
        prepare = PREPARE_TINY[:]
        prepare[prepare.index("--N") + 1] = "8"
        assert main(["prepare", "--meshes", str(meshes), "--out", str(data)] + prepare) == 0
        pairs, cfg = read_archive(data)
        assert (cfg.n_input, cfg.group_k) == (8, 16)
        assert {len(pair.target) for pair in pairs} == {16}
        capsys.readouterr()
        code, stdout, err = run(capsys, "train", "--data", str(data),
                                "--out", str(tmp_path / "refused"))
        assert code == 1
        assert err == "error: group_k must be in 1..n_input = 8, got 16\n"
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(config_with("n_input = 8"))
        assert "group_k = 8\n" in cfg_path.read_text()
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "train", "--data", str(data), "--out", str(out),
                                "--config", str(cfg_path), "--iterations", "1")
        assert code == 0, err
        assert load_checkpoint(out / "ckpt_000001")[2] == replace(
            TrainConfig.load(cfg_path), iterations=1)

    @pytest.mark.parametrize("ablate", [[], ["--ablate", "discriminator"]])
    def test_trained_checkpoint(self, capsys, archive, tmp_path, rng, ablate):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(CONFIG_TINY)
        out = tmp_path / "run"
        code, _, err = run(capsys, "train", "--data", str(archive), "--out", str(out),
                           "--config", str(cfg_path), "--iterations", "1", *ablate)
        assert code == 0, err
        ckpt = out / "ckpt_000001"
        _, dparams, cfg = load_checkpoint(ckpt)
        assert cfg == TrainConfig.load(ckpt / "config.txt")
        assert cfg == replace(TrainConfig.load(cfg_path), iterations=1,
                              ablate_discriminator=bool(ablate))
        assert (dparams is None) == bool(ablate)
        src = tmp_path / "cloud.xyz"
        write_xyz(src, rng.normal(size=(20, 3)))
        code, _, err = run(capsys, "upsample", "--in", str(src), "--ckpt", str(ckpt),
                           "--out", str(tmp_path / "dense.xyz"))
        assert code == 0, err


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
        ("--seed", "-1", "--seed: must be at least 0"),
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

    @pytest.mark.parametrize("label, flags", [
        pytest.param("a,b", ["--name", "a,b"], id="comma"),
        pytest.param("x\ny", ["--name", "x\ny"], id="line-break"),
        pytest.param("\u00e9", ["--name", "\u00e9"], id="non-ascii"),
        pytest.param("a,b", [], id="pred-file-name"),  # the default label
    ])
    def test_label_that_would_break_the_csv_exits_1(self, capsys, tmp_path, mesh_dir,
                                                     label, flags):
        mesh_path = mesh_dir / "tetra.off"
        samples = area_weighted_sample(load_mesh(mesh_path), 300, np.random.default_rng(0))
        cloud = tmp_path / "a,b.xyz"
        write_xyz(cloud, samples.positions)
        out = tmp_path / "report.csv"
        code, stdout, err = run(
            capsys, "eval", "--pred", str(cloud), "--gt", str(cloud),
            "--mesh", str(mesh_path), "--out", str(out),
            "--subsets", "20", "--pool-size", "500", *flags,
        )
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: report label {label!r} ")
        assert "--name" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--pred", "--gt"])
    def test_empty_cloud_exits_1_naming_it_before_the_mesh(self, capsys, tmp_path, rng, flag):
        empty = tmp_path / "empty.xyz"
        empty.write_text("")
        cloud = tmp_path / "cloud.xyz"
        write_xyz(cloud, rng.normal(size=(20, 3)))
        clouds = {"--pred": cloud, "--gt": cloud, flag: empty}
        out = tmp_path / "report.csv"
        code, stdout, err = run(
            capsys, "eval", "--pred", str(clouds["--pred"]), "--gt", str(clouds["--gt"]),
            "--mesh", str(tmp_path / "nope.off"), "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert err == f"error: {empty}: the {flag} cloud holds no points\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, text, lineno, message", MALFORMED_HEADERS)
    def test_malformed_mesh_header_exits_1_naming_file_and_line(self, capsys, tmp_path, rng,
                                                                name, text, lineno, message):
        mesh_path = tmp_path / name
        mesh_path.write_text(text)
        cloud = tmp_path / "cloud.xyz"
        write_xyz(cloud, rng.normal(size=(20, 3)))
        out = tmp_path / "report.csv"
        code, stdout, err = run(capsys, "eval", "--pred", str(cloud), "--gt", str(cloud),
                                "--mesh", str(mesh_path), "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err == f"error: {mesh_path}:{lineno}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, text, lineno, message", MALFORMED_ARRAYS)
    def test_malformed_mesh_arrays_exit_1_naming_file(self, capsys, tmp_path, rng, name, text,
                                                      lineno, message):
        mesh_path = tmp_path / name
        mesh_path.write_text(text)
        cloud = tmp_path / "cloud.xyz"
        write_xyz(cloud, rng.normal(size=(20, 3)))
        out = tmp_path / "report.csv"
        code, stdout, err = run(capsys, "eval", "--pred", str(cloud), "--gt", str(cloud),
                                "--mesh", str(mesh_path), "--out", str(out))
        assert code == 1
        assert stdout == ""
        where = f"{mesh_path}:{lineno}" if lineno else f"{mesh_path}"
        assert err == f"error: {where}: {message}\n"
        assert not out.exists()

    def test_missing_prediction_file(self, capsys, tmp_path, mesh_dir):
        code, _, err = run(
            capsys, "eval", "--pred", str(tmp_path / "nope.xyz"),
            "--gt", str(tmp_path / "nope.xyz"),
            "--mesh", str(mesh_dir / "tetra.off"), "--out", str(tmp_path / "o.csv"),
        )
        assert code == 1
        assert err.startswith("error:")
