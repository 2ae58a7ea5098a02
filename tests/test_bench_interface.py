"""The names the benchmark in perfbench/ reads from pcup.

perfbench/ stays unchanged between benchmark revisions, so a rename in
pcup would otherwise show only as a crashed benchmark run. These tests
read perfbench/ and write nothing there (no bytecode either).
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

import pcup
import pcup.cli  # noqa: F401  (imports every module the tracer wraps)
from pcup import autodiff, losses
from pcup import training as tr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Import perfbench/<name>.py under a private name."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _resolve(module_name, attr):
    obj = getattr(pcup, module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _bindings(tracer_module):
    """Every name bound in a traced module, and every traced method."""
    out = {}
    for module_name, attrs in tracer_module.TRACED.items():
        module = getattr(pcup, module_name)
        out.update({(module_name, key): value for key, value in vars(module).items()})
        for attr in attrs:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                out[(module_name, attr)] = cls.__dict__[method]
    return out


def test_every_traced_name_resolves():
    tracer = _load("tracer")
    for module_name, attrs in tracer.TRACED.items():
        for attr in attrs:
            assert callable(_resolve(module_name, attr)), f"{module_name}.{attr}"


def test_install_and_uninstall_leave_bindings_as_they_were():
    tracer = _load("tracer")
    before = _bindings(tracer)
    t = tracer.Tracer()
    t.install(pcup)
    try:
        assert pcup.metrics.emd_exact is not before[("metrics", "emd_exact")]
        # the span the benchmark reports as metrics.emd_approx times the
        # matcher the reconstruction loss calls
        rng = np.random.default_rng(0)
        t.active = True
        losses.reconstruction_loss(autodiff.constant(rng.normal(size=(8, 3))),
                                   rng.normal(size=(8, 3)))
        t.active = False
        assert "metrics.emd_approx" in t.names
    finally:
        t.uninstall()
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_crop_counter_sums_the_uniformity_subsets_members():
    # the tracer's hook reads uniformity_subsets' return as (members, nn,
    # d_hat) tuples and counts the members. uniform_loss takes every crop
    # from one uniformity_crops call and never enters that span, so in
    # training the counter reads 0 and the crop time is uniform_loss's own
    tracer = _load("tracer")
    pts = np.random.default_rng(2).normal(size=(120, 3)) * 0.3
    _, _, subsets = pcup.metrics.uniformity_subsets(pts, 0.05, 8, 3)
    want = sum(len(members) for members, _, _ in subsets)
    t = tracer.Tracer()
    t.install(pcup)
    try:
        t.active = True
        pcup.metrics.uniformity_subsets(pts, 0.05, 8, 3)
        losses.uniform_loss(autodiff.constant(pts), pcup.metrics.P_VALUES, 8, seed=3)
        t.active = False
    finally:
        t.uninstall()
    assert t.names.count("metrics.uniformity_subsets") == 1
    assert t.counters["metrics.uniformity_subsets.members"] == want > 0


def test_oracle_reconstruction_call_is_the_assignment_optimum():
    rng = np.random.default_rng(1)
    out = rng.normal(size=(256, 3)) * 0.1
    target = rng.normal(size=(256, 3))
    cfg = tr.TrainConfig()
    node, _ = losses.reconstruction_loss(autodiff.constant(out), target, cfg.emd_epsilon)
    cost = float(node.value[0, 0])
    diff = out[:, None, :] - target[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    rows, cols = linear_sum_assignment(dist)
    optimum = float(dist[rows, cols].sum())
    assert abs(cost - optimum) <= 1e-9 * optimum


def test_training_check_passes_on_a_tiny_run(icosphere_mesh, tmp_path):
    oracles = _load("oracles")
    cfg = tr.TrainConfig(
        n_input=16, rate=2, patches_per_mesh=2, patch_fraction=0.05, pool_size=2000,
        batch_size=2, iterations=2, checkpoint_every=2, feature_channels=24,
        working_channels=8, group_k=8, regress_hidden=8, disc_point_channels=8,
        disc_global_channels=16, disc_head_hidden=8, uniform_seed_count=5, seed=0,
    )
    archive = tmp_path / "archive"
    pairs = tr.prepare_archive("ico", icosphere_mesh, cfg, archive, log=lambda m: None)
    tr.train(pairs, cfg, tmp_path / "run")
    oracles.check_training(str(tmp_path / "run"), str(archive), cfg.iterations)


def test_set_up_writes_a_checkpoint_that_upsamples(tmp_path, monkeypatch):
    # Run.set_up makes its config, generator and checkpoint through the
    # names it reads from pcup; `pcup upsample` then reads the checkpoint
    bench = _load("run")
    for name in ("inputs", "oracles"):
        monkeypatch.setitem(sys.modules, name, _load(name))
    run = bench.Run(bench.WORKLOADS["train_desk"], 1, tmp_path)
    run.set_up()
    gparams, dparams, cfg = tr.load_checkpoint(str(run.checkpoint))
    assert dparams is None
    assert (cfg.n_input, cfg.rate) == (run.w.upsample_n, bench.RATE)
    assert pcup.cli.main(run.argv("upsample")) == 0
    run.check("upsample")
