"""Span tracing of pcup's public functions, installed from outside the
package.

`Tracer.install` replaces each traced function in every pcup module
namespace that binds it (``farthest_point_sampling`` is bound in
geometry, networks, metrics and training) and each traced method on its
class. A wrapper records nothing unless the tracer is active, so set-up
and output checks stay out of the spans. Spans (name, start, end,
parent) are kept in memory and written out once, when the run ends.
"""

import functools
import json
import time
from collections import defaultdict

import numpy as np

# module -> public functions or Class.method traced in it
TRACED = {
    "cli": ["main"],
    "training": ["prepare_archive", "read_archive", "train", "upsample_cloud",
                 "load_checkpoint"],
    "networks": ["generate_node", "discriminate_node"],
    "autodiff": ["backward", "adam_step"],
    "losses": ["uniform_loss", "reconstruction_loss"],
    "metrics": ["emd_approx", "uniformity_subsets", "point_to_surface_stats",
                "uniformity_report_mesh", "chamfer_distance", "hausdorff_distance"],
    "geometry": ["pairwise_distances", "farthest_point_sampling", "SpatialIndex.knn",
                 "SpatialIndex.ball_query", "read_xyz", "write_xyz"],
    "mesh": ["load_mesh", "area_weighted_sample", "poisson_disk_sample", "PatchGrower.grow"],
}


def _extent(points):
    pts = np.asarray(points)
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def _fps_picks(tracer, args, kwargs, result):
    tracer.counters["geometry.farthest_point_sampling.picks"] += len(result)


def _crop_members(tracer, args, kwargs, result):
    tracer.counters["metrics.uniformity_subsets.members"] += sum(len(m) for m, _, _ in result[2])


def _extent_ratio(tracer, args, kwargs, result):
    # only the generator being trained: the fixed generator that `upsample`
    # runs in the same rounds says nothing of the training regime
    if not tracer.inside("training.train"):
        return
    points = args[2] if len(args) > 2 else kwargs["points"]
    tracer.counters["networks.generate_node.extent_ratio.sum"] += (
        _extent(result[0].value) / _extent(points))
    tracer.counters["networks.generate_node.extent_ratio.calls"] += 1


# counters a span's return value feeds; they run after the span has ended
HOOKS = {
    "geometry.farthest_point_sampling": _fps_picks,
    "metrics.uniformity_subsets": _crop_members,
    "networks.generate_node": _extent_ratio,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = defaultdict(float)
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def inside(self, name):
        """Whether a span called `name` is open now."""
        return any(self.names[span] == name for span in self._stack)

    def install(self, package):
        """Wrap every TRACED function of `package` (the imported pcup)."""
        modules = [getattr(package, m) for m in TRACED]
        for module_name, attrs in TRACED.items():
            module = getattr(package, module_name)
            for attr in attrs:
                name = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._saved.append((cls, method, cls.__dict__[method]))
                    setattr(cls, method, self._wrap(name, cls.__dict__[method]))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def totals(self):
        """Per span name: calls, summed seconds, and summed self seconds
        (duration minus the time covered by its direct child spans)."""
        duration = np.array(self.ends) - np.array(self.starts)
        child = np.zeros(len(duration))
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += duration[span]
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span, name in enumerate(self.names):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += float(duration[span])
            entry["self_s"] += float(duration[span] - child[span])
        return out

    def layer_metrics(self, wanted, rounds):
        """Values of the per-layer metrics named in `wanted` (name -> unit),
        per round: sums over the run divided by the rounds run."""
        totals = self.totals()
        values = {}
        for metric, unit in wanted.items():
            span, _, field = metric.rpartition(".")
            if field == "extent_ratio":
                calls = self.counters[metric + ".calls"]
                value = self.counters[metric + ".sum"] / calls if calls else 0.0
                values[metric] = {"value": value, "unit": unit}
                continue
            if field in ("s", "self_s", "calls"):
                value = totals[span][field]
            else:
                value = self.counters[metric]
            values[metric] = {"value": value / rounds, "unit": unit}
        return values

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent"],
                "spans": [list(s) for s in zip(self.names, self.starts, self.ends, self.parents)],
            }, fh)
