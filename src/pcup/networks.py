"""Upsampling generator and point-set discriminator.

The generator extracts densely connected per-point features, reduces them
to a working width, expands them with an up-down-up unit (tile + 2D grid
codes + attention, regroup-and-regress back down, then re-expand the
residual as self-correction), regresses coordinates, and trims the
over-generated set back to the target count with farthest point
sampling. The discriminator max-pools per-point features into a global
vector, re-attaches it per point (the attention takes it as its one
code), pools again, and regresses a confidence in (0, 1).

Both networks are permutation-aware by construction: all per-point maps
are shared, and pooling is symmetric.

A `cfg` argument is the run's `training.TrainConfig`: the networks read
its sizes and widths (`disc_*` for the discriminator) and its
`ablate_attention`, `ablate_up_down_up` and `ablate_fps` switches, whose
values the config checked when it was made.
"""

import math

import numpy as np

from . import autodiff as ad
from .geometry import SpatialIndex, as_points, farthest_point_sampling

__all__ = [
    "init_generator",
    "init_discriminator",
    "grid_codes",
    "local_embedding",
    "generate_node",
    "generate",
    "discriminate_node",
]


GRID_EXTENT = 0.2  # half-extent of the 2D grid codes
FPS_SEED = 0       # first index kept by the trimming FPS


def _add_linear(params, prefix, fan_in, fan_out, rng):
    params.add(f"{prefix}.w", ad.glorot_uniform(rng, fan_in, fan_out))
    params.add(f"{prefix}.b", np.zeros((1, fan_out)))


def _apply_linear(params, prefix, x, activation=True):
    op = ad.linear_relu if activation else ad.linear
    return op(x, params[f"{prefix}.w"], params[f"{prefix}.b"])


def init_generator(cfg, rng):
    """Create generator parameters. Ablation flags control which blocks
    exist, so parameter counts change only for the disabled component."""
    rng = np.random.default_rng(rng)
    params = ad.Params()
    width = cfg.feature_channels // 3
    for i in range(3):
        _add_linear(params, f"feat.b{i}.l0", 6 + i * width, width, rng)
        _add_linear(params, f"feat.b{i}.l1", width, width, rng)
    _add_linear(params, "reduce.l0", cfg.feature_channels, cfg.working_channels, rng)
    _add_linear(params, "reduce.l1", cfg.working_channels, cfg.working_channels, rng)
    _add_linear(params, "expand.pre", cfg.working_channels, cfg.working_channels, rng)
    up_units = ("up1",) if cfg.ablate_up_down_up else ("up1", "up2")
    for unit in up_units:
        cin = cfg.working_channels + 2
        if not cfg.ablate_attention:
            ad.init_attention(params, f"expand.{unit}.attn", cin, rng)
        _add_linear(params, f"expand.{unit}.l0", cin, cfg.working_channels, rng)
        _add_linear(params, f"expand.{unit}.l1", cfg.working_channels, cfg.working_channels, rng)
    if not cfg.ablate_up_down_up:
        _add_linear(params, "expand.down.l0",
                    cfg.expansion_rate * cfg.working_channels, cfg.working_channels, rng)
        _add_linear(params, "expand.down.l1", cfg.working_channels, cfg.working_channels, rng)
    _add_linear(params, "regress.l0", cfg.working_channels, cfg.regress_hidden, rng)
    _add_linear(params, "regress.l1", cfg.regress_hidden, 3, rng)
    return params


def init_discriminator(cfg, rng):
    rng = np.random.default_rng(rng)
    params = ad.Params()
    _add_linear(params, "d.point.l0", 3, cfg.disc_point_channels, rng)
    _add_linear(params, "d.point.l1", cfg.disc_point_channels, cfg.disc_point_channels, rng)
    mixed = 2 * cfg.disc_point_channels
    if not cfg.ablate_attention:
        ad.init_attention(params, "d.attn", mixed, rng)
    _add_linear(params, "d.global.l0", mixed, cfg.disc_global_channels, rng)
    _add_linear(params, "d.global.l1", cfg.disc_global_channels, cfg.disc_global_channels, rng)
    _add_linear(params, "d.head.l0", cfg.disc_global_channels, cfg.disc_head_hidden, rng)
    _add_linear(params, "d.head.l1", cfg.disc_head_hidden, 1, rng)
    return params


def local_embedding(points, k):
    """Constant per-point input embedding: coordinates concatenated with
    the coordinate-wise max of the k nearest neighbor offsets (the point
    itself counts as a neighbor, so k points suffice). Neighbors are the
    exact k nearest, the lower index on ties."""
    pts = as_points(points)
    if len(pts) < k:
        raise ValueError(f"need at least {k} points for the local embedding, got {len(pts)}")
    nbr = SpatialIndex(pts).knn(pts, k)[0]
    offsets = pts[nbr] - pts[:, None, :]
    return np.hstack([pts, offsets.max(axis=1)])


def _extract_features(params, cfg, points):
    """Densely connected per-point feature stack: each of the 3 blocks
    consumes the embedding plus every earlier block's output; the final
    feature is the concatenation of all block outputs."""
    emb = ad.constant(local_embedding(points, cfg.group_k))
    outs = []
    for i in range(3):
        x = emb if not outs else ad.concat_cols(emb, *outs)
        h = _apply_linear(params, f"feat.b{i}.l0", x)
        h = _apply_linear(params, f"feat.b{i}.l1", h)
        outs.append(h)
    return ad.concat_cols(*outs)


def grid_codes(rho, n_points):
    """(rho * n_points, 2) constant block of per-copy 2D codes: the first
    rho cells of a ceil(sqrt(rho))-wide grid over [-GRID_EXTENT,
    GRID_EXTENT]^2 in row-major order (u varies fastest)."""
    m = math.ceil(math.sqrt(rho))
    ticks = np.linspace(-GRID_EXTENT, GRID_EXTENT, m)
    codes = np.array([(ticks[i % m], ticks[i // m]) for i in range(rho)])
    return np.repeat(codes, n_points, axis=0)


def _up_feature(params, prefix, cfg, x):
    """Duplicate features r = cfg.expansion_rate times, append a distinct
    2D grid code to each copy, mix with self-attention, and map back to
    the working width: (n, c) -> (r * n, working_channels).

    The attention op takes x and the (r, 2) code table and builds the
    copies itself: its weights factorise over the copies (see
    autodiff.self_attention), so no (r * n, r * n) array is made. Only
    without attention is the tiled concat a graph node."""
    r, n = cfg.expansion_rate, x.shape[0]
    if cfg.ablate_attention:
        h = ad.concat_cols(ad.tile_rows(x, r), ad.constant(grid_codes(r, n)))
    else:
        h = ad.self_attention(x, ad.constant(grid_codes(r, 1)), params, f"{prefix}.attn")
    h = _apply_linear(params, f"{prefix}.l0", h)
    return _apply_linear(params, f"{prefix}.l1", h)


def _down_feature(params, cfg, x):
    """Regroup the r = cfg.expansion_rate copies of each original point
    into one row (copies n, n+N, ..., n+(r-1)N in order) and regress back
    to the working width: (r * n, c) -> (n, working_channels)."""
    r = cfg.expansion_rate
    n, c = x.shape[0] // r, x.shape[1]
    idx = (np.arange(n)[:, None] + n * np.arange(r)[None, :]).ravel()
    h = ad.reshape(ad.gather_rows(x, idx), n, r * c)
    h = _apply_linear(params, "expand.down.l0", h)
    return _apply_linear(params, "expand.down.l1", h)


def _up_down_up(params, cfg, x):
    """Self-correcting expansion: up-expand, regress back down, and
    up-expand the residual with separate parameters, adding it to the
    first expansion. With the correction disabled this is a single
    up-expansion."""
    f1 = _apply_linear(params, "expand.pre", x)
    f_up = _up_feature(params, "expand.up1", cfg, f1)
    if cfg.ablate_up_down_up:
        return f_up
    f2 = _down_feature(params, cfg, f_up)
    delta_up = _up_feature(params, "expand.up2", cfg, ad.sub(f2, f1))
    return ad.add(f_up, delta_up)


def _regress(params, cfg, points):
    """The generator up to its coordinate regressor: the (expansion_rate *
    N, 3) node of the over-generated cloud, before any trim."""
    pts = as_points(points)
    if len(pts) != cfg.n_input:
        raise ValueError(f"generator expects {cfg.n_input} input points, got {len(pts)}")
    h = _extract_features(params, cfg, pts)
    h = _apply_linear(params, "reduce.l0", h)
    h = _apply_linear(params, "reduce.l1", h)
    h = _up_down_up(params, cfg, h)
    h = _apply_linear(params, "regress.l0", h)
    return _apply_linear(params, "regress.l1", h, activation=False)


def generate_node(params, cfg, points):
    """Full generator forward pass.

    Returns (output, raw, selected): `raw` is the (expansion_rate * N, 3)
    regressed cloud, `selected` the farthest-point-sampled row indices,
    and `output` the (rate * N, 3) node holding raw's selected rows. The
    selection is recomputed from values on every call and treated as a
    constant by the backward pass."""
    raw = _regress(params, cfg, points)
    if cfg.ablate_fps:
        return raw, raw, np.arange(cfg.n_target, dtype=np.intp)
    selected = farthest_point_sampling(raw.value, cfg.n_target, FPS_SEED)
    return ad.gather_rows(raw, selected), raw, selected


def generate(params, cfg, points):
    """The output coordinates of generate_node as an array, computed under
    autodiff.no_grad, so no graph is kept for a backward pass.

    `points` may also be a (P, N, 3) stack of patches: the network then
    runs on each patch, and one farthest_point_sampling call over the
    stack trims every raw output, so the (P, rate * N, 3) result holds,
    bit for bit, each patch's output of a call on it alone."""
    pts = np.asarray(points, dtype=np.float64)
    with ad.no_grad():
        if pts.ndim != 3:
            return generate_node(params, cfg, pts)[0].value
        raw = np.stack([_regress(params, cfg, patch).value for patch in pts])
    if cfg.ablate_fps:
        return raw
    selected = farthest_point_sampling(raw, cfg.n_target, FPS_SEED)
    return np.take_along_axis(raw, selected[:, :, None], axis=1)


def discriminate_node(params, cfg, q):
    """Confidence in (0, 1) that the input cloud is a real sample.

    Accepts a Node (so generator gradients can flow through) or a plain
    array. Max pooling makes the result invariant to point order."""
    x = q if isinstance(q, ad.Node) else ad.constant(as_points(q))
    if x.shape[1] != 3:
        raise ValueError(f"discriminator expects (n, 3) input, got {x.shape}")
    h = _apply_linear(params, "d.point.l0", x)
    h = _apply_linear(params, "d.point.l1", h)
    pooled = ad.max_over_rows(h)
    if cfg.ablate_attention:
        h = ad.concat_cols(h, ad.tile_rows(pooled, h.shape[0]))
    else:
        h = ad.self_attention(h, pooled, params, "d.attn")
    h = _apply_linear(params, "d.global.l0", h)
    h = _apply_linear(params, "d.global.l1", h)
    h = _apply_linear(params, "d.head.l0", ad.max_over_rows(h))
    h = _apply_linear(params, "d.head.l1", h, activation=False)
    return ad.sigmoid(h)
