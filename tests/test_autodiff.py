"""The reverse-mode engine: per-op gradient checks against central
differences, graph mechanics, Adam, attention, and checkpoints."""

import re
import tracemalloc

import numpy as np
import pytest

import helpers
from pcup import autodiff as ad
from pcup import networks as nw
from pcup.training import TrainConfig


def _params_with(rng, shapes):
    params = ad.Params()
    for name, shape in shapes.items():
        params.add(name, rng.normal(size=shape))
    return params


# each entry: name -> (param shapes, loss builder)
# builders keep inputs away from ReLU/max/zero-distance kinks so central
# differences are valid
def _op_cases():
    def via(reduce, expr):
        return lambda p: reduce(expr(p))

    s = ad.sum_all
    cases = {
        "add": ({"a": (4, 3), "b": (4, 3)}, via(s, lambda p: ad.add(p["a"], p["b"]))),
        "sub": ({"a": (4, 3), "b": (4, 3)}, via(s, lambda p: ad.sub(p["a"], p["b"]))),
        "scale": ({"a": (4, 3)}, via(s, lambda p: ad.scale(p["a"], -2.5))),
        "add_scalar": ({"a": (4, 3)}, via(s, lambda p: ad.square(ad.add_scalar(p["a"], 1.5)))),
        "linear": (
            {"x": (5, 3), "w": (3, 4), "b": (1, 4)},
            via(s, lambda p: ad.square(ad.linear(p["x"], p["w"], p["b"]))),
        ),
        # sigmoids put x @ w in (0, 3), and the bias offsets put the
        # pre-activations of columns 0 and 2 in (-5, -1), of 1 and 3 in (1, 5)
        "linear_relu": (
            {"x": (5, 3), "w": (3, 4), "b": (1, 4)},
            via(s, lambda p: ad.square(ad.linear_relu(
                ad.sigmoid(p["x"]), ad.sigmoid(p["w"]),
                ad.add(ad.sigmoid(p["b"]), ad.constant([[-5.0, 1.0, -5.0, 1.0]]))))),
        ),
        "sigmoid": ({"a": (4, 3)}, via(s, lambda p: ad.sigmoid(p["a"]))),
        "concat_cols": (
            {"a": (4, 2), "b": (4, 3)},
            via(s, lambda p: ad.square(ad.concat_cols(p["a"], p["b"]))),
        ),
        "reshape": ({"a": (4, 3)}, via(s, lambda p: ad.square(ad.reshape(p["a"], 6, 2)))),
        "tile_rows": ({"a": (3, 4)}, via(s, lambda p: ad.square(ad.tile_rows(p["a"], 3)))),
        "gather_rows": (
            {"a": (5, 3)},
            via(s, lambda p: ad.square(ad.gather_rows(p["a"], np.array([0, 2, 2, 4])))),
        ),
        "square": ({"a": (4, 3)}, via(s, lambda p: ad.square(p["a"]))),
        "row_distances": (
            {"a": (4, 3), "b": (4, 3)},
            via(s, lambda p: ad.row_distances(p["a"], p["b"])),
        ),
        "row_distances_to_constant": (
            {"a": (5, 3)},
            via(s, lambda p: ad.row_distances(p["a"], ad.constant(np.full((5, 3), 0.25)))),
        ),
    }
    return cases


@pytest.mark.parametrize("op", sorted(_op_cases()))
@pytest.mark.parametrize("seed", range(5))
def test_op_gradients_match_finite_differences(op, seed):
    shapes, build = _op_cases()[op]
    rng = np.random.default_rng(100 + seed)
    params = _params_with(rng, shapes)
    helpers.gradcheck(lambda: build(params), params)


def _pushing(node, g):
    """A (1, 1) loss whose push adds the array g into node's gradient."""

    def push(_):
        node.grad += g

    return ad.Node(np.zeros((1, 1)), (node,), push)


def test_linear_relu_bytes_equal_relu_of_linear(rng):
    # the unfused chain, in NumPy: relu kept np.where(mask, pre, 0.0), and
    # pushed g * mask into linear's zeroed buffer, which linear pushed on
    x = rng.normal(size=(8, 3))
    x[1] = 0.0  # pre-activation exactly the bias: 0.0 in columns 0 and 1
    x[2] = [-1e-200, -1e-200, 0.0]
    w = rng.normal(size=(3, 4))
    w[:2, 1] = [1e-200, 1e-200]  # x[2]'s products underflow, to -0.0 under some BLAS kernels
    b = rng.normal(size=(1, 4))
    b[0, :2] = [0.0, -0.0]
    b[0, 3] = -50.0  # column 3 never passes, so its bias gradient sums -0.0s
    g = rng.normal(size=(8, 4))
    g[:, 3] = -np.abs(g[:, 3])
    pre = x @ w + b
    assert (pre[1, :2] == 0.0).all() and pre[2, 1] == 0.0 and (pre[:, 3] < 0.0).all()
    mask = pre > 0.0
    dz = np.zeros_like(pre)
    dz += g * mask
    want = {"x": np.zeros_like(x) + dz @ w.T, "w": np.zeros_like(w) + x.T @ dz,
            "b": np.zeros_like(b) + dz.sum(axis=0, keepdims=True)}

    params = _params_with(rng, {"x": x.shape, "w": w.shape, "b": b.shape})
    params.set_values({"x": x, "w": w, "b": b})
    out = ad.linear_relu(params["x"], params["w"], params["b"])
    assert out.value.tobytes() == np.where(mask, pre, 0.0).tobytes()
    ad.backward(_pushing(out, g))
    for name, grad in want.items():
        assert params[name].grad.tobytes() == grad.tobytes(), name


def test_max_over_rows_gradient_away_from_ties():
    params = ad.Params()
    params.add("a", np.array([[1.0, 5.0], [2.0, -1.0], [7.0, 0.5]]))
    helpers.gradcheck(lambda: ad.sum_all(ad.square(ad.max_over_rows(params["a"]))), params)


def test_max_over_rows_ties_route_to_first_row():
    params = ad.Params()
    params.add("a", np.array([[2.0], [2.0], [1.0]]))
    loss = ad.sum_all(ad.max_over_rows(params["a"]))
    ad.backward(loss)
    assert params["a"].grad.ravel().tolist() == [1.0, 0.0, 0.0]


def test_grouped_square_deviation_gradient_matches_finite_differences():
    # rows repeat within and across groups, one group is empty, and row 2
    # sits exactly on the first group's centre: a zero deviation
    params = ad.Params()
    params.add("x", np.array([[0.3], [-1.2], [0.25], [2.0], [0.7]]))
    rows = np.array([2, 0, 2, 4, 1, 2, 3, 3])
    sizes, centers, weights = [3, 0, 1, 4], [0.25, 9.0, -0.5, 1.0], [2.0, 7.0, 0.5, 3.0]

    def make_loss():
        return ad.grouped_square_deviation(params["x"], rows, sizes, centers, weights)

    x = params["x"].value[:, 0]
    want = sum(w * (x[r] - c) ** 2 for r, w, c in
               zip(rows, np.repeat(weights, sizes), np.repeat(centers, sizes)))
    assert make_loss().value[0, 0] == pytest.approx(want, rel=1e-15)
    helpers.gradcheck(make_loss, params)


@pytest.mark.parametrize("shape, rows, sizes, centers, match", [
    pytest.param((4, 2), [0, 1], [2], [0.0], "expected a column", id="two-columns"),
    pytest.param((4, 1), [[0, 1]], [2], [0.0], "expected a column", id="2d-rows"),
    pytest.param((4, 1), [0, 1], [1], [0.0], "sizes sum to", id="sizes-short"),
    pytest.param((4, 1), [0, 4], [2], [0.0], "out of range", id="row-out-of-range"),
    # numpy's own refusals, from np.repeat
    pytest.param((4, 1), [0, 1], [2], [0.0, 1.0], "broadcast", id="centers-per-group-long"),
    pytest.param((4, 1), [0, 1], [3, -1], [0.0, 1.0], "negative", id="negative-size"),
])
def test_grouped_square_deviation_refuses_what_does_not_fit(shape, rows, sizes, centers,
                                                            match):
    x = ad.constant(np.zeros(shape))
    with pytest.raises(ValueError, match=match):
        ad.grouped_square_deviation(x, rows, sizes, centers, np.ones(len(centers)))


def test_row_distance_at_zero_has_zero_gradient():
    params = ad.Params()
    params.add("a", np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    b = ad.constant(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 7.0]]))
    dist = ad.row_distances(params["a"], b)
    assert dist.value.ravel().tolist() == [0.0, 1.0]
    ad.backward(ad.sum_all(dist))
    assert params["a"].grad.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
    assert b.grad.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]


def test_diamond_graph_sums_both_paths():
    params = ad.Params()
    params.add("a", np.array([[3.0]]))
    a = params["a"]
    # loss = a*a + 2a: d/da = 2a + 2 = 8
    loss = ad.sum_all(ad.add(ad.square(a), ad.scale(a, 2.0)))
    ad.backward(loss)
    assert a.grad[0, 0] == pytest.approx(8.0)


def test_gradients_accumulate_across_backward_calls():
    params = ad.Params()
    params.add("a", np.array([[1.0, 2.0]]))
    ad.backward(ad.sum_all(params["a"]))
    first = params["a"].grad.copy()
    ad.backward(ad.scale(ad.sum_all(params["a"]), 1 / params["a"].value.size))
    assert np.allclose(params["a"].grad, first + 0.5)
    params.zero_grad()
    assert params["a"].grad is None


def test_backward_rejects_non_scalar():
    with pytest.raises(ValueError, match="must be \\(1, 1\\)"):
        ad.backward(ad.constant(np.zeros((2, 2))))


def test_shape_errors_name_op_and_shapes():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="add.*2, 3.*3, 2"):
        ad.add(a, b)
    att = ad.Params()
    ad.init_attention(att, "att", 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="self_attention: input width 3 does not match 'att'"):
        ad.self_attention(a, _no_codes(), att, "att")


def test_deep_chain_does_not_recurse():
    node = ad.constant(np.ones((1, 1)))
    params = ad.Params()
    base = params.add("x", np.ones((1, 1)))
    node = base
    for _ in range(3000):
        node = ad.add_scalar(node, 0.001)
    ad.backward(ad.sum_all(node))
    assert base.grad[0, 0] == 1.0


def test_repeated_backward_adds_the_leaf_gradient_again():
    params = ad.Params()
    a = params.add("a", np.array([[3.0]]))
    loss = ad.sum_all(ad.square(a))  # d/da = 2a = 6
    ad.backward(loss)
    ad.backward(loss)
    # interior gradients left over from the first call would be pushed
    # again and give 24
    assert a.grad[0, 0] == 12.0


def test_only_leaves_keep_gradients():
    params = ad.Params()
    a = params.add("a", np.array([[1.0, -2.0]]))
    c = ad.constant([[0.5, 0.5]])
    shifted = ad.add(a, c)
    loss = ad.sum_all(ad.square(shifted))
    ad.backward(loss)
    assert shifted.grad is None and loss.grad is None
    assert a.grad.tolist() == [[3.0, -3.0]]  # 2 (a + c)
    assert c.grad.tolist() == [[3.0, -3.0]]


def test_backward_holds_only_the_frontier_buffers():
    # 50 interior nodes of 1 MiB each: a buffer for every node up front
    # would peak near 50 MiB; buffers made on first push and dropped once
    # pushed keep about three alive (the leaf's, the pushing node's and
    # its parent's)
    params = ad.Params()
    node = params.add("x", np.ones((256, 512)))
    for _ in range(50):
        node = ad.add_scalar(node, 1.0)
    loss = ad.sum_all(node)
    tracemalloc.start()
    try:
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert params["x"].grad.min() == params["x"].grad.max() == 1.0


def _records():
    """Whether a node built now keeps its parents."""
    return ad.add_scalar(ad.constant([[1.0]]), 1.0).parents != ()


def test_no_grad_node_is_a_leaf_with_the_same_value():
    params = ad.Params()
    a = params.add("a", np.array([[1.0, -2.0]]))
    with ad.no_grad():
        node = ad.square(ad.add(a, ad.constant([[0.5, 0.5]])))
    assert node.parents == () and node._push is None
    assert node.value.tolist() == [[2.25, 2.25]]
    ad.backward(ad.sum_all(node))
    assert a.grad is None  # nothing connects node to a


def test_no_grad_restores_recording_after_nesting_and_after_a_raise(rng):
    assert _records()
    with ad.no_grad():
        with ad.no_grad():
            assert not _records()
        assert not _records()  # the inner exit restores the outer setting
    assert _records()
    cfg = TrainConfig(n_input=24, rate=2, feature_channels=24, working_channels=10,
                      group_k=6, regress_hidden=6)
    params = nw.init_generator(cfg, rng)
    with pytest.raises(ValueError, match="expects 24 input points"):
        nw.generate(params, cfg, rng.normal(size=(25, 3)))
    assert _records()
    out, _, _ = nw.generate_node(params, cfg, rng.normal(size=(24, 3)))
    ad.backward(ad.sum_all(ad.square(out)))
    for name in params.names():
        assert params[name].grad is not None, name


class TestAdam:
    def test_single_step_moves_by_about_lr(self):
        params = ad.Params()
        params.add("w", np.array([[0.0]]))
        params["w"].grad = np.array([[2.0]])
        ad.adam_step(params, lr=0.1)
        # bias-corrected first step: lr * g / (|g| + eps) ~= lr
        assert params["w"].value[0, 0] == pytest.approx(-0.1, rel=1e-6)
        assert params["w"].grad is None  # cleared

    def test_descends_a_quadratic(self):
        params = ad.Params()
        params.add("w", np.array([[5.0, -3.0]]))
        for _ in range(400):
            loss = ad.sum_all(ad.square(params["w"]))
            ad.backward(loss)
            ad.adam_step(params, lr=0.05)
        assert np.abs(params["w"].value).max() < 1e-2

    def test_missing_gradient_means_no_update_on_fresh_state(self):
        params = ad.Params()
        params.add("w", np.array([[1.5]]))
        ad.adam_step(params, lr=0.1)
        assert params["w"].value[0, 0] == 1.5

    def test_duplicate_parameter_name_rejected(self):
        params = ad.Params()
        params.add("w", np.zeros((1, 1)))
        with pytest.raises(ValueError, match="duplicate"):
            params.add("w", np.zeros((1, 1)))


def _stored_weights_attention(x, params, prefix):
    """self_attention over the rows of x as it was when it kept its (n, n)
    weights W for the push, on whole products and with no H bias: the
    reference whose bits the op must keep where its codes have no columns
    (X is x)."""
    wg, bg, wh, wk, bk = (params[f"{prefix}.{t}"] for t in ("g.w", "g.b", "h.w", "k.w", "k.b"))
    xv = x.value
    g, h, k = ad._affine(xv, wg.value, bg.value), xv @ wh.value, ad._affine(xv, wk.value, bk.value)
    w = g @ h.T
    w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)

    def push(d):
        ds = k @ d.T
        for lo in range(0, len(ds), 128):
            rows = slice(lo, lo + 128)
            ds[rows] -= (ds[rows] * w[rows]).sum(axis=1, keepdims=True)
            ds[rows] *= w[rows]
        x.grad += d
        ad._push_linear(x, wg, bg, ds @ h)
        ad._push_linear(x, wk, bk, w @ d)
        dh = ds.T @ g
        x.grad += dh @ wh.value.T
        wh.grad += xv.T @ dh

    return ad.Node(xv + w.T @ k, (x, wg, bg, wh, wk, bk), push)


def _copies_of(x, codes):
    """The explicit [tile(x, r) | repeat(codes)] node the op attends over."""
    r, n = codes.shape[0], x.shape[0]
    return ad.concat_cols(ad.tile_rows(x, r), ad.gather_rows(codes, np.repeat(np.arange(r), n)))


def _over_copies(x, codes, params, prefix):
    """_stored_weights_attention over the explicit copies."""
    return _stored_weights_attention(_copies_of(x, codes), params, prefix)


def _no_codes():
    """One code of no columns: the op attends over x itself."""
    return ad.constant(np.zeros((1, 0)))


def _attention_case(n, kind, width=130, codes=0):
    """Attention weights and an input leaf "x" of n rows: random, with
    each row repeated about four times, or with logits large enough that
    most of each softmax row underflows to 0. x leaves `codes` of the
    attention's columns to a code table."""
    rng = np.random.default_rng(n)
    params = ad.Params()
    ad.init_attention(params, "att", width, rng)
    for _, node in params.items():
        node.value += rng.normal(scale=0.05, size=node.value.shape)
    x = rng.normal(size=(n, width - codes))
    if kind == "duplicated":
        x = x[rng.integers(0, max(1, n // 4), size=n)]
    elif kind == "saturated":
        params["att.g.w"].value *= 40.0
        params["att.h.w"].value *= 40.0
    return params, params.add("x", x)


def _attention_bits(op, params, x):
    """The bytes of the op's value and of every gradient it pushes, with
    codes of no columns."""
    params.zero_grad()
    out = op(x, _no_codes(), params, "att")
    ad.backward(ad.sum_all(ad.square(out)))
    return out.value.tobytes(), {name: node.grad.tobytes() for name, node in params.items()}


def _two_backwards(op, params, x):
    """Every gradient after one and after two backward calls on one graph."""
    params.zero_grad()
    loss = ad.sum_all(ad.square(op(x, _no_codes(), params, "att")))
    grads = []
    for _ in range(2):
        ad.backward(loss)
        grads.append({name: node.grad.copy() for name, node in params.items()})
    return grads


def _value_and_gradients(make_out, params):
    params.zero_grad()
    out = make_out()
    ad.backward(ad.sum_all(ad.square(out)))
    return out.value, {name: node.grad.copy() for name, node in params.items()}


def _logit_tolerance(tiled, params):
    """max(1e-12, 2 eps max|logit|): the rounding of a score, relative to
    the largest, that two float64 evaluations of the softmax may differ by."""
    g = tiled.value @ params["att.g.w"].value + params["att.g.b"].value
    h = tiled.value @ params["att.h.w"].value
    return max(1e-12, 2 * np.finfo(float).eps * np.abs(g @ h.T).max())


class TestAttention:
    # one code (r = 1), the discriminator's case: its code is the pooled feature
    def test_zero_value_weights_is_identity(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 8, rng)
        params["att.k.w"].value[:] = 0.0
        params["att.k.b"].value[:] = 0.0
        x, code = ad.constant(rng.normal(size=(7, 6))), ad.constant(rng.normal(size=(1, 2)))
        out = ad.self_attention(x, code, params, "att")
        assert np.array_equal(out.value, _copies_of(x, code).value)

    def test_single_row_input_works(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 4, rng)
        x, code = rng.normal(size=(1, 3)), rng.normal(size=(1, 1))
        out = ad.self_attention(ad.constant(x), ad.constant(code), params, "att")
        assert out.value.shape == (1, 4)
        assert np.isfinite(out.value).all()

    def test_permutation_equivariance(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 6, rng)
        x, code = rng.normal(size=(9, 4)), ad.constant(rng.normal(size=(1, 2)))
        perm = rng.permutation(9)
        out = ad.self_attention(ad.constant(x), code, params, "att").value
        out_p = ad.self_attention(ad.constant(x[perm]), code, params, "att").value
        assert np.abs(out_p - out[perm]).max() < 1e-12

    def test_gradients(self, rng):
        # the code is a leaf, so its gradient is checked too
        params = ad.Params()
        ad.init_attention(params, "att", 4, rng)
        x = rng.normal(size=(5, 3))
        code = params.add("code", rng.normal(size=(1, 1)))

        def make_loss():
            return ad.sum_all(ad.square(ad.self_attention(ad.constant(x), code, params, "att")))

        helpers.gradcheck(make_loss, params)

    def test_no_grad_keeps_neither_parents_nor_weights(self, rng):
        params = ad.Params()
        ad.init_attention(params, "a", 8, rng)
        x, code = ad.constant(rng.normal(size=(6, 6))), ad.constant(rng.normal(size=(1, 2)))
        with ad.no_grad():
            out = ad.self_attention(x, code, params, "a")
        assert out.parents == () and out._push is None
        assert np.array_equal(out.value, ad.self_attention(x, code, params, "a").value)

    def test_is_one_node_over_input_and_weights(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 8, rng)
        x, code = ad.constant(rng.normal(size=(6, 6))), ad.constant(rng.normal(size=(1, 2)))
        out = ad.self_attention(x, code, params, "att")
        assert out.parents == (x, code, *(params[name] for name in params.names()))

    def test_matches_reference_at_generator_size(self, rng):
        # the generator's attention width at N=256, 130 columns, over its
        # 1536 rows
        params = ad.Params()
        ad.init_attention(params, "att", 130, rng)
        for _, node in params.items():
            node.value += rng.normal(scale=0.05, size=node.value.shape)
        x, code = ad.constant(rng.normal(size=(1536, 128))), ad.constant(rng.normal(size=(1, 2)))
        want = helpers.reference_attention(_copies_of(x, code).value, params, "att")
        got = ad.self_attention(x, code, params, "att").value
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_gradients_with_input_as_shared_leaf(self, rng):
        # x feeds the op and a second consumer, so its gradient sums both
        params = ad.Params()
        ad.init_attention(params, "att", 4, rng)
        x = params.add("x", rng.normal(size=(5, 3)))
        code = params.add("code", rng.normal(size=(1, 1)))

        def make_loss():
            out = ad.self_attention(x, code, params, "att")
            return ad.sum_all(ad.square(ad.add(out, ad.scale(_copies_of(x, code), -0.5))))

        helpers.gradcheck(make_loss, params)

    def test_push_makes_at_most_one_n_by_n_buffer(self, rng):
        # dW = K d^T is the one (n, n) array the push makes; the softmax
        # backward runs over blocks of its rows
        n = 1024
        params = ad.Params()
        ad.init_attention(params, "att", 8, rng)
        x, code = ad.constant(rng.normal(size=(n, 6))), ad.constant(rng.normal(size=(1, 2)))
        loss = ad.sum_all(ad.self_attention(x, code, params, "att"))
        tracemalloc.start()
        try:
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    @pytest.mark.parametrize("kind", ["random", "duplicated", "saturated"])
    @pytest.mark.parametrize("n", [96, 130, 320, 384, 1024, 1536])
    def test_value_and_gradients_are_the_stored_weights_op_bits(self, n, kind):
        # 96 rows fill one block of 128; at 130 the 2 rows left over join
        # it, at 320 the last 64 join the second block; 1536 and 1024 are
        # the generator's and discriminator's row counts at N=256, 384 the
        # generator's at N=64
        params, x = _attention_case(n, kind)
        got = _attention_bits(ad.self_attention, params, x)
        want = _attention_bits(_over_copies, params, x)
        assert got == want

    def test_gradients_match_stored_weights_op_at_any_row_count(self):
        # at 300 rows, not a multiple of 8, the SkylakeX kernel's block
        # products differ from the whole product's rows in the last bits
        params, x = _attention_case(300, "random")
        got = _attention_bits(ad.self_attention, params, x)
        want = _attention_bits(_over_copies, params, x)
        assert got[0] == want[0]
        grads = {name: [np.frombuffer(v[1][name]) for v in (got, want)] for name in got[1]}
        scale = max(np.abs(b).max() for _, b in grads.values())
        for name, (a, b) in grads.items():
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * scale), name

    def test_second_backward_adds_the_same_gradient_again(self):
        # the push rebuilds W on every call, so a second backward on the
        # same graph adds the stored-weights op's gradient again
        params, x = _attention_case(320, "random")
        got = _two_backwards(ad.self_attention, params, x)
        want = _two_backwards(_over_copies, params, x)
        assert [{k: v.tobytes() for k, v in grads.items()} for grads in got] == [
            {k: v.tobytes() for k, v in grads.items()} for grads in want]
        once, twice = got
        for name in once:
            assert np.allclose(twice[name], 2.0 * once[name], rtol=1e-12,
                               atol=1e-12 * np.abs(once[name]).max()), name

    @pytest.mark.parametrize("kind", ["random", "duplicated", "saturated"])
    def test_one_code_matches_the_op_over_explicit_copies(self, kind):
        # the discriminator's attention at N=256: 1024 rows, 64 feature
        # columns and a pooled code of 64. The code adds a constant to
        # each row of scores, which the softmax cancels, so the op gives
        # H's code rows exactly no gradient, where the op over the
        # explicit copies gives them rounding noise
        params, x = _attention_case(1024, kind, width=128, codes=64)
        code = params.add("code", x.value.max(axis=0, keepdims=True))
        tol = _logit_tolerance(_copies_of(x, code), params)
        got, grads = _value_and_gradients(
            lambda: ad.self_attention(x, code, params, "att"), params)
        want, want_grads = _value_and_gradients(
            lambda: _over_copies(x, code, params, "att"), params)
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        scale = max(np.abs(v).max() for v in want_grads.values())
        for name, want_grad in want_grads.items():
            assert np.allclose(grads[name], want_grad, rtol=tol, atol=tol * scale), name
        assert not grads["att.h.w"][64:].any()

    def test_forward_keeps_no_n_by_n_array(self, rng):
        # between its forward and backward passes the op keeps G, H's two
        # parts, K and three (n, 1) columns, not the coded copies X, far
        # below one (n, n) array of weights
        n = 1024
        params = ad.Params()
        ad.init_attention(params, "att", 8, rng)
        x, code = ad.constant(rng.normal(size=(n, 6))), ad.constant(rng.normal(size=(1, 2)))
        tracemalloc.start()
        try:
            out = ad.self_attention(x, code, params, "att")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out._push is not None
        assert held < 0.1 * n * n * 8

    def test_bottleneck_is_quarter_width(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 16, rng)
        assert params.names() == ["att.g.w", "att.g.b", "att.h.w", "att.k.w", "att.k.b"]
        assert params["att.g.w"].value.shape == (16, 4)
        assert params["att.h.w"].value.shape == (16, 4)
        assert params["att.k.w"].value.shape == (16, 16)


def _copies_case(n, r, kind, width=128):
    """Attention weights over `width` feature columns and two code
    columns, an input leaf "x" of n rows and the (r, 2) grid code table
    as a constant node, with the kinds of _attention_case; r * n rows are
    attended over."""
    return (*_attention_case(n, kind, width + 2, codes=2), ad.constant(nw.grid_codes(r, 1)))


class TestAttentionOverCopies:
    @pytest.mark.parametrize("r", [1, 2, 3, 6])
    def test_gradients(self, rng, r):
        # nonzero biases, so G's and K's biases enter the scores, and the
        # codes a leaf, so their gradient is checked too. H's code rows get
        # a gradient from two codes on, and exactly none from one
        params = ad.Params()
        ad.init_attention(params, "att", 6, rng)
        for _, node in params.items():
            node.value += rng.normal(scale=0.3, size=node.value.shape)
        x = params.add("x", rng.normal(size=(5, 4)))
        codes = params.add("codes", nw.grid_codes(r, 1))

        def make_loss():
            out = ad.self_attention(x, codes, params, "att")
            return ad.sum_all(ad.square(ad.add(out, ad.scale(_copies_of(x, codes), -0.5))))

        helpers.gradcheck(make_loss, params)
        params.zero_grad()
        ad.backward(make_loss())
        code_rows = np.abs(params["att.h.w"].grad[4:]).max()
        assert code_rows > 1e-6 if r > 1 else code_rows == 0.0

    @pytest.mark.parametrize("kind", ["random", "duplicated", "saturated"])
    @pytest.mark.parametrize("n", [64, 256])
    def test_matches_the_op_over_explicit_copies(self, n, kind):
        # r = 6 at N=64 and N=256: the generator's 384 and 1536 rows. The
        # factors round differently from the (6n, 6n) softmax; both carry
        # an absolute rounding of about eps * |logit| in each score, which
        # exceeds 1e-12 relative where the logits saturate (about 6e4 to
        # 9e4 here; at 384 rows the op over explicit copies is itself
        # 1.6e-10 of its largest entry away from a long-double evaluation
        # in G's bias gradient, the factorised op 9.1e-12)
        params, x, codes = _copies_case(n, 6, kind)
        tiled = _copies_of(x, codes)
        tol = _logit_tolerance(tiled, params)
        got, grads = _value_and_gradients(
            lambda: ad.self_attention(x, codes, params, "att"), params)
        want = helpers.reference_attention(tiled.value, params, "att")
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        want_grads = _value_and_gradients(
            lambda: _over_copies(x, codes, params, "att"), params)[1]
        scale = max(np.abs(v).max() for v in want_grads.values())
        for name, want_grad in want_grads.items():
            assert np.allclose(grads[name], want_grad, rtol=tol, atol=tol * scale), name

    def test_zero_value_weights_give_the_copies(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 10, rng)
        params["att.k.w"].value[:] = 0.0
        params["att.k.b"].value[:] = 0.0
        x = ad.constant(rng.normal(size=(7, 8)))
        codes = ad.constant(nw.grid_codes(6, 1))
        out = ad.self_attention(x, codes, params, "att")
        assert np.array_equal(out.value, _copies_of(x, codes).value)

    def test_permuting_x_permutes_each_copy(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 8, rng)
        x = rng.normal(size=(9, 6))
        perm = rng.permutation(9)
        codes = ad.constant(nw.grid_codes(4, 1))
        out = ad.self_attention(ad.constant(x), codes, params, "att").value
        out_p = ad.self_attention(ad.constant(x[perm]), codes, params, "att").value
        want = out.reshape(4, 9, 8)[:, perm]
        assert np.abs(out_p.reshape(4, 9, 8) - want).max() < 1e-12

    def test_refuses_an_input_and_codes_of_another_width(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 10, rng)
        x = ad.constant(rng.normal(size=(7, 7)))
        with pytest.raises(ValueError, match="input width 9 does not match 'att' width 10"):
            ad.self_attention(x, ad.constant(nw.grid_codes(6, 1)), params, "att")

    def test_forward_and_push_make_no_weights_over_all_copies(self):
        # 1536 rows, r = 6, 128 feature columns: the op over the explicit
        # tiled concat, with its (1536, 1536) weights, traced 6.9 MiB held
        # after the forward pass and 33.4 MiB at the peak of forward plus
        # push; factorised, 5.1 and 18.4 MiB, and 3.6 and 15.7 MiB with G
        # and K from x's part and the codes' part and no coded copies X
        # kept. One (1536, 1536) array alone is 18 MiB
        params, x, codes = _copies_case(256, 6, "random")
        tracemalloc.start()
        try:
            out = ad.self_attention(x, codes, params, "att")
            held = tracemalloc.get_traced_memory()[0]
            ad.backward(ad.sum_all(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held < 4 * 2**20
        assert peak < 17 * 2**20


class TestCheckpoint:
    def test_roundtrip_is_bitwise(self, tmp_path, rng):
        params = ad.Params()
        params.add("layer.w", rng.normal(size=(7, 3)))
        params.add("layer.b", rng.normal(size=(1, 3)) * 1e-300)  # denormals survive
        path = tmp_path / "p.params"
        ad.save_params(params, path)
        back = ad.load_params(path)
        assert list(back) == ["layer.w", "layer.b"]  # insertion order kept
        for name, arr in back.items():
            assert arr.tobytes() == params[name].value.tobytes()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_bytes(b"NOT-A-CHECKPOINT\n0\nDATA\n")
        with pytest.raises(ValueError, match="bad magic"):
            ad.load_params(path)

    @pytest.mark.parametrize("header", [
        b"PCUP-PARAMS-1\nDATA\n",  # no count line
        b"PCUP-PARAMS-1\ntwo\nw 1 1\nDATA\n",
        b"PCUP-PARAMS-1\n1\nw 1\nDATA\n",
        b"PCUP-PARAMS-1\n1\nw 1 1 1\nDATA\n",
        b"PCUP-PARAMS-1\n1\nw 1 x\nDATA\n",
        b"\xff\x00\nDATA\n",
        b"PCUP-PARAMS-1\n1\nw -1 -1\nDATA\n",
        b"PCUP-PARAMS-1\n1\nw 1 -1\nDATA\n",
        b"PCUP-PARAMS-1\n2\nw 1 1\nw 0 0\nDATA\n",  # the name repeated
        b"PCUP-PARAMS-1\n1\nw 1 1\nv 0 0\nDATA\n",  # more tensors than the count
        b"PCUP-PARAMS-1\n-1\nDATA\n",  # a negative count
    ])
    def test_malformed_header_names_the_file(self, tmp_path, header):
        path = tmp_path / "p.params"
        path.write_bytes(header + np.zeros(1).tobytes())
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed header$"):
            ad.load_params(path)

    def test_truncated_payload_detected(self, tmp_path, rng):
        params = ad.Params()
        params.add("w", rng.normal(size=(4, 4)))
        path = tmp_path / "p.params"
        ad.save_params(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated payload"):
            ad.load_params(path)

    def test_trailing_bytes_detected(self, tmp_path, rng):
        params = ad.Params()
        params.add("w", rng.normal(size=(2, 2)))
        path = tmp_path / "p.params"
        ad.save_params(params, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match="trailing bytes"):
            ad.load_params(path)

    def test_set_values_checks_names_and_shapes(self, rng):
        params = ad.Params()
        params.add("w", np.zeros((2, 2)))
        with pytest.raises(ValueError, match="name mismatch"):
            params.set_values({"v": np.zeros((2, 2))})
        with pytest.raises(ValueError, match="shape"):
            params.set_values({"w": np.zeros((3, 2))})
