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
        "scale_column": (
            {"a": (4, 3)},
            via(s, lambda p: ad.square(ad.scale(p["a"], np.array([[-2.5], [0.5], [3.0], [1.0]])))),
        ),
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
    ad.backward(ad.sum_all(ad.scale(out, g)))
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


def test_scale_factor_must_fit_the_operand():
    a = ad.constant(np.ones((3, 2)))
    assert ad.scale(a, np.full((3, 1), 2.0)).value.tolist() == [[2.0, 2.0]] * 3
    with pytest.raises(ValueError, match="does not fit"):
        ad.scale(a, np.ones((4, 1)))
    with pytest.raises(ValueError, match="does not fit"):
        ad.scale(ad.constant(np.ones((1, 1))), np.ones((3, 1)))


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
        ad.self_attention(a, att, "att")


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


class TestAttention:
    def test_zero_value_weights_is_identity(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 8, rng)
        params["att.k.w"].value[:] = 0.0
        params["att.k.b"].value[:] = 0.0
        x = rng.normal(size=(7, 8))
        out = ad.self_attention(ad.constant(x), params, "att")
        assert np.array_equal(out.value, x)

    def test_single_row_input_works(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 4, rng)
        x = rng.normal(size=(1, 4))
        out = ad.self_attention(ad.constant(x), params, "att")
        assert out.value.shape == (1, 4)
        assert np.isfinite(out.value).all()

    def test_permutation_equivariance(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 6, rng)
        x = rng.normal(size=(9, 6))
        perm = rng.permutation(9)
        out = ad.self_attention(ad.constant(x), params, "att").value
        out_p = ad.self_attention(ad.constant(x[perm]), params, "att").value
        assert np.abs(out_p - out[perm]).max() < 1e-12

    def test_gradients(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 4, rng)
        x = rng.normal(size=(5, 4))

        def make_loss():
            return ad.sum_all(ad.square(ad.self_attention(ad.constant(x), params, "att")))

        helpers.gradcheck(make_loss, params)

    def test_no_grad_keeps_neither_parents_nor_weights(self, rng):
        params = ad.Params()
        ad.init_attention(params, "a", 8, rng)
        x = ad.constant(rng.normal(size=(6, 8)))
        with ad.no_grad():
            out = ad.self_attention(x, params, "a")
        assert out.parents == () and out._push is None
        assert np.array_equal(out.value, ad.self_attention(x, params, "a").value)

    def test_is_one_node_over_input_and_weights(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 8, rng)
        x = ad.constant(rng.normal(size=(6, 8)))
        out = ad.self_attention(x, params, "att")
        assert out.parents == (x, *(params[name] for name in params.names()))

    def test_matches_reference_at_generator_size(self, rng):
        # the generator's attention input at N=256: 1536 rows, 130 columns
        params = ad.Params()
        ad.init_attention(params, "att", 130, rng)
        for _, node in params.items():
            node.value += rng.normal(scale=0.05, size=node.value.shape)
        x = rng.normal(size=(1536, 130))
        want = helpers.reference_attention(x, params, "att")
        got = ad.self_attention(ad.constant(x), params, "att").value
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_gradients_with_input_as_shared_leaf(self, rng):
        # x feeds the op and a second consumer, so its gradient sums both
        params = ad.Params()
        ad.init_attention(params, "att", 4, rng)
        x = params.add("x", rng.normal(size=(5, 4)))

        def make_loss():
            out = ad.self_attention(x, params, "att")
            return ad.sum_all(ad.square(ad.add(out, ad.scale(x, -0.5))))

        helpers.gradcheck(make_loss, params)

    def test_push_makes_at_most_one_n_by_n_buffer(self, rng):
        # dW = K d^T is the one (n, n) array the push makes; the softmax
        # backward runs over blocks of its rows
        n = 1024
        params = ad.Params()
        ad.init_attention(params, "att", 8, rng)
        loss = ad.sum_all(ad.self_attention(ad.constant(rng.normal(size=(n, 8))), params, "att"))
        tracemalloc.start()
        try:
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_bottleneck_is_quarter_width(self, rng):
        params = ad.Params()
        ad.init_attention(params, "att", 16, rng)
        assert params["att.g.w"].value.shape == (16, 4)
        assert params["att.h.w"].value.shape == (16, 4)
        assert params["att.k.w"].value.shape == (16, 16)


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
