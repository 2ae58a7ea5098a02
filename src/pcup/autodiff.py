"""Minimal reverse-mode automatic differentiation over dense 2D float64
arrays, plus the Adam optimizer, a residual self-attention block, and a
binary checkpoint format.

Every value in a computation graph is a Node holding an (r, c) numpy
array. Ops build new Nodes eagerly and register a closure that pushes the
output gradient into the parents. backward() runs an iterative
topological sort, so graph depth is not limited by Python recursion.
Gradients accumulate across backward() calls until Params.zero_grad().
"""

import numpy as np

__all__ = [
    "Node",
    "constant",
    "backward",
    "Params",
    "adam_step",
    "glorot_uniform",
    "self_attention",
    "init_attention",
    "save_params",
    "load_params",
    "add", "sub", "scale", "add_scalar", "matmul", "transpose", "linear",
    "relu", "sigmoid", "softmax_rows", "concat_cols", "reshape",
    "tile_rows", "gather_rows", "max_over_rows", "rowwise_sum",
    "sum_all", "mean_all", "square", "sqrt",
]

_SQRT_GRAD_FLOOR = 1e-12  # subgradient guard at sqrt(0)


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "grad", "parents", "_push")

    def __init__(self, value, parents=(), push=None):
        v = np.asarray(value, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"Node values must be 2D arrays, got shape {v.shape}")
        self.value = v
        self.grad = None
        self.parents = tuple(parents)
        self._push = push

    @property
    def shape(self):
        return self.value.shape


def constant(value):
    """Leaf node that never receives a gradient of interest."""
    return Node(value)


def _check_same_shape(op, a, b):
    if a.value.shape != b.value.shape:
        raise ValueError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}")


def add(a, b):
    _check_same_shape("add", a, b)

    def push(g):
        a.grad += g
        b.grad += g

    return Node(a.value + b.value, (a, b), push)


def sub(a, b):
    _check_same_shape("sub", a, b)

    def push(g):
        a.grad += g
        b.grad -= g

    return Node(a.value - b.value, (a, b), push)


def scale(a, c):
    c = float(c)

    def push(g):
        a.grad += c * g

    return Node(c * a.value, (a,), push)


def add_scalar(a, c):
    c = float(c)

    def push(g):
        a.grad += g

    return Node(a.value + c, (a,), push)


def matmul(a, b):
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul: shape mismatch {a.value.shape} vs {b.value.shape}")

    def push(g):
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    return Node(a.value @ b.value, (a, b), push)


def transpose(a):
    def push(g):
        a.grad += g.T

    return Node(a.value.T, (a,), push)


def linear(x, w, b):
    """Shared per-row affine map: x (n, cin) -> x @ w + b, with w
    (cin, cout) and bias b (1, cout) broadcast over rows."""
    if x.value.shape[1] != w.value.shape[0] or b.value.shape != (1, w.value.shape[1]):
        raise ValueError(
            "linear: shape mismatch "
            f"x={x.value.shape} w={w.value.shape} b={b.value.shape}"
        )

    def push(g):
        x.grad += g @ w.value.T
        w.grad += x.value.T @ g
        b.grad += g.sum(axis=0, keepdims=True)

    return Node(x.value @ w.value + b.value, (x, w, b), push)


def relu(a):
    mask = a.value > 0.0

    def push(g):
        a.grad += g * mask

    return Node(np.where(mask, a.value, 0.0), (a,), push)


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.value))

    def push(g):
        a.grad += g * y * (1.0 - y)

    return Node(y, (a,), push)


def softmax_rows(a):
    """Row-wise softmax with max subtraction for overflow safety."""
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def push(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        a.grad += y * (g - dot)

    return Node(y, (a,), push)


def concat_cols(*nodes):
    if not nodes:
        raise ValueError("concat_cols: no inputs")
    rows = nodes[0].value.shape[0]
    for n in nodes:
        if n.value.shape[0] != rows:
            raise ValueError(
                "concat_cols: row mismatch "
                + " vs ".join(str(n.value.shape) for n in nodes)
            )
    offsets = np.cumsum([0] + [n.value.shape[1] for n in nodes])

    def push(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            n.grad += g[:, lo:hi]

    return Node(np.concatenate([n.value for n in nodes], axis=1), nodes, push)


def reshape(a, rows, cols):
    if rows * cols != a.value.size:
        raise ValueError(f"reshape: cannot view {a.value.shape} as ({rows}, {cols})")

    def push(g):
        a.grad += g.reshape(a.value.shape)

    return Node(a.value.reshape(rows, cols), (a,), push)


def tile_rows(a, reps):
    """Stack `reps` copies of a: (n, c) -> (reps*n, c), copy-major."""
    if reps < 1:
        raise ValueError(f"tile_rows: reps must be >= 1, got {reps}")
    n, c = a.value.shape

    def push(g):
        a.grad += g.reshape(reps, n, c).sum(axis=0)

    return Node(np.tile(a.value, (reps, 1)), (a,), push)


def gather_rows(a, indices):
    """Select rows by index (duplicates allowed); backward scatters-adds."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows: indices must be 1D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
        raise ValueError("gather_rows: index out of range")

    def push(g):
        np.add.at(a.grad, idx, g)

    return Node(a.value[idx], (a,), push)


def max_over_rows(a):
    """Column-wise max over all rows: (n, c) -> (1, c). The gradient
    routes to the first row attaining each maximum."""
    arg = a.value.argmax(axis=0)
    cols = np.arange(a.value.shape[1])

    def push(g):
        np.add.at(a.grad, (arg, cols), g[0])

    return Node(a.value.max(axis=0, keepdims=True), (a,), push)


def rowwise_sum(a):
    """Sum across columns within each row: (n, c) -> (n, 1)."""

    def push(g):
        a.grad += g  # broadcast over columns

    return Node(a.value.sum(axis=1, keepdims=True), (a,), push)


def sum_all(a):
    def push(g):
        a.grad += g[0, 0]

    return Node(a.value.sum().reshape(1, 1), (a,), push)


def mean_all(a):
    inv = 1.0 / a.value.size

    def push(g):
        a.grad += g[0, 0] * inv

    return Node(a.value.mean().reshape(1, 1), (a,), push)


def square(a):
    def push(g):
        a.grad += 2.0 * a.value * g

    return Node(a.value * a.value, (a,), push)


def sqrt(a):
    if (a.value < 0).any():
        raise ValueError("sqrt: negative input")
    y = np.sqrt(a.value)

    def push(g):
        a.grad += g * (0.5 / np.maximum(y, _SQRT_GRAD_FLOOR))

    return Node(y, (a,), push)


def _topo_order(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Populate gradients of every ancestor of a scalar (1, 1) loss.

    Gradients accumulate: nodes whose .grad is already an array keep it
    and receive additional contributions, so per-parameter gradients can
    be summed across several graphs before an optimizer step.
    """
    if loss.value.shape != (1, 1):
        raise ValueError(f"backward: loss must be (1, 1), got {loss.value.shape}")
    order = _topo_order(loss)
    for node in order:
        if node.grad is None:
            node.grad = np.zeros_like(node.value)
    loss.grad = loss.grad + 1.0
    for node in reversed(order):
        if node._push is not None:
            node._push(node.grad)


class Params:
    """Insertion-ordered collection of named trainable Nodes with Adam
    moment state. The insertion order fixes the checkpoint layout."""

    def __init__(self):
        self._nodes = {}
        self._m = {}
        self._v = {}
        self.step = 0

    def add(self, name, value):
        if name in self._nodes:
            raise ValueError(f"duplicate parameter {name!r}")
        node = Node(np.array(value, dtype=np.float64))
        self._nodes[name] = node
        self._m[name] = np.zeros_like(node.value)
        self._v[name] = np.zeros_like(node.value)
        return node

    def __getitem__(self, name):
        return self._nodes[name]

    def __contains__(self, name):
        return name in self._nodes

    def __len__(self):
        return len(self._nodes)

    def names(self):
        return list(self._nodes)

    def items(self):
        return self._nodes.items()

    def total_size(self):
        return sum(n.value.size for n in self._nodes.values())

    def zero_grad(self):
        for node in self._nodes.values():
            node.grad = None

    def state_arrays(self):
        """name -> value array, in insertion order."""
        return {name: node.value for name, node in self._nodes.items()}

    def set_values(self, arrays):
        """Load parameter values; names and shapes must match exactly."""
        missing = [n for n in self._nodes if n not in arrays]
        extra = [n for n in arrays if n not in self._nodes]
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing={missing} extra={extra}")
        for name, node in self._nodes.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != node.value.shape:
                raise ValueError(
                    f"parameter {name!r}: shape {arr.shape} != {node.value.shape}"
                )
            node.value = arr.copy()


def adam_step(params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update over every parameter; missing
    gradients count as zero. Gradients are cleared afterwards."""
    params.step += 1
    t = params.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, node in params.items():
        g = node.grad if node.grad is not None else np.zeros_like(node.value)
        m = params._m[name]
        v = params._v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        node.value -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    params.zero_grad()


def glorot_uniform(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_attention(params, prefix, channels, rng):
    """Create the six tensors of a self-attention block: linear query/key
    maps at a channels//4 bottleneck and a full-width value map."""
    bottleneck = max(1, channels // 4)
    for tag, cout in (("g", bottleneck), ("h", bottleneck), ("k", channels)):
        params.add(f"{prefix}.{tag}.w", glorot_uniform(rng, channels, cout))
        params.add(f"{prefix}.{tag}.b", np.zeros((1, cout)))


def self_attention(x, params, prefix):
    """Residual attention: out = x + W^T K with W = row-softmax(G H^T).

    G and H are linear projections at a quarter of the input width, K a
    full-width linear projection. With zero K weights this is exactly the
    identity. Permuting input rows permutes output rows identically.
    """
    g = linear(x, params[f"{prefix}.g.w"], params[f"{prefix}.g.b"])
    h = linear(x, params[f"{prefix}.h.w"], params[f"{prefix}.h.b"])
    k = linear(x, params[f"{prefix}.k.w"], params[f"{prefix}.k.b"])
    w = softmax_rows(matmul(g, transpose(h)))
    return add(x, matmul(transpose(w), k))


_CKPT_MAGIC = "PCUP-PARAMS-1"


def save_params(params, path):
    """Write parameters: ASCII header (magic, count, one 'name rows cols'
    line per tensor, DATA marker) then little-endian float64 payloads in
    header order."""
    arrays = params.state_arrays() if isinstance(params, Params) else dict(params)
    lines = [_CKPT_MAGIC, str(len(arrays))]
    for name, arr in arrays.items():
        if any(ch.isspace() for ch in name):
            raise ValueError(f"parameter name with whitespace: {name!r}")
        if arr.ndim != 2:
            raise ValueError(f"parameter {name!r} is not 2D")
        lines.append(f"{name} {arr.shape[0]} {arr.shape[1]}")
    lines.append("DATA")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_params(path):
    """Read a save_params file back into an ordered name -> array dict."""
    with open(path, "rb") as fh:
        blob = fh.read()
    marker = b"\nDATA\n"
    pos = blob.find(marker)
    if pos < 0:
        raise ValueError(f"{path}: missing DATA marker")
    header = blob[:pos].decode("ascii").splitlines()
    payload = blob[pos + len(marker):]
    if not header or header[0] != _CKPT_MAGIC:
        raise ValueError(f"{path}: bad magic, expected {_CKPT_MAGIC}")
    count = int(header[1])
    specs = []
    for line in header[2 : 2 + count]:
        name, rows, cols = line.split()
        specs.append((name, int(rows), int(cols)))
    if len(specs) != count:
        raise ValueError(f"{path}: truncated header")
    arrays = {}
    offset = 0
    for name, rows, cols in specs:
        nbytes = rows * cols * 8
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise ValueError(f"{path}: truncated payload at {name!r}")
        arrays[name] = np.frombuffer(chunk, dtype="<f8").reshape(rows, cols).copy()
        offset += nbytes
    if offset != len(payload):
        raise ValueError(f"{path}: trailing bytes after payload")
    return arrays
