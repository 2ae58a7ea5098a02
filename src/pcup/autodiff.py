"""Minimal reverse-mode automatic differentiation over dense 2D float64
arrays, plus the Adam optimizer, a residual self-attention op, a grouped
squared-deviation op, and a binary checkpoint format.

Every value in a computation graph is a Node holding an (r, c) numpy
array. Ops build new Nodes eagerly and register a closure that pushes the
output gradient into the parents; self_attention and
grouped_square_deviation are such ops, with hand-written backward
passes. backward() runs an iterative topological sort, so graph depth
is not limited by Python recursion.
Only leaves (Params nodes and constants) keep their gradients: those
accumulate across backward() calls until Params.zero_grad(). An
interior node's gradient buffer is made just before the first push into
it and dropped once the node has pushed, so backward holds the buffers
of the graph's frontier, not of the whole graph.

A recorded graph holds every Node's value, since each node keeps its
parents, and what a push needs beyond those values. linear, square,
sigmoid and the shape ops need nothing more. linear_relu keeps a
boolean mask: its pre-activation is overwritten in place to make its
output. gather_rows and max_over_rows keep row indices, row_distances
the row differences, and self_attention G, H's feature and code parts
Hf and Hc, K, the code-part weights B and two columns, each row's
softmax maximum and sum, not the coded copies X of its input, which it
makes only for its output: no array with a row and a column per attended
row lives from its forward to its backward pass. Its push rebuilds the
feature-part weights from them and turns them into their softmax
gradient in place, so it makes one array of their size, (r * n, n) over
r coded copies of n rows, whose (r * n, r * n) weights neither pass
makes.
grouped_square_deviation keeps its row indices and per-group arrays.

Inside `with no_grad():` a new Node keeps no parents and no push
closure, so each intermediate array (and whatever an op's closure would
have held, such as self_attention's G, H and K) is freed as soon as
the next op has used it. The ops compute the same values either way;
nothing built there can pass a gradient back. networks.generate, the
helper that returns plain values, runs its forward pass this way;
generate_node and discriminate_node, which training differentiates,
record as usual.
"""

from contextlib import contextmanager

import numpy as np

__all__ = [
    "Node",
    "no_grad",
    "constant",
    "backward",
    "Params",
    "adam_step",
    "glorot_uniform",
    "self_attention",
    "init_attention",
    "grouped_square_deviation",
    "save_params",
    "load_params",
    "add", "sub", "scale", "add_scalar", "linear", "linear_relu", "sigmoid",
    "concat_cols", "reshape", "tile_rows", "gather_rows", "max_over_rows",
    "sum_all", "square", "row_distances",
]

_SQRT_GRAD_FLOOR = 1e-12  # subgradient guard at a zero distance

_recording = True  # whether new Nodes keep their parents and push closure


@contextmanager
def no_grad():
    """Build Nodes without a graph for the duration of the block: each is
    a leaf holding only its value. The previous setting comes back on
    exit, also when the block raises, so uses nest."""
    global _recording
    saved = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = saved


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "grad", "parents", "_push")

    def __init__(self, value, parents=(), push=None):
        v = np.asarray(value, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"Node values must be 2D arrays, got shape {v.shape}")
        self.value = v
        self.grad = None
        self.parents = tuple(parents) if _recording else ()
        self._push = push if _recording else None

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
    """c * a for a scalar c."""
    c = float(c)

    def push(g):
        a.grad += c * g

    return Node(c * a.value, (a,), push)


def add_scalar(a, c):
    c = float(c)

    def push(g):
        a.grad += g

    return Node(a.value + c, (a,), push)


def _check_linear(op, x, w, b):
    if x.value.shape[1] != w.value.shape[0] or b.value.shape != (1, w.value.shape[1]):
        raise ValueError(
            f"{op}: shape mismatch "
            f"x={x.value.shape} w={w.value.shape} b={b.value.shape}"
        )


def _affine(x, w, b):
    """x @ w + b for arrays, the bias added in place."""
    y = x @ w
    y += b
    return y


def _push_linear(x, w, b, g):
    x.grad += g @ w.value.T
    w.grad += x.value.T @ g
    b.grad += g.sum(axis=0, keepdims=True)


def linear(x, w, b):
    """Shared per-row affine map: x (n, cin) -> x @ w + b, with w
    (cin, cout) and bias b (1, cout) broadcast over rows."""
    _check_linear("linear", x, w, b)
    return Node(_affine(x.value, w.value, b.value), (x, w, b),
                lambda g: _push_linear(x, w, b, g))


def linear_relu(x, w, b):
    """max(0, x @ w + b) as one op. It keeps the mask of positive
    pre-activations, not the pre-activations: they are overwritten in
    place to make the output."""
    _check_linear("linear_relu", x, w, b)
    y = _affine(x.value, w.value, b.value)
    mask = y > 0.0
    np.copyto(y, 0.0, where=~mask)

    def push(g):
        dz = g * mask
        dz += 0.0  # -0.0 + 0.0 is +0.0, as summed into a zeroed buffer
        _push_linear(x, w, b, dz)

    return Node(y, (x, w, b), push)


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.value))

    def push(g):
        a.grad += g * y * (1.0 - y)

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


def sum_all(a):
    def push(g):
        a.grad += g[0, 0]

    return Node(a.value.sum().reshape(1, 1), (a,), push)


def square(a):
    def push(g):
        a.grad += 2.0 * a.value * g

    return Node(a.value * a.value, (a,), push)


def row_distances(a, b):
    """Euclidean distance between matching rows: (n, c) x (n, c) -> (n, 1).
    The gradient at a zero distance is 0."""
    _check_same_shape("row_distances", a, b)
    d = a.value - b.value
    y = np.sqrt((d * d).sum(axis=1, keepdims=True))

    def push(g):
        gd = 2.0 * d * (g * (0.5 / np.maximum(y, _SQRT_GRAD_FLOOR)))
        a.grad += gd
        b.grad -= gd

    return Node(y, (a, b), push)


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
    """Add the gradient of a scalar (1, 1) loss into every leaf it
    depends on.

    Leaves (nodes without a push: Params nodes and constants) keep their
    .grad and receive further contributions, so per-parameter gradients
    can be summed across several graphs before an optimizer step. Every
    interior node's .grad is None afterwards, so a second call on the same
    graph adds the same gradient again.
    """
    if loss.value.shape != (1, 1):
        raise ValueError(f"backward: loss must be (1, 1), got {loss.value.shape}")
    order = _topo_order(loss)
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.value)
    loss.grad = loss.grad + 1.0
    for node in reversed(order):
        if node._push is None:
            continue
        for parent in node.parents:
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.value)
        node._push(node.grad)
        node.grad = None


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

    def names(self):
        return list(self._nodes)

    def items(self):
        return self._nodes.items()

    def zero_grad(self):
        for node in self._nodes.values():
            node.grad = None

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


# Adam's standard moment decays and denominator offset
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params, lr):
    """One bias-corrected Adam update over every parameter; missing
    gradients count as zero. Gradients are cleared afterwards."""
    params.step += 1
    t = params.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, node in params.items():
        g = node.grad if node.grad is not None else np.zeros_like(node.value)
        m = params._m[name]
        v = params._v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        node.value -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    params.zero_grad()


def glorot_uniform(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_attention(params, prefix, channels, rng):
    """Create the five tensors of a self-attention block: query and value
    maps g and k with biases, and a key map h without one; g and h at a
    channels//4 bottleneck, k at full width. A bias on h would add
    G_i . b_h to every score of row i, which the row softmax cancels."""
    bottleneck = max(1, channels // 4)
    for tag, cout in (("g", bottleneck), ("h", bottleneck), ("k", channels)):
        params.add(f"{prefix}.{tag}.w", glorot_uniform(rng, channels, cout))
        if tag != "h":
            params.add(f"{prefix}.{tag}.b", np.zeros((1, cout)))


# Rows per block of the attention softmax, forward and backward. The
# forward pass records each block's row maxima and sums, and the push
# rebuilds the feature-part weights A from them, makes A's gradient by
# row blocks and turns it into the softmax's over A's rows in place, so
# no second array of A's size is made: at r = 1 and 1536 rows, A is
# 18 MiB and a 128-row block 1.5 MiB. There, at 130 columns, one push
# took a median 33-37 ms in 128-row blocks against 39-42 ms on the whole
# product (2 Xeon cores, 31 pushes each). The rows left over join the
# last block: a short block's product takes another BLAS path (OpenBLAS's
# small-matrix kernel), whose rows need not be the whole product's bits.
_ATTENTION_PUSH_ROWS = 128


def self_attention(x, codes, params, prefix):
    """Residual attention over coded copies of x as one op:
    out = X + W^T K, W = row-softmax(G H^T).

    X is r copies of the (n, c) node x, copy b with row b of the (r, k)
    node `codes` appended to each row, stacked copy-major:
    X = [tile(x, r) | repeat(codes, n)]; the output has X's r * n rows.
    G = X Wg + b_g and H = X Wh, at a quarter of X's width, and
    K = X Wk + b_k, at full width, are per-row maps by the five tensors
    that init_attention made under `prefix`.

    Each map splits into a part of x and a part of the codes: row (b, l)
    of X M is x_l M[:c] + codes_b M[c:]. The op takes G and K as
    tile(x Wg[:c] + b_g, r) + repeat(codes Wg[c:], n), and likewise K,
    and keeps H as its parts Hf = x Wh[:c] and Hc = codes Wh[c:], so each
    weight factorises: W_(i,(b,l)) = A_il B_ib with A = row-softmax(G Hf^T)
    of shape (r * n, n) and B = row-softmax(G Hc^T) of shape (r * n, r).
    Copy b's output is X_b + A^T (B[:, b] * K), each row of K scaled by
    its weight for code b. Neither pass makes the (r * n, r * n) W. At
    r = 1, B is exactly 1 and A is W: one code adds G_i . Hc to every
    score of row i, which the softmax cancels, so Wh[c:] gets an exactly
    zero gradient. The push sums each map's gradient over the copies into
    x's part and over each copy's rows into the codes' part.

    The op keeps G, Hf, Hc, K, B and each row of A's softmax maximum and
    sum, not A, and not X, which it builds only for its output: its push
    rebuilds A with the same product and elementwise ops, so the bits are
    the forward pass's. The push takes A's gradient by row blocks. At
    r = 1 its gradients are those of the whole (n, n) product of the same
    scores wherever the BLAS gives a block the whole product's rows: below
    256 rows (one block), and at multiples of 16 rows on OpenBLAS's
    SkylakeX, Haswell, Sandybridge, Nehalem and Prescott kernels at 1 and
    2 threads (SkylakeX and Haswell also at 3 and 4). Elsewhere they can
    differ in the last bits. With zero K weights the output is exactly X.
    Permuting x's rows permutes each copy's output rows identically.
    """
    wg, bg, wh, wk, bk = (params[f"{prefix}.{t}"] for t in ("g.w", "g.b", "h.w", "k.w", "k.b"))
    xv, cv = x.value, codes.value
    n, c = xv.shape
    r = len(cv)
    if c + cv.shape[1] != wg.value.shape[0]:
        raise ValueError(
            f"self_attention: input width {c + cv.shape[1]} does not match "
            f"{prefix!r} width {wg.value.shape[0]}"
        )
    width = wk.value.shape[1]

    def over_copies(w, bias):
        # X w + bias over X's r * n rows, from x's part and the codes' part
        m = np.tile(_affine(xv, w.value[:c], bias.value), (r, 1))
        m += np.repeat(cv @ w.value[c:], n, axis=0)
        return m

    g, k = over_copies(wg, bg), over_copies(wk, bk)
    hf, hc = xv @ wh.value[:c], cv @ wh.value[c:]
    b = g @ hc.T
    b -= b.max(axis=1, keepdims=True)
    np.exp(b, out=b)
    b /= b.sum(axis=1, keepdims=True)
    stops = [*range(_ATTENTION_PUSH_ROWS, len(g) - _ATTENTION_PUSH_ROWS + 1,
                    _ATTENTION_PUSH_ROWS), len(g)]
    blocks = [slice(lo, hi) for lo, hi in zip([0, *stops], stops)]
    peaks, sums = np.empty((len(g), 1)), np.empty((len(g), 1))

    def weights(record):
        # A's row softmax in place, block by block; `record` stores each
        # row's maximum and sum, else the stored ones are used
        a = g @ hf.T
        for rows in blocks:
            block = a[rows]
            if record:
                peaks[rows] = block.max(axis=1, keepdims=True)
            block -= peaks[rows]
            np.exp(block, out=block)
            if record:
                sums[rows] = block.sum(axis=1, keepdims=True)
            block /= sums[rows]
        return a

    def values(rows):
        # B_b * K for every copy b side by side, over `rows`: (rows, r * width)
        return (b[rows, :, None] * k[rows, None, :]).reshape(-1, r * width)

    def parts(dm):
        # a gradient over X's rows: x's part, summed over the copies, and
        # the codes' part, summed over each copy's rows
        copies = dm.reshape(r, n, -1)
        return copies.sum(axis=0), copies.sum(axis=1)

    def push(d):
        a = weights(False)
        # d with each copy's rows side by side: (n, r * width)
        dcat = d.reshape(r, n, width).swapaxes(0, 1).reshape(n, -1)
        # Y_b = A D_b for each copy b's rows D_b of d
        dk, db = np.zeros_like(k), np.empty_like(b)
        for copy in range(r):
            y = a @ d[copy * n:(copy + 1) * n]
            db[:, copy] = np.einsum("ij,ij->i", k, y)
            y *= b[:, copy:copy + 1]
            dk += y
        for rows in blocks:  # dP = A * (dA - rowsum(dA * A)) over A's rows
            block, da = a[rows], values(rows) @ dcat.T
            da -= (da * block).sum(axis=1, keepdims=True)
            block *= da
        db -= (db * b).sum(axis=1, keepdims=True)
        db *= b
        dg = a @ hf
        dg += db @ hc
        dhf, dhc = a.T @ g, db.T @ g
        bg.grad += dg.sum(axis=0, keepdims=True)
        bk.grad += dk.sum(axis=0, keepdims=True)
        copies = d.reshape(r, n, -1)  # the residual's parts
        dx, dcodes = copies[:, :, :c].sum(axis=0), copies[:, :, c:].sum(axis=1)
        for w, df, dc in ((wg, *parts(dg)), (wk, *parts(dk)), (wh, dhf, dhc)):
            dx += df @ w.value[:c].T
            dcodes += dc @ w.value[c:].T
            w.grad[:c] += xv.T @ df
            w.grad[c:] += cv.T @ dc
        x.grad += dx
        codes.grad += dcodes

    y = weights(True).T @ values(slice(None))  # (n, r * width), copies side by side
    out = np.hstack([np.tile(xv, (r, 1)), np.repeat(cv, n, axis=0)])
    out += y.reshape(n, r, width).swapaxes(0, 1).reshape(-1, width)
    return Node(out, (x, codes, wg, bg, wh, wk, bk), push)


def grouped_square_deviation(x, rows, sizes, centers, weights):
    """sum over groups c and their members m of
    weights[c] * (x[rows[m]] - centers[c])^2, as one op: (r, 1) -> (1, 1).

    `rows` lists the members group after group, sizes[c] of them for
    group c, and may repeat a row. Value and gradient equal, bit for bit,
    those of the chain gather_rows, sub of a constant column, square,
    scale by a constant column, sum_all. The op keeps only `rows` and the
    per-group arrays; its push recomputes the deviations, so no array of
    one entry per member lives from the forward to the backward pass.
    """
    rows, sizes = np.asarray(rows, dtype=np.intp), np.asarray(sizes, dtype=np.intp)
    weights = np.asarray(weights, dtype=np.float64)
    if x.value.shape[1] != 1 or rows.ndim != 1 or sizes.sum() != len(rows):
        raise ValueError(f"grouped_square_deviation: expected a column and 1D rows as many "
                         f"as the group sizes sum to, got {x.value.shape}, {rows.shape} "
                         f"and {sizes.sum()}")
    if rows.size and (rows.min() < 0 or rows.max() >= x.value.shape[0]):
        raise ValueError("grouped_square_deviation: row index out of range")

    def deviations():
        dev = x.value[rows]
        dev -= np.repeat(centers, sizes)[:, None]
        return dev

    terms = deviations()
    terms *= terms
    terms *= np.repeat(weights, sizes)[:, None]

    def push(g):
        # the chain's products: scale's weight * g, then square's
        # 2 * dev * (weight * g). The chain also summed each into a zeroed
        # buffer, which only turns -0.0 into +0.0; np.add.at into x's
        # buffer, which never holds -0.0, does the same
        dx = deviations()
        dx *= 2.0
        dx *= np.repeat(weights * g[0, 0], sizes)[:, None]
        np.add.at(x.grad, rows, dx)

    return Node(terms.sum().reshape(1, 1), (x,), push)


_CKPT_MAGIC = "PCUP-PARAMS-1"


def save_params(params, path):
    """Write parameters: ASCII header (magic, count, one 'name rows cols'
    line per tensor, DATA marker) then little-endian float64 payloads in
    header order."""
    arrays = {name: node.value for name, node in params.items()}
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
    try:
        header = blob[:pos].decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: malformed header") from None
    payload = blob[pos + len(marker):]
    if not header or header[0] != _CKPT_MAGIC:
        raise ValueError(f"{path}: bad magic, expected {_CKPT_MAGIC}")
    try:
        count = int(header[1])
        if count < 0:
            raise ValueError(count)
        specs = [(name, int(rows), int(cols))
                 for name, rows, cols in (line.split() for line in header[2 : 2 + count])]
    except (IndexError, ValueError):
        raise ValueError(f"{path}: malformed header") from None
    if len(specs) != count:
        raise ValueError(f"{path}: truncated header")
    if (len(header) != 2 + count or len({name for name, _, _ in specs}) != count
            or any(min(rows, cols) < 0 for _, rows, cols in specs)):
        raise ValueError(f"{path}: malformed header")
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
