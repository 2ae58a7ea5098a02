"""Loss terms: hand values, gradient directions, cross-module agreement
of the uniformity loss, and the compound weighting."""

import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest

import helpers
from pcup import autodiff as ad
from pcup import losses as lo
from pcup import metrics
from pcup.geometry import SpatialIndex, pairwise_distances


def _conf(value):
    return ad.constant(np.array([[value]]))


class TestAdversarial:
    @pytest.mark.parametrize(
        "conf,expected",
        [(1.0, 0.0), (0.0, 0.5), (0.5, 0.125), (2.0, 0.5)],
    )
    def test_generator_hand_values(self, conf, expected):
        loss = lo.generator_adversarial_loss(_conf(conf))
        assert loss.value[0, 0] == pytest.approx(expected)

    @pytest.mark.parametrize(
        "fake,real,expected",
        [
            (0.0, 1.0, 0.0),  # perfect discriminator
            (1.0, 0.0, 1.0),  # perfectly fooled
            (0.5, 0.5, 0.25),  # coin flip
            (0.3, 0.8, 0.5 * (0.09 + 0.04)),
            (0.9, 0.1, 0.5 * (0.81 + 0.81)),
        ],
    )
    def test_discriminator_hand_values(self, fake, real, expected):
        loss = lo.discriminator_adversarial_loss(_conf(fake), _conf(real))
        assert loss.value[0, 0] == pytest.approx(expected)

    def test_generator_gradient_at_half(self):
        conf = _conf(0.5)
        ad.backward(lo.generator_adversarial_loss(conf))
        # d/dc 0.5*(c-1)^2 = c-1 = -0.5: pushes the confidence up
        assert conf.grad[0, 0] == pytest.approx(-0.5)

    def test_discriminator_gradients_oppose(self):
        fake, real = _conf(0.5), _conf(0.5)
        ad.backward(lo.discriminator_adversarial_loss(fake, real))
        assert fake.grad[0, 0] == pytest.approx(0.5)  # push fake down
        assert real.grad[0, 0] == pytest.approx(-0.5)  # push real up


class TestReconstruction:
    def test_hand_case_cost_two(self):
        q = ad.constant(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        target = np.array([[0.0, 1, 0], [1.0, 1, 0]])
        loss, matching = lo.reconstruction_loss(q, target)
        assert loss.value[0, 0] == pytest.approx(2.0)
        assert matching.cost == pytest.approx(2.0)

    def test_value_matches_matching_cost(self, rng):
        q = ad.constant(rng.normal(size=(40, 3)))
        target = rng.normal(size=(40, 3))
        loss, matching = lo.reconstruction_loss(q, target)
        assert loss.value[0, 0] == pytest.approx(matching.cost, rel=1e-12)

    def test_gradient_pulls_toward_matched_target(self):
        q = ad.constant(np.array([[0.0, 0, 0]]))
        target = np.array([[3.0, 4, 0]])
        loss, _ = lo.reconstruction_loss(q, target)
        ad.backward(loss)
        # unit vector from target to output: -(0.6, 0.8, 0)
        assert np.allclose(q.grad, [[-0.6, -0.8, 0.0]])

    def test_zero_at_perfect_reconstruction(self, rng):
        pts = rng.normal(size=(16, 3))
        q = ad.constant(pts.copy())
        loss, _ = lo.reconstruction_loss(q, pts)
        assert loss.value[0, 0] == 0.0
        ad.backward(loss)  # guarded sqrt keeps this finite
        assert np.isfinite(q.grad).all()

    def test_size_mismatch_rejected(self, rng):
        q = ad.constant(rng.normal(size=(8, 3)))
        with pytest.raises(ValueError, match="size mismatch"):
            lo.reconstruction_loss(q, rng.normal(size=(9, 3)))

    def test_finite_difference_gradient(self, rng):
        base = rng.normal(size=(10, 3))
        target = rng.normal(size=(10, 3))
        params = ad.Params()
        params.add("q", base)
        _, frozen = lo.reconstruction_loss(ad.constant(base), target)
        matched = target[frozen.permutation]

        def make_loss():
            return ad.sum_all(ad.row_distances(params["q"], ad.constant(matched)))

        helpers.gradcheck(make_loss, params)


class TestUniform:
    def test_value_agrees_with_metric(self, rng):
        pts = rng.normal(size=(200, 3))
        pts /= np.abs(pts).max()
        node = lo.uniform_loss(ad.constant(pts), metrics.P_VALUES, 10, seed=5)
        expected = sum(
            helpers.uniformity_loss_value(pts, p, 10, 5 + k)
            for k, p in enumerate(metrics.P_VALUES)
        )
        assert node.value[0, 0] == pytest.approx(expected, rel=1e-9)

    def test_hexagonal_layout_scores_below_random(self):
        hexv = lo.uniform_loss(ad.constant(helpers.hexagonal_disk(625)), (0.01,), 30, seed=0)
        rand = lo.uniform_loss(ad.constant(helpers.random_disk(625, seed=0)), (0.01,), 30,
                               seed=0)
        assert hexv.value[0, 0] < rand.value[0, 0]

    def test_two_point_cluster_is_pushed_apart(self):
        # two nearly coincident points inside a wider cloud: the gap is far
        # below the ideal spacing, so the loss gradient separates the pair
        rng = np.random.default_rng(3)
        pts = np.vstack([rng.normal(size=(30, 3)), [[0.0, 0, 0], [1e-3, 0, 0]]])
        node_in = ad.constant(pts)
        loss = lo.uniform_loss(node_in, (0.05,), 32, seed=0)
        ad.backward(loss)
        g = node_in.grad
        # the pair sits along x: gradients push the two apart in x
        assert g[30, 0] > 0 and g[31, 0] < 0

    def test_empty_structure_gives_zero_constant(self):
        # two isolated points: every ball holds one member, nn is None
        pts = np.array([[5.0, 0, 0], [-5.0, 0, 0]])
        node = lo.uniform_loss(ad.constant(pts), (0.001,), 2, seed=0)
        assert node.value[0, 0] == 0.0

    def test_finite_difference_gradient(self, rng):
        base = rng.normal(size=(40, 3)) * 0.5
        # freeze the structure once, then differentiate the frozen surrogate
        _, n_hat, subsets = metrics.uniformity_subsets(base, 0.05, 6, 0)
        params = ad.Params()
        params.add("q", base)

        def make_loss():
            q = params["q"]
            total = None
            for members, nn, d_hat in subsets:
                if nn is None:
                    continue
                imbalance = (len(members) - n_hat) ** 2 / n_hat
                gaps = ad.row_distances(ad.gather_rows(q, members), ad.gather_rows(q, nn))
                term = ad.scale(
                    ad.sum_all(ad.square(ad.add_scalar(gaps, -d_hat))), imbalance / d_hat
                )
                total = term if total is None else ad.add(total, term)
            return total

        helpers.gradcheck(make_loss, params, max_entries=30, rng=rng)


def _pinned_cloud(case):
    """256 points: all within 0.03 of each other, where every crop holds
    the whole cloud, or a flat patch whose crops hold about 19."""
    if case == "collapsed":
        return np.random.default_rng(2024).uniform(-0.015, 0.015, size=(256, 3))
    return np.random.default_rng(2025).uniform(-1.0, 1.0, size=(256, 3)) * [0.36, 0.36, 0.01]


def _per_crop_loss(q, p_values, seed_count, seed, partners):
    """The uniform loss built one crop at a time, each member paired with
    partners(points, members)."""
    total = None
    for k, p in enumerate(p_values):
        _, n_hat, subsets = metrics.uniformity_subsets(q.value, p, seed_count, seed + k)
        for members, nn, d_hat in subsets:
            if nn is None:
                continue
            imbalance = (len(members) - n_hat) ** 2 / n_hat
            nn = partners(q.value, members)
            gaps = ad.row_distances(ad.gather_rows(q, members), ad.gather_rows(q, nn))
            term = ad.scale(
                ad.sum_all(ad.square(ad.add_scalar(gaps, -d_hat))), imbalance / d_hat
            )
            total = term if total is None else ad.add(total, term)
    return total


class TestUniformFlatGraph:
    def test_value_matches_metric_on_collapsed_output(self):
        pts = helpers.collapsed_generator_output(64)
        node = lo.uniform_loss(ad.constant(pts), metrics.P_VALUES, 50, seed=9)
        expected = sum(
            helpers.uniformity_loss_value(pts, p, 50, 9 + k)
            for k, p in enumerate(metrics.P_VALUES)
        )
        assert node.value[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_finite_difference_gradient(self, rng):
        # the loss itself, structure re-frozen at every evaluation: steps
        # of 1e-6 move no point across a crop boundary or a nearest-pick tie
        base = rng.normal(size=(40, 3)) * 0.5
        params = ad.Params()
        params.add("q", base)
        helpers.gradcheck(lambda: lo.uniform_loss(params["q"], (0.03, 0.05), 6, seed=2), params,
                          h=1e-6, rel_tol=1e-5)

    def test_exact_ties_send_gradient_to_the_lowest_index(self):
        # on a lattice most members have several equally near partners;
        # the gradient is that of the per-crop graph paired by the oracle
        p_values, seed_count = (0.004, 0.01), 20
        pts = helpers.cubic_lattice(8, 0.03)
        flat = ad.constant(pts.copy())
        ad.backward(lo.uniform_loss(flat, p_values, seed_count, seed=11))
        per_crop = ad.constant(pts.copy())
        loss = _per_crop_loss(per_crop, p_values, seed_count, 11,
                              helpers.brute_crop_nearest)
        ad.backward(loss)
        atol = 1e-12 * np.abs(per_crop.grad).max()
        assert np.allclose(flat.grad, per_crop.grad, rtol=1e-10, atol=atol)
        # the picks by distance from the seed pair the lattice differently
        by_ball_order = ad.constant(pts.copy())

        def ball_order(points, members):
            d = pairwise_distances(points[members], points[members])
            np.fill_diagonal(d, np.inf)
            return members[np.argmin(d, axis=1)]

        ad.backward(_per_crop_loss(by_ball_order, p_values, seed_count, 11,
                                   ball_order))
        assert not np.allclose(flat.grad, by_ball_order.grad)

    def test_one_spatial_index_per_call(self, monkeypatch):
        # every p crops the same cloud, so one kd-tree and one nearest-other
        # pass serve them all
        q = ad.constant(helpers.collapsed_generator_output(16))
        built = []
        init = SpatialIndex.__init__

        def counting(self, points):
            built.append(self)
            init(self, points)

        monkeypatch.setattr(SpatialIndex, "__init__", counting)
        lo.uniform_loss(q, metrics.P_VALUES, 8, seed=3)
        assert len(built) == 1

    def test_collapsed_paper_size_cost_bound(self):
        # an untrained N=256 generator's 1024 points fall whole into all
        # 250 crops. Forward and backward take about 0.2 s on 2 cores; a
        # dense distance matrix per crop took about 8 s.
        q = ad.constant(helpers.collapsed_generator_output(256))
        start = time.perf_counter()
        ad.backward(lo.uniform_loss(q, metrics.P_VALUES, 50, seed=5))
        assert time.perf_counter() - start < 2.0
        assert np.isfinite(q.grad).all() and np.abs(q.grad).max() > 0

    @pytest.mark.parametrize("case, value, grad_sha256", [
        ("collapsed", 12123006.366765428,
         "fd9f59697a662b0b5c4bacd4653df1232d43cdc37f5dd792025680293beb3784"),
        ("patch", 1899.325842088037,
         "566dccad178a223f9f6dfc7cc6fb992a4afd003df130f91ed1e2dfbe2ef77d94"),
    ])
    def test_value_and_gradient_bytes_are_pinned(self, case, value, grad_sha256):
        # recorded from the per-seed crop loop the batched crops replaced.
        # Traps that change these bits: crops or members out of their
        # (p, seed, distance, index) order, and the imbalance weight from
        # numpy's x ** 2, where Python's float ** 2 calls libm pow: on the
        # patch, nine crops hold 19 members where n_hat = 3.072, one of the
        # few sizes where the two differ. The clouds are drawn without
        # matrix products, so no BLAS kernel moves their bits
        q = ad.constant(_pinned_cloud(case))
        node = lo.uniform_loss(q, metrics.P_VALUES, 50, seed=7)
        ad.backward(node)
        assert float(node.value[0, 0]) == value
        assert hashlib.sha256(q.grad.tobytes()).hexdigest() == grad_sha256

    def test_metric_values_are_pinned(self):
        # recorded as above. Each crop's clutter is one pairwise .sum()
        # over its slice; a sequential sum gives other bits
        pts = _pinned_cloud("patch")
        got = [helpers.uniformity_loss_value(pts, p, 50, 7 + k)
               for k, p in enumerate(metrics.P_VALUES)]
        assert got == [101.16832929591791, 200.88594589872577, 328.69241331305716,
                       517.7128554304039, 750.8662981499322]

    @pytest.mark.parametrize("n_input, bound_mb", [(64, 5.0), (256, 20.0)])
    def test_collapsed_output_peak_memory(self, n_input, bound_mb):
        # every point of an untrained generator's output falls into all 250
        # crops, which uniformity_crops takes in runs of about 4 pairs per
        # point, never all at once. tracemalloc (numpy reports to it) saw
        # peaks of 4.52 and 17.33 MB with a ball query per seed, 4.52 and
        # 17.50 MB in runs, and 6.45 MB at N=64 with every crop in one run
        q = ad.constant(helpers.collapsed_generator_output(n_input))
        tracemalloc.start()
        try:
            lo.uniform_loss(q, metrics.P_VALUES, 50, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20


def _scale_rows(a, column):
    """column * a for a constant column: what autodiff.scale did with a
    column factor before it took scalars only."""

    def push(g):
        a.grad += column * g

    return ad.Node(column * a.value, (a,), push)


def _chain_uniform_loss(q, p_values, seed_count, seed):
    """uniform_loss with its tail as the chain of row-wise nodes that
    grouped_square_deviation replaced: each crop member's pair distance
    gathered, its crop's d_hat subtracted as a constant column, squared,
    scaled by a constant column of weights and summed."""
    n = q.shape[0]
    draws = [(p, seed + k) for k, p in enumerate(p_values)]
    sizes, members, partners = metrics.uniformity_crops(SpatialIndex(q.value), draws,
                                                        seed_count)
    kept, d_hats, weights = [], [], []
    for p, row in zip(p_values, sizes.tolist()):
        n_hat = metrics.expected_ball_count(n, p)
        for size in row:
            if size >= 2:
                d_hat = metrics.hexagonal_neighbor_spacing(math.sqrt(p), size)
                kept.append(size)
                d_hats.append(d_hat)
                weights.append((size - n_hat) ** 2 / n_hat / d_hat)
    paired = partners >= 0
    pairs, row_pair = np.unique(members[paired] * n + partners[paired], return_inverse=True)
    gaps = ad.gather_rows(ad.row_distances(ad.gather_rows(q, pairs // n),
                                           ad.gather_rows(q, pairs % n)), row_pair)
    dev = ad.sub(gaps, ad.constant(np.repeat(d_hats, kept)[:, None]))
    return ad.sum_all(_scale_rows(ad.square(dev), np.repeat(weights, kept)[:, None]))


def _sparse_cloud():
    """100 points of a thin slab where crops at p = 0.02 and 0.01 hold
    1 to 9 members: crops of one member, and crops of two where
    n_hat = 2.0 gives a zero weight."""
    return np.random.default_rng(1).uniform(-0.5, 0.5, size=(100, 3)) * [1.0, 1.0, 0.05]


def _graph(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


class TestUniformOneOp:
    """The tail of uniform_loss is one grouped_square_deviation op, with
    the bits of the chain it replaced."""

    @pytest.mark.parametrize("case, p_values, seed_count, seed", [
        pytest.param("collapsed-64", metrics.P_VALUES, 50, 5, id="collapsed-64"),
        pytest.param("collapsed-256", metrics.P_VALUES, 50, 5, id="collapsed-256"),
        pytest.param("patch", metrics.P_VALUES, 50, 7, id="patch"),
        pytest.param("lattice", (0.004, 0.01), 20, 11, id="lattice"),
        pytest.param("sparse", (0.02, 0.01), 20, 1, id="sparse"),
    ])
    def test_value_and_gradient_bytes_equal_the_chain(self, case, p_values, seed_count, seed):
        pts = {"collapsed-64": lambda: helpers.collapsed_generator_output(64),
               "collapsed-256": lambda: helpers.collapsed_generator_output(256),
               "patch": lambda: _pinned_cloud("patch"),
               "lattice": lambda: helpers.cubic_lattice(8, 0.03),
               "sparse": _sparse_cloud}[case]()
        if case == "sparse":
            sizes = metrics.uniformity_crops(SpatialIndex(pts), [(p, seed + k) for k, p in
                                                                 enumerate(p_values)],
                                             seed_count)[0]
            assert (sizes < 2).any() and (sizes == 2).any() and (sizes > 2).any()
        values, grads = [], []
        for build in (lo.uniform_loss, _chain_uniform_loss):
            q = ad.constant(pts.copy())
            loss = build(q, p_values, seed_count, seed)
            values.append(loss.value.tobytes())
            # a batch of three's share of the weighted term, as training
            # pushes it, so the op's incoming gradient is not 1.0
            ad.backward(ad.scale(lo.compound_generator_loss(None, None, loss), 1.0 / 3))
            grads.append(q.grad.tobytes())
        assert values[0] == values[1]
        assert grads[0] == grads[1]

    def test_loss_node_holds_no_row_per_member(self):
        # nearly all of an untrained N=256 generator's 1024 points fall
        # into each of the 250 crops: about 250 000 members over a few
        # thousand distinct pairs.
        # The chain kept five nodes of one row per member and a weight
        # column, about 13.4 MiB in all; the op keeps the member-to-pair
        # index, about 2 MiB
        q = ad.constant(helpers.collapsed_generator_output(256))
        tracemalloc.start()
        try:
            loss = lo.uniform_loss(q, metrics.P_VALUES, 50, seed=5)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 4 * 2**20
        members = int(metrics.uniformity_crops(
            SpatialIndex(q.value), [(p, 5 + k) for k, p in enumerate(metrics.P_VALUES)],
            50)[0].sum())
        assert members > 240_000
        assert max(node.value.shape[0] for node in _graph(loss)) < members


class TestCompound:
    def test_weighted_sum(self):
        adv = _conf(2.0)
        rec = _conf(3.0)
        uni = _conf(5.0)
        total = lo.compound_generator_loss(adv, rec, uni)
        assert total.value[0, 0] == pytest.approx(0.5 * 2 + 100 * 3 + 10 * 5)

    def test_none_terms_are_skipped(self):
        rec = _conf(3.0)
        total = lo.compound_generator_loss(None, rec, None)
        assert total.value[0, 0] == pytest.approx(300.0)
        empty = lo.compound_generator_loss(None, None, None)
        assert empty.value[0, 0] == 0.0

    def test_gradient_scales_with_weights(self):
        rec = _conf(3.0)
        ad.backward(lo.compound_generator_loss(None, rec, None))
        assert rec.grad[0, 0] == pytest.approx(100.0)
