"""Training objectives: least-squares adversarial terms, a differentiable
uniformity loss, exact earth-mover reconstruction, and the weighted
compound generator objective.

Discrete choices inside the losses (matching, seed picks, ball
membership, subset counts) are frozen from the current values on every
call; gradients flow only through the continuous distances. That frozen
surrogate is the documented training objective. Where a member has
several equally near neighbors, its gradient goes to the one with the
lowest index.
"""

import math

import numpy as np

from . import autodiff as ad
from . import metrics
from .geometry import SpatialIndex, as_points

__all__ = [
    "generator_adversarial_loss",
    "discriminator_adversarial_loss",
    "uniform_loss",
    "reconstruction_loss",
    "compound_generator_loss",
]


# the weights of the compound generator loss, as in the paper
W_GAN = 0.5
W_RECONSTRUCTION = 100.0
W_UNIFORM = 10.0


def generator_adversarial_loss(conf_fake):
    """0.5 * (D(Q) - 1)^2 for a (1, 1) confidence node."""
    return ad.scale(ad.square(ad.add_scalar(conf_fake, -1.0)), 0.5)


def discriminator_adversarial_loss(conf_fake, conf_real):
    """0.5 * (D(Q)^2 + (D(Q_real) - 1)^2)."""
    return ad.scale(
        ad.add(ad.square(conf_fake), ad.square(ad.add_scalar(conf_real, -1.0))), 0.5
    )


def uniform_loss(q, p_values, seed_count, seed):
    """Differentiable uniformity loss summed over the area fractions
    `p_values`, each cropped around `seed_count` seeds.

    For the p at list index k, the frozen structure is drawn with rng
    seed `seed + k`, so the value equals the sum of
    metrics.uniformity_loss_value(q.value, p, seed_count, seed + k)
    over the list. Subset counts enter as constant multiplicative
    weights; only the nearest-neighbor distances carry gradient.

    Every crop of every p comes from one metrics.uniformity_crops call
    over one SpatialIndex. The graph is flat: each distinct (member,
    partner) pair's distance is computed once, and one
    autodiff.grouped_square_deviation op sums every crop of two or more
    members, in crop order, each member's pair distance taken against its
    crop's d_hat with weight imbalance / d_hat. That op keeps the member
    to pair index and one d_hat, weight and size per crop, so no node has
    a row per crop member.
    """
    n = q.shape[0]
    draws = [(p, seed + k) for k, p in enumerate(p_values)]
    sizes, members, partners = metrics.uniformity_crops(SpatialIndex(q.value), draws,
                                                        seed_count)
    kept, d_hats, weights = [], [], []
    for p, row in zip(p_values, sizes.tolist()):
        n_hat = metrics.expected_ball_count(n, p)
        for size in row:
            if size < 2:
                continue  # clutter is 0: no value, no gradient
            d_hat = metrics.hexagonal_neighbor_spacing(math.sqrt(p), size)
            kept.append(size)
            d_hats.append(d_hat)
            weights.append((size - n_hat) ** 2 / n_hat / d_hat)  # Python floats, as the metric
    if not kept:
        return ad.constant(np.zeros((1, 1)))
    paired = partners >= 0
    pairs, row_pair = np.unique(members[paired] * n + partners[paired], return_inverse=True)
    gaps = ad.row_distances(ad.gather_rows(q, pairs // n), ad.gather_rows(q, pairs % n))
    return ad.grouped_square_deviation(gaps, row_pair, kept, d_hats, weights)


def reconstruction_loss(q, target, _epsilon=None):
    """Earth-mover reconstruction: sum of matched L2 distances under the
    exact matching recomputed from current values. The third argument is
    ignored; perfbench/oracles.py passes a matching tolerance in it.

    Returns (loss node, Matching). The matching is frozen for the
    backward pass; each output point is pulled straight toward its
    matched target point."""
    target = as_points(target, "target")
    if q.shape[0] != len(target):
        raise ValueError(f"size mismatch: {q.shape[0]} output vs {len(target)} target points")
    matching = metrics.emd_exact(q.value, target)
    matched = ad.constant(target[matching.permutation])
    return ad.sum_all(ad.row_distances(q, matched)), matching


def compound_generator_loss(adv, rec, uni):
    """W_GAN * adv + W_RECONSTRUCTION * rec + W_UNIFORM * uni. Terms
    passed as None are absent (ablations)."""
    total = None
    for node, w in ((adv, W_GAN), (rec, W_RECONSTRUCTION), (uni, W_UNIFORM)):
        if node is None:
            continue
        term = ad.scale(node, w)
        total = term if total is None else ad.add(total, term)
    return total if total is not None else ad.constant(np.zeros((1, 1)))
