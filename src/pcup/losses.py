"""Training objectives: least-squares adversarial terms, a differentiable
uniformity loss, exact earth-mover reconstruction, and the weighted
compound generator objective.

Discrete choices inside the losses (matching, seed picks, ball
membership, subset counts) are frozen from the current values on every
call; gradients flow only through the continuous distances. That frozen
surrogate is the documented training objective.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import metrics
from .geometry import as_points

__all__ = [
    "LossWeights",
    "UniformLossConfig",
    "generator_adversarial_loss",
    "discriminator_adversarial_loss",
    "uniform_loss",
    "reconstruction_loss",
    "compound_generator_loss",
]


@dataclass(frozen=True)
class LossWeights:
    gan: float = 0.5
    reconstruction: float = 100.0
    uniform: float = 10.0


@dataclass(frozen=True)
class UniformLossConfig:
    p_values: tuple = metrics.P_VALUES
    seed_count: int = 50


def generator_adversarial_loss(conf_fake):
    """0.5 * (D(Q) - 1)^2 for a (1, 1) confidence node."""
    return ad.scale(ad.square(ad.add_scalar(conf_fake, -1.0)), 0.5)


def discriminator_adversarial_loss(conf_fake, conf_real):
    """0.5 * (D(Q)^2 + (D(Q_real) - 1)^2)."""
    return ad.scale(
        ad.add(ad.square(conf_fake), ad.square(ad.add_scalar(conf_real, -1.0))), 0.5
    )


def uniform_loss(q, cfg=UniformLossConfig(), seed=0):
    """Differentiable uniformity loss summed over cfg.p_values.

    For the p at list index k, the frozen structure is drawn with rng
    seed `seed + k`, so the value equals the sum of
    metrics.uniformity_loss_value(q.value, p, cfg.seed_count, seed + k)
    over the list. Subset counts enter as constant multiplicative
    weights; only the nearest-neighbor distances carry gradient.
    """
    total = None
    for k, p in enumerate(cfg.p_values):
        _, n_hat, subsets = metrics.uniformity_subsets(q.value, p, cfg.seed_count, seed + k)
        for members, nn, d_hat in subsets:
            if nn is None:
                continue  # clutter is 0: no value, no gradient
            imbalance = (len(members) - n_hat) ** 2 / n_hat
            diff = ad.sub(ad.gather_rows(q, members), ad.gather_rows(q, nn))
            gaps = ad.sqrt(ad.rowwise_sum(ad.square(diff)))
            term = ad.scale(
                ad.sum_all(ad.square(ad.add_scalar(gaps, -d_hat))), imbalance / d_hat
            )
            total = term if total is None else ad.add(total, term)
    return total if total is not None else ad.constant(np.zeros((1, 1)))


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
    dist = ad.sqrt(ad.rowwise_sum(ad.square(ad.sub(q, matched))))
    return ad.sum_all(dist), matching


def compound_generator_loss(adv, rec, uni, weights=LossWeights()):
    """weights.gan * adv + weights.reconstruction * rec +
    weights.uniform * uni. Terms passed as None are absent (ablations)."""
    total = None
    for node, w in ((adv, weights.gan), (rec, weights.reconstruction), (uni, weights.uniform)):
        if node is None:
            continue
        term = ad.scale(node, w)
        total = term if total is None else ad.add(total, term)
    return total if total is not None else ad.constant(np.zeros((1, 1)))
