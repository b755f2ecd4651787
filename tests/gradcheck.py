"""Finite-difference harness for the analytic gradients.

It drives the package's own loss and gradient, so it lives apart from the
independent references in ``oracles``.
"""

from __future__ import annotations

import numpy as np

from quatkge.model import init_embeddings
from quatkge.train import TrainConfig, batch_loss, grad_batch

from oracles import reference_score


def dense_grads(table, buffer):
    """Scatter a GradientBuffer back to dense entity and relation arrays."""
    dense = np.zeros_like(table.params)
    dense[buffer.ids] = buffer.grads
    return dense[:table.n_entities], dense[table.n_entities:]


def finite_difference_check(table, pos, neg, config, eps=1e-6,
                            rel_tol=1e-5, abs_floor=1e-8):
    """Check every analytic partial against central finite differences.

    A partial passes through either arm: absolute difference within
    `abs_floor` (the finite-difference noise floor for tiny partials) or
    relative difference within `rel_tol`. Returns the worst relative error
    among the partials large enough to measure.
    """
    buffer = grad_batch(table, pos, neg, config)
    dense_e, dense_r = dense_grads(table, buffer)
    worst_rel = 0.0
    for arr, dense in ((table.entities, dense_e), (table.relations, dense_r)):
        flat = arr.ravel()
        dflat = dense.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = batch_loss(table, pos, neg, config)
            flat[idx] = orig - eps
            down = batch_loss(table, pos, neg, config)
            flat[idx] = orig
            fd = (up - down) / (2 * eps)
            analytic = dflat[idx]
            diff = abs(fd - analytic)
            if diff <= abs_floor:
                continue
            rel = diff / max(abs(fd), abs(analytic))
            worst_rel = max(worst_rel, rel)
            assert rel < rel_tol, (
                f"gradient mismatch at flat index {idx}: fd={fd!r} "
                f"analytic={analytic!r} rel={rel:.3e} abs={diff:.3e}")
    return worst_rel


def random_batch(rng, n=5, m=2, neg_rate=2, batch=3):
    """Random positives with relation-preserving corruptions."""
    pos = np.stack([rng.integers(n, size=batch), rng.integers(m, size=batch),
                    rng.integers(n, size=batch)], axis=1)
    neg = np.stack([rng.integers(n, size=(batch, neg_rate)),
                    np.repeat(pos[:, 1][:, None], neg_rate, axis=1),
                    rng.integers(n, size=(batch, neg_rate))], axis=2)
    return pos, neg


def smooth_instance(seed, neg_rate, l1=0.0, l2=0.0, margin=1.0, n=5, m=2, k=4):
    """Random (table, batch) instance kept away from hinge kinks and phi = 0.

    Central differences are only meaningful where the loss is differentiable,
    so draws whose distances or hinge margins sit within 1e-4 of a kink are
    redrawn.
    """
    rng = np.random.default_rng(seed)
    while True:
        table = init_embeddings(n, m, k, seed=int(rng.integers(2**31)))
        pos, neg = random_batch(rng, n=n, m=m, neg_rate=neg_rate, batch=3)
        phis = []
        margins = []
        for i in range(pos.shape[0]):
            p = reference_score(table, *pos[i])
            phis.append(p)
            for j in range(neg.shape[1]):
                nscore = reference_score(table, *neg[i, j])
                phis.append(nscore)
                margins.append(margin + p - nscore)
        if min(phis) > 1e-4 and min(abs(m_) for m_ in margins) > 1e-4:
            cfg = TrainConfig(k=k, margin=margin, l1=l1, l2=l2,
                              neg_rate=neg_rate, epochs=1)
            return table, pos, neg, cfg
