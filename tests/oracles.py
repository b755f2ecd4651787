"""Independent reference implementations used to cross-check the library.

Everything here deliberately takes the slow road: scores from the scalar
``Quaternion`` class (numpy complex128 for ``rotate``), sort-based ranks, and
exhaustive threshold scans. None of it shares code with the vectorized
production paths it verifies.
"""

from __future__ import annotations

import math

import numpy as np

from quatkge.data import HEAD, TAIL
from quatkge.quat import Quaternion


def _coordinates(row):
    """A (4, k) component-stacked row as k scalar quaternions."""
    return [Quaternion(*(float(x) for x in row[:, i])) for i in range(row.shape[1])]


def reference_score(table, h, r, t, scorer="quate_d") -> float:
    """One triple's score, coordinate by coordinate.

    quate_d and quate_inner rotate each head coordinate by the normalized
    relation coordinate with scalar quaternions; rotate multiplies the (a, b)
    components as complex numbers.
    """
    if scorer == "rotate":
        head, rel, tail = (np.asarray(row[0] + 1j * row[1], dtype=np.complex128)
                           for row in (table.entities[h], table.relations[r],
                                       table.entities[t]))
        return float(np.sqrt(np.sum(np.abs(head * (rel / np.abs(rel)) - tail) ** 2)))
    total = 0.0
    for x, w, y in zip(_coordinates(table.entities[h]),
                       _coordinates(table.relations[r]),
                       _coordinates(table.entities[t])):
        rotated = x * w.normalize()
        total += rotated.dot(y) if scorer == "quate_inner" else (rotated - y).norm_sq()
    return total if scorer == "quate_inner" else math.sqrt(total)


def sort_rank(scored: dict[int, float], gold: int) -> float:
    """Rank of `gold` among `scored` ids: mean position of its tied block."""
    values = np.array([scored[e] for e in sorted(scored)])
    ids = np.array(sorted(scored))
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    gold_val = scored[gold]
    first = int(np.searchsorted(sorted_vals, gold_val, side="left"))
    last = int(np.searchsorted(sorted_vals, gold_val, side="right"))
    assert gold in set(ids[order[first:last]])
    return ((first + 1) + last) / 2.0


def _rows(*splits):
    return [tuple(int(x) for x in row) for split in splits for row in split]


def observed_ids(store, relation, position):
    """Entities seen at `position` of `relation` in train; all when none are."""
    col = 0 if position == HEAD else 2
    seen = {row[col] for row in _rows(store.train) if row[1] == relation}
    return seen or set(range(store.n_entities))


def competitor_ids(store, triple, position):
    """Entities whose substitution at `position` is true in any split."""
    h, r, t = triple
    rows = _rows(store.train, store.valid, store.test)
    if position == HEAD:
        return {x for x, y, z in rows if y == r and z == t}
    return {z for x, y, z in rows if x == h and y == r}


def candidate_ids(store, triple, position, mode, constraint):
    """Allowed candidate entity ids for one query, gold always included.

    The type and filter sets come from scanning the splits, not from the
    store's indices.
    """
    h, r, t = triple
    gold = h if position == HEAD else t
    if constraint:
        allowed = observed_ids(store, r, position)
        allowed.add(gold)
    else:
        allowed = set(range(store.n_entities))
    if mode == "filtered":
        allowed -= competitor_ids(store, triple, position)
        allowed.add(gold)
    return allowed


def reference_ranks(table, store, mode, constraint=False, split="test"):
    """(relation, rank) per query via scalar scoring and sort-based ranking."""
    out = []
    for h, r, t in store.split(split):
        h, r, t = int(h), int(r), int(t)
        for position in (TAIL, HEAD):
            gold = t if position == TAIL else h
            scored = {}
            for e in candidate_ids(store, (h, r, t), position, mode, constraint):
                if position == TAIL:
                    scored[e] = reference_score(table, h, r, e)
                else:
                    scored[e] = reference_score(table, e, r, t)
            out.append((r, sort_rank(scored, gold)))
    return out


def reference_report(table, store, mode, constraint=False, split="test"):
    """Aggregate metrics from the reference ranks."""
    pairs = reference_ranks(table, store, mode, constraint, split)
    ranks = np.array([rank for _, rank in pairs])
    by_relation: dict[int, list[float]] = {}
    for relation, rank in pairs:
        by_relation.setdefault(relation, []).append(rank)
    return {
        "mr": float(ranks.mean()),
        "mrr": float((1.0 / ranks).mean()),
        "hits": {n: float(np.mean(ranks <= n)) for n in (1, 3, 10)},
        "per_relation_mrr": {rel: float(np.mean(1.0 / np.array(rr)))
                             for rel, rr in sorted(by_relation.items())},
        "count": len(ranks),
        "ranks": ranks,
    }


def dense_grads(table, buffer):
    """Scatter a GradientBuffer back to dense arrays for comparison."""
    ent = np.zeros_like(table.entities)
    rel = np.zeros_like(table.relations)
    ent[buffer.entity_ids] = buffer.entity_grads
    rel[buffer.relation_ids] = buffer.relation_grads
    return ent, rel


def finite_difference_check(table, pos, neg, config, eps=1e-6,
                            rel_tol=1e-5, abs_floor=1e-8):
    """Check every analytic partial against central finite differences.

    A partial passes through either arm: absolute difference within
    `abs_floor` (the finite-difference noise floor for tiny partials) or
    relative difference within `rel_tol`. Returns the worst relative error
    among the partials large enough to measure.
    """
    from quatkge.train import batch_loss, grad_batch

    buffer = grad_batch(table, pos, neg, config)
    dense_e, dense_r = dense_grads(table, buffer)
    worst_rel = 0.0
    for arr, dense in ((table.entities, dense_e), (table.relations, dense_r)):
        flat = arr.ravel()
        dflat = dense.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = batch_loss(table, pos, neg, config.margin, config.l1,
                            config.l2, config.loss_form)
            flat[idx] = orig - eps
            down = batch_loss(table, pos, neg, config.margin, config.l1,
                              config.l2, config.loss_form)
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
    from quatkge.model import init_embeddings
    from quatkge.train import TrainConfig

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


def reference_threshold(pos_scores, neg_scores, lower_is_better=True) -> float:
    """Exhaustive scan over midpoints of the pooled sorted scores."""
    merged = sorted(set(float(s) for s in np.concatenate([pos_scores, neg_scores])))
    candidates = ([merged[0] - 1.0]
                  + [(a + b) / 2.0 for a, b in zip(merged, merged[1:])]
                  + [merged[-1] + 1.0])
    best_th, best_acc = None, -1
    for th in candidates:
        if lower_is_better:
            acc = (sum(1 for s in pos_scores if s <= th)
                   + sum(1 for s in neg_scores if s > th))
        else:
            acc = (sum(1 for s in pos_scores if s >= th)
                   + sum(1 for s in neg_scores if s < th))
        if acc > best_acc:
            best_th, best_acc = th, acc
    return best_th
