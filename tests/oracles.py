"""Independent reference implementations used to cross-check the library.

Everything here deliberately takes the slow road: scores from the scalar
``Quaternion`` class below (numpy complex128 for ``rotate``), sort-based
ranks, linear scans of the splits, exhaustive threshold scans, and the
one-shot table draw. The only names taken from the package are the ``data``
position constants, so none of it shares code with the vectorized production
paths it verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quatkge.data import HEAD, TAIL

EPS_NORM = 1e-12


class ZeroQuaternionError(ArithmeticError):
    """A scalar quaternion of magnitude at or below EPS_NORM was normalized."""


@dataclass(frozen=True, slots=True)
class Quaternion:
    """A scalar quaternion a + b*i + c*j + d*k."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        """Hamilton product (non-commutative) or scalar scaling."""
        if isinstance(other, Quaternion):
            return self.hamilton(other)
        if isinstance(other, (int, float)):
            return Quaternion(self.a * other, self.b * other,
                              self.c * other, self.d * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.a * other, self.b * other,
                              self.c * other, self.d * other)
        return NotImplemented

    def hamilton(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product self * other.

        Equivalent to the scalar/vector form (p0*q0 - v.w, p0*w + q0*v + v x w).
        """
        p0, p1, p2, p3 = self.a, self.b, self.c, self.d
        q0, q1, q2, q3 = other.a, other.b, other.c, other.d
        return Quaternion(
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 + p2 * q0 + p3 * q1 - p1 * q3,
            p0 * q3 + p3 * q0 + p1 * q2 - p2 * q1,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm_sq(self) -> float:
        """Squared magnitude a^2 + b^2 + c^2 + d^2."""
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def magnitude(self) -> float:
        return math.sqrt(self.norm_sq())

    def dot(self, other: "Quaternion") -> float:
        return (self.a * other.a + self.b * other.b
                + self.c * other.c + self.d * other.d)

    def normalize(self, eps: float = EPS_NORM) -> "Quaternion":
        """Scale to unit magnitude; raises ZeroQuaternionError below eps."""
        mag = self.magnitude()
        if mag <= eps:
            raise ZeroQuaternionError(f"cannot normalize quaternion with magnitude {mag!r}")
        return Quaternion(self.a / mag, self.b / mag, self.c / mag, self.d / mag)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


Quaternion.ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
Quaternion.ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
Quaternion.I = Quaternion(0.0, 1.0, 0.0, 0.0)
Quaternion.J = Quaternion(0.0, 0.0, 1.0, 0.0)
Quaternion.K = Quaternion(0.0, 0.0, 0.0, 1.0)


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


def reference_ranks(table, store, mode, constraint=False, split="test",
                    scorer="quate_d"):
    """(relation, rank) per query via scalar scoring and sort-based ranking;
    ``quate_inner`` ranks higher scores first."""
    sign = -1.0 if scorer == "quate_inner" else 1.0
    out = []
    for h, r, t in store.split(split):
        h, r, t = int(h), int(r), int(t)
        for position in (TAIL, HEAD):
            gold = t if position == TAIL else h
            scored = {}
            for e in candidate_ids(store, (h, r, t), position, mode, constraint):
                triple = (h, r, e) if position == TAIL else (e, r, t)
                scored[e] = sign * reference_score(table, *triple, scorer)
            out.append((r, sort_rank(scored, gold)))
    return out


def reference_report(table, store, mode, constraint=False, split="test",
                     scorer="quate_d"):
    """Aggregate metrics from the reference ranks, plus the number of golds
    outside their type pool (counted only when `constraint` is set)."""
    pairs = reference_ranks(table, store, mode, constraint, split, scorer)
    ranks = np.array([rank for _, rank in pairs])
    by_relation: dict[int, list[float]] = {}
    for relation, rank in pairs:
        by_relation.setdefault(relation, []).append(rank)
    reinserted = (sum(gold not in observed_ids(store, r, position)
                      for h, r, t in _rows(store.split(split))
                      for position, gold in ((TAIL, t), (HEAD, h)))
                  if constraint else 0)
    return {
        "mr": float(ranks.mean()),
        "mrr": float((1.0 / ranks).mean()),
        "hits": {n: float(np.mean(ranks <= n)) for n in (1, 3, 10)},
        "per_relation_mrr": {rel: float(np.mean(1.0 / np.array(rr)))
                             for rel, rr in sorted(by_relation.items())},
        "count": len(ranks),
        "gold_reinserted": reinserted,
        "ranks": ranks,
    }


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


def reference_draw_rows(rng: np.random.Generator, out: np.ndarray) -> None:
    """The scaled polar draw of (rows, 4, k) `out` in one shot: theta, rho and
    every Gaussian direction drawn whole, then combined."""
    rows, _, k = out.shape
    bound = 1.0 / math.sqrt(2.0 * k)
    theta = rng.uniform(-math.pi, math.pi, size=(rows, k))
    rho = rng.uniform(-bound, bound, size=(rows, k))
    gauss = rng.standard_normal(size=(rows, 3, k))
    norms = np.sqrt(np.einsum("rck,rck->rk", gauss, gauss))
    degenerate = norms <= 1e-12
    if np.any(degenerate):
        gauss[:, 0, :][degenerate] = 1.0
        norms[degenerate] = 1.0
    # Built in place: the imaginary parts are the direction times
    # rho*sin(theta), the real part rho*cos(theta).
    imag = np.divide(gauss, norms[:, None, :], out=out[:, 1:, :])
    del gauss
    imag *= (rho * np.sin(theta))[:, None, :]
    np.multiply(rho, np.cos(theta), out=out[:, 0, :])


def reference_init(n_entities: int, n_relations: int, k: int, rng) -> np.ndarray:
    """(N + M, 4, k) parameters drawn one-shot from `rng`, entities first."""
    params = np.empty((n_entities + n_relations, 4, k))
    reference_draw_rows(rng, params[:n_entities])
    reference_draw_rows(rng, params[n_entities:])
    return params
