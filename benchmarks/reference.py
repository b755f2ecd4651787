"""Independent reference the benchmark checks the program against.

Nothing here imports ``quatkge``. The quaternion algebra, relation
normalization, distances, vocabulary, filter and type-candidate sets and
ranks are written out again from the method's definition:

* a triple (h, r, t) is scored by the distance between h (x) w_hat and t over
  all 4k real components, where w_hat normalizes each coordinate quaternion
  of the relation to unit magnitude; smaller is better;
* distances are direct differences |q - e|, never the norm expansion;
* a rank is mean-tie: b candidates strictly better and a tied block of s
  (gold included) give b + (s + 1) / 2;
* filtered ranking drops candidates that form a triple true in any split,
  except the gold; type constraints keep only the entities seen at that
  position of the relation in training, and put the gold back when missing.

Tables are component-stacked float64 arrays of shape (rows, 4, k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HITS_AT = (1, 3, 10)

# Ranks are compared as intervals. A candidate whose squared distance lies
# within TIE_TOL * (|q|^2 + max_e |e|^2) of the gold's may be ordered either
# way by a correct program: the program computes |q|^2 + |e|^2 - 2<q, e>,
# whose rounding error is about 4k * 2.2e-16 of that scale (~1e-13 at
# k = 100), 10^4 below this tolerance. Neighbouring squared distances on the
# benchmark's tables are ~1e-5 apart, so the interval is almost always one
# point and the check is exact.
TIE_TOL = 1e-9
# Aggregates are means of up to a few thousand ranks; summation order may
# differ from the program's.
SUM_TOL = 1e-9


def hamilton(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinate-wise Hamilton product x (x) y of (..., 4, k) arrays."""
    a1, b1, c1, d1 = (x[..., i, :] for i in range(4))
    a2, b2, c2, d2 = (y[..., i, :] for i in range(4))
    out = np.empty(np.broadcast_shapes(x.shape, y.shape))
    out[..., 0, :] = a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
    out[..., 1, :] = a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
    out[..., 2, :] = a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
    out[..., 3, :] = a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
    return out


def conjugate(x: np.ndarray) -> np.ndarray:
    sign = np.array([1.0, -1.0, -1.0, -1.0])[:, None]
    return x * sign


def unit_relation(w: np.ndarray) -> np.ndarray:
    """Each coordinate quaternion of `w` divided by its own magnitude."""
    mag = np.sqrt(np.sum(w * w, axis=-2, keepdims=True))
    if np.any(mag == 0.0):
        raise ValueError("relation has a zero coordinate")
    return w / mag


def imaginary_energy(w: np.ndarray) -> float:
    """Imaginary share of the normalized relation's squared magnitude (k)."""
    unit = unit_relation(w)
    return float(np.sum(unit[1:, :] ** 2) / unit.shape[-1])


def triple_distances(entities: np.ndarray, relations: np.ndarray,
                     triples: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """phi(h, r, t) for every row of an (n, 3) id array, by direct difference."""
    out = np.empty(triples.shape[0])
    for lo in range(0, triples.shape[0], chunk):
        rows = triples[lo:lo + chunk]
        rotated = hamilton(entities[rows[:, 0]], unit_relation(relations[rows[:, 1]]))
        diff = rotated - entities[rows[:, 2]]
        out[lo:lo + chunk] = np.sqrt(np.sum(diff * diff, axis=(1, 2)))
    return out


def margin_loss(entities, relations, positives, negatives, margin: float) -> float:
    """sum max(0, margin + phi(pos) - phi(neg)) over row-aligned pairs."""
    gap = (margin + triple_distances(entities, relations, positives)
           - triple_distances(entities, relations, negatives))
    return float(np.sum(np.maximum(gap, 0.0)))


def squared_distances(flat_entities: np.ndarray, queries: np.ndarray,
                      chunk: int = 256) -> np.ndarray:
    """|q - e|^2 for every query row against every entity row, (Q, N)."""
    out = np.empty((queries.shape[0], flat_entities.shape[0]))
    for lo in range(0, flat_entities.shape[0], chunk):
        diff = flat_entities[None, lo:lo + chunk, :] - queries[:, None, :]
        out[:, lo:lo + chunk] = np.einsum("qnc,qnc->qn", diff, diff)
    return out


class Graph:
    """Vocabulary, filter sets and type pools built from raw name triples."""

    def __init__(self, train, valid, test):
        self.entity_names: list[str] = []
        self.relation_names: list[str] = []
        entity_ids: dict[str, int] = {}
        relation_ids: dict[str, int] = {}
        for split in (train, valid, test):      # ids by first appearance
            for h, r, t in split:
                for name, ids, names in ((h, entity_ids, self.entity_names),
                                         (r, relation_ids, self.relation_names),
                                         (t, entity_ids, self.entity_names)):
                    if name not in ids:
                        ids[name] = len(names)
                        names.append(name)

        def encode(split):
            return np.array([(entity_ids[h], relation_ids[r], entity_ids[t])
                             for h, r, t in split], dtype=np.int64).reshape(-1, 3)

        self.train, self.valid, self.test = encode(train), encode(valid), encode(test)
        self.true_names = set(train) | set(valid) | set(test)
        self.tails_of: dict[tuple[int, int], set[int]] = {}
        self.heads_of: dict[tuple[int, int], set[int]] = {}
        for split in (self.train, self.valid, self.test):
            for h, r, t in split.tolist():
                self.tails_of.setdefault((h, r), set()).add(t)
                self.heads_of.setdefault((t, r), set()).add(h)
        heads: dict[int, set[int]] = {}
        tails: dict[int, set[int]] = {}
        for h, r, t in self.train.tolist():
            heads.setdefault(r, set()).add(h)
            tails.setdefault(r, set()).add(t)
        self.head_pool = {r: np.array(sorted(s), dtype=np.int64) for r, s in heads.items()}
        self.tail_pool = {r: np.array(sorted(s), dtype=np.int64) for r, s in tails.items()}

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    def candidates(self, triple, corrupt_head: bool, mode: str,
                   constraint: bool) -> tuple[np.ndarray, bool]:
        """Boolean candidate mask over entities (gold kept) and a reinserted flag."""
        h, r, t = triple
        gold = h if corrupt_head else t
        reinserted = False
        if constraint:
            pool = (self.head_pool if corrupt_head else self.tail_pool).get(r)
            if pool is not None:
                mask = np.zeros(self.n_entities, dtype=bool)
                mask[pool] = True
            else:                                # relation unseen: every entity
                mask = np.ones(self.n_entities, dtype=bool)
            if not mask[gold]:
                reinserted = True
        else:
            mask = np.ones(self.n_entities, dtype=bool)
        if mode == "filtered":
            true = (self.heads_of.get((t, r)) if corrupt_head
                    else self.tails_of.get((h, r)))
            mask[list(true or ())] = False
        mask[gold] = True
        return mask, reinserted


def mean_tie_rank(sq_dist: np.ndarray, gold: int, mask: np.ndarray,
                  tol: float = 0.0) -> tuple[float, float, float]:
    """(rank, lowest, highest) of the gold among masked candidates.

    rank is the mean-tie rank on these distances; lowest and highest bound the
    mean-tie rank of any scorer whose squared distances are within `tol` of
    these.
    """
    d = sq_dist[mask]
    g = sq_dist[gold]
    better = np.count_nonzero(d < g)
    tied = np.count_nonzero(d == g)               # gold included
    lowest = np.count_nonzero(d < g - tol) + 1
    highest = np.count_nonzero(d <= g + tol)
    return better + (tied + 1) / 2.0, float(lowest), float(highest)


@dataclass
class Ranking:
    """Per-query reference ranks of one split in one mode."""

    rank: np.ndarray
    lowest: np.ndarray
    highest: np.ndarray
    gold_reinserted: int

    @property
    def count(self) -> int:
        return int(self.rank.size)

    def mr(self) -> float:
        return float(self.rank.mean())

    def mrr(self) -> float:
        return float(np.mean(1.0 / self.rank))

    def bounds(self) -> dict[str, tuple[float, float]]:
        """Interval each aggregate of a correct program must fall in."""
        out = {"mr": (float(self.lowest.mean()), float(self.highest.mean())),
               "mrr": (float(np.mean(1.0 / self.highest)),
                       float(np.mean(1.0 / self.lowest)))}
        for n in HITS_AT:
            out[f"hits@{n}"] = (float(np.mean(self.highest <= n)),
                                float(np.mean(self.lowest <= n)))
        return out

    def compare(self, mr: float, mrr: float, hits: dict, count: int,
                gold_reinserted: int) -> list[str]:
        """Mismatches between a program report and this ranking (empty: agree)."""
        problems = []
        if count != self.count:
            problems.append(f"count {count} != {self.count}")
        if gold_reinserted != self.gold_reinserted:
            problems.append(f"gold_reinserted {gold_reinserted} != {self.gold_reinserted}")
        got = {"mr": mr, "mrr": mrr, **{f"hits@{n}": hits[n] for n in HITS_AT}}
        for key, (lo, hi) in self.bounds().items():
            if not (lo - SUM_TOL <= got[key] <= hi + SUM_TOL):
                problems.append(f"{key} {got[key]!r} outside [{lo!r}, {hi!r}]")
        return problems


def query_distances(entities: np.ndarray, relations: np.ndarray,
                    triples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared distances of every tail query and every head query, plus scales.

    Tail query (h, r, ?): distance from h (x) w_hat to each candidate tail.
    Head query (?, r, t): distance from e (x) w_hat to t for each candidate e,
    which equals the distance from t (x) conj(w_hat) to e because right
    multiplication by a unit quaternion is an isometry.
    """
    flat = entities.reshape(entities.shape[0], -1)
    unit = unit_relation(relations[triples[:, 1]])
    tail_q = hamilton(entities[triples[:, 0]], unit).reshape(len(triples), -1)
    head_q = hamilton(entities[triples[:, 2]], conjugate(unit)).reshape(len(triples), -1)
    row_max = float(np.max(np.sum(flat * flat, axis=1)))
    tails = squared_distances(flat, tail_q)
    heads = squared_distances(flat, head_q)
    scale = np.sum(tail_q * tail_q, axis=1) + row_max
    head_scale = np.sum(head_q * head_q, axis=1) + row_max
    return tails, heads, np.stack([scale, head_scale], axis=1)


def rank_split(graph: Graph, entities: np.ndarray, relations: np.ndarray,
               triples: np.ndarray, modes=("raw", "filtered"),
               constraint: bool = False) -> dict[str, Ranking]:
    """Reference ranks of the tail and head query of every triple, per mode."""
    tails, heads, scales = query_distances(entities, relations, triples)
    out = {}
    for mode in modes:
        ranks, lows, highs, reinserted = [], [], [], 0
        for i, (h, r, t) in enumerate(triples.tolist()):
            for corrupt_head, dist, gold, scale in ((False, tails[i], t, scales[i, 0]),
                                                    (True, heads[i], h, scales[i, 1])):
                mask, back = graph.candidates((h, r, t), corrupt_head, mode, constraint)
                rank, low, high = mean_tie_rank(dist, gold, mask, TIE_TOL * scale)
                ranks.append(rank)
                lows.append(low)
                highs.append(high)
                reinserted += int(back)
        out[mode] = Ranking(np.array(ranks), np.array(lows), np.array(highs), reinserted)
    return out


def seeded_negatives(graph: Graph, positives: np.ndarray, seed: int,
                     constraint: bool) -> np.ndarray:
    """One corruption per positive (fair coin for the side), unfiltered.

    The draw is the reference's own: it fixes a loss probe, not the
    program's sampler.
    """
    rng = np.random.default_rng(seed)
    everyone = np.arange(graph.n_entities)
    out = positives.copy()
    for i, (h, r, t) in enumerate(positives.tolist()):
        corrupt_head = bool(rng.integers(2))
        pool = (graph.head_pool if corrupt_head else graph.tail_pool).get(r)
        if not constraint or pool is None:
            pool = everyone
        out[i, 0 if corrupt_head else 2] = pool[rng.integers(pool.size)]
    return out
