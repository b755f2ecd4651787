"""Link-prediction ranking, aggregate metrics, and triple classification.

Ranks use mean tie handling: with b candidates scoring strictly better than
the gold entity and a tied block of size s (gold included), the rank is
b + (s + 1)/2, the average of the optimistic and pessimistic ranks. Filtered
mode removes candidates whose substitution forms a triple known true in any
split (other than the query itself). Type-constrained runs restrict the
candidate set to the relation's observed head/tail entities; when that set
excludes the gold entity it is added back and the event is counted.

A block of queries is the only unit of ranking: one ``(B, N)`` score block
from the candidate sweep, one ``(B, N)`` bool candidate mask built from the
store's block lookups, and row-wise counts of better and tied candidates. A
block's tail scores are swept, masked and ranked before its head scores are
swept, so only one direction's scores are held at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import train
from .data import HEAD, TAIL, TripleStore
from .model import CandidateScorer, EmbeddingTable, lower_is_better, score_triples

HITS_AT = (1, 3, 10)
MODES = ("raw", "filtered")

# Sets the block height while ranking a split: 8 bytes per candidate per
# triple, room for one direction's float64 scores; 51 triples per block at
# N = 40,943. The bool candidate mask and _mean_rank's two bool comparison
# arrays come on top, one byte per candidate per triple each. Smaller budgets
# were measured slower at that size.
_SCORE_BYTES = 16 * 2**20


@dataclass
class RankingReport:
    """Aggregate link-prediction metrics over all head and tail queries."""

    mr: float
    mrr: float
    hits: dict[int, float]
    mode: str
    per_relation_mrr: dict[int, float]
    count: int
    gold_reinserted: int = 0


@dataclass
class ClassificationReport:
    """Triple-classification accuracy with per-relation score thresholds."""

    accuracy: float
    thresholds: dict[int, float]
    global_threshold: float
    count: int
    seed: int


def _mean_rank(scores: np.ndarray, gold: np.ndarray, mask: np.ndarray,
               lower_is_better: bool) -> np.ndarray:
    """``(B,)`` mean-tie ranks of each row's gold column among its masked
    candidates in a ``(B, N)`` score block."""
    gold_scores = scores[np.arange(gold.size), gold][:, None]
    better = scores < gold_scores if lower_is_better else scores > gold_scores
    better &= mask
    tied = scores == gold_scores  # gold included
    tied &= mask
    # int32 row sums count a bool block about twice as fast as
    # count_nonzero(axis=1), which sums through an intp cast
    return (better.sum(axis=1, dtype=np.int32)
            + (tied.sum(axis=1, dtype=np.int32) + 1) / 2.0)


def _candidate_mask(store: TripleStore, rows: np.ndarray, position: str, mode: str,
                    pools: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """``(B, N)`` candidate masks for a ``(B, 3)`` block (gold always kept)
    plus a ``(B,)`` gold-reinserted flag.

    `pools` is ``store.type_pools(position)`` under type constraints, else None.
    """
    gold = rows[:, 0] if position == HEAD else rows[:, 2]
    at_gold = (np.arange(rows.shape[0]), gold)
    if pools is None:
        mask = np.ones((rows.shape[0], store.n_entities), dtype=bool)
        reinserted = np.zeros(rows.shape[0], dtype=bool)
    else:
        mask = pools[rows[:, 1]]
        reinserted = ~mask[at_gold]
        mask[at_gold] = True
    if mode == "filtered":
        mask[store.true_competitors(rows, position)] = False
        mask[at_gold] = True
    return mask, reinserted


def link_prediction(table: EmbeddingTable, store: TripleStore,
                    mode: str = "filtered", constraint: bool = False,
                    scorer: str = "quate_d", split: str = "test") -> RankingReport:
    """Rank head and tail queries for every triple of the split.

    Triples are ranked a block at a time, in blocks sized by _SCORE_BYTES to
    hold one direction's scores: a block's tails are swept, masked and ranked,
    then its heads. The ranks fill a ``(T, 2)`` array, tail then head per
    triple, so MR, MRR, Hits and per-relation MRR all sum the same values in
    the same order.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    cand = CandidateScorer(table, scorer)
    lower = lower_is_better(scorer)
    triples = store.split(split)
    if triples.shape[0] == 0:
        raise ValueError(f"split {split!r} is empty")
    pools = ({position: store.type_pools(position) for position in (TAIL, HEAD)}
             if constraint else {TAIL: None, HEAD: None})
    ranks = np.empty((triples.shape[0], 2))
    reinserted = 0
    block = max(1, _SCORE_BYTES // (8 * table.n_entities))
    for start in range(0, triples.shape[0], block):
        rows = triples[start:start + block]
        h, r, t = rows.T
        # each sweep runs only when its direction is ranked, so the tail
        # scores are freed before the head sweep allocates its own
        for column, (position, sweep, gold) in enumerate((
                (TAIL, lambda: cand.all_tails(h, r), t),
                (HEAD, lambda: cand.all_heads(r, t), h))):
            mask, added = _candidate_mask(store, rows, position, mode, pools[position])
            ranks[start:start + block, column] = _mean_rank(sweep(), gold, mask, lower)
            reinserted += int(np.count_nonzero(added))
    ranks = ranks.ravel()
    recip = 1.0 / ranks
    relations = np.repeat(triples[:, 1], 2)
    return RankingReport(
        mr=float(ranks.mean()),
        mrr=float(recip.mean()),
        hits={n: float(np.mean(ranks <= n)) for n in HITS_AT},
        mode=mode,
        # a set, not np.unique, whose hash path imports numpy.ma (~1 MB RSS)
        per_relation_mrr={rel: float(np.mean(recip[relations == rel]))
                          for rel in sorted(set(triples[:, 1].tolist()))},
        count=ranks.size,
        gold_reinserted=reinserted,
    )


def _best_threshold(pos_scores: np.ndarray, neg_scores: np.ndarray,
                    lower_is_better: bool) -> float:
    """Threshold maximizing accuracy, scanned over midpoints of sorted scores.

    Deterministic tie-break: the smallest candidate threshold wins.
    """
    merged = np.unique(np.concatenate([pos_scores, neg_scores]))
    candidates = np.concatenate([[merged[0] - 1.0],
                                 (merged[:-1] + merged[1:]) / 2.0,
                                 [merged[-1] + 1.0]])
    pos_sorted = np.sort(pos_scores)
    neg_sorted = np.sort(neg_scores)
    pos_le = np.searchsorted(pos_sorted, candidates, side="right")
    neg_le = np.searchsorted(neg_sorted, candidates, side="right")
    if lower_is_better:
        correct = pos_le + (neg_sorted.size - neg_le)
    else:
        correct = (pos_sorted.size - pos_le) + neg_le
    return float(candidates[int(np.argmax(correct))])


def _classify(scores: np.ndarray, thresholds: np.ndarray,
              lower_is_better: bool) -> np.ndarray:
    if lower_is_better:
        return scores <= thresholds
    return scores >= thresholds


def triple_classification(table: EmbeddingTable, store: TripleStore,
                          constraint: bool = False, seed: int = 0,
                          scorer: str = "quate_d") -> ClassificationReport:
    """Learn per-relation thresholds on validation, report test accuracy.

    Every positive gets exactly one seeded, filtered corruption. Relations
    unseen in validation fall back to the pooled global threshold.
    """
    rng = np.random.default_rng(seed)
    lower = lower_is_better(scorer)
    constraint_mode = "type_constrained" if constraint else "none"

    def build_pairs(split: str):
        positives = store.split(split)
        if positives.shape[0] == 0:
            raise ValueError(f"split {split!r} is empty")
        negatives = train.sample_negatives(store, positives, 1, constraint_mode, rng)
        return (positives, score_triples(table, positives, scorer),
                score_triples(table, negatives, scorer))

    valid_triples, valid_pos, valid_neg = build_pairs("valid")
    test_triples, test_pos, test_neg = build_pairs("test")

    global_threshold = _best_threshold(valid_pos, valid_neg, lower)
    thresholds: dict[int, float] = {}
    for relation in np.unique(valid_triples[:, 1]):
        sel = valid_triples[:, 1] == relation
        thresholds[int(relation)] = _best_threshold(valid_pos[sel], valid_neg[sel], lower)

    per_query = np.array([thresholds.get(int(r), global_threshold)
                          for r in test_triples[:, 1]])
    correct = (np.count_nonzero(_classify(test_pos, per_query, lower))
               + np.count_nonzero(~_classify(test_neg, per_query, lower)))
    count = 2 * test_triples.shape[0]
    return ClassificationReport(
        accuracy=correct / count,
        thresholds=thresholds,
        global_threshold=global_threshold,
        count=count,
        seed=seed,
    )
