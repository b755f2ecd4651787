"""Link-prediction ranking, aggregate metrics, and triple classification.

Ranks use mean tie handling: with b candidates scoring strictly better than
the gold entity and a tied block of size s (gold included), the rank is
b + (s + 1)/2, the average of the optimistic and pessimistic ranks. Filtered
mode removes candidates whose substitution forms a triple known true in any
split (other than the query itself). Type-constrained runs restrict the
candidate set to the relation's observed head/tail entities; when that set
excludes the gold entity it is added back and the event is counted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import train
from .data import HEAD, TAIL, TripleStore
from .model import CandidateScorer, EmbeddingTable, lower_is_better, score_triples

logger = logging.getLogger(__name__)

HITS_AT = (1, 3, 10)
MODES = ("raw", "filtered")

# Bytes of candidate scores alive at once while ranking a split: a block's
# tail and head score arrays, float64. At N = 40,943 it gives 25 triples per
# block; smaller budgets were measured slower at that size.
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


def _mean_rank(scores: np.ndarray, gold: int, mask: np.ndarray,
               lower_is_better: bool) -> float:
    gold_score = scores[gold]
    candidate_scores = scores[mask]
    if lower_is_better:
        better = int(np.count_nonzero(candidate_scores < gold_score))
    else:
        better = int(np.count_nonzero(candidate_scores > gold_score))
    tied = int(np.count_nonzero(candidate_scores == gold_score))  # gold included
    return better + (tied + 1) / 2.0


def _candidate_mask(store: TripleStore, triple, position: str, mode: str,
                    constraint: bool) -> tuple[np.ndarray, bool]:
    """Boolean candidate mask (gold always kept) plus a gold-reinserted flag."""
    gold = triple[0] if position == HEAD else triple[2]
    reinserted = False
    if constraint:
        relation = triple[1]
        mask = np.zeros(store.n_entities, dtype=bool)
        mask[store.type_candidates(relation, position)] = True
        if not mask[gold]:
            reinserted = True
            mask[gold] = True
            logger.debug("gold entity %d absent from type candidates of relation %d",
                         gold, relation)
    else:
        mask = np.ones(store.n_entities, dtype=bool)
    if mode == "filtered":
        mask[store.true_competitors(tuple(int(x) for x in triple), position)] = False
        mask[gold] = True
    return mask, reinserted


def rank_entity(table: EmbeddingTable, store: TripleStore, triple,
                position: str, mode: str = "filtered", constraint: bool = False,
                scorer: str = "quate_d") -> float:
    """Rank of the true entity among all candidates in the corrupted position."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    cand = CandidateScorer(table, scorer)
    h, r, t = (int(x) for x in triple)
    scores = cand.all_heads(r, t) if position == HEAD else cand.all_tails(h, r)
    mask, _ = _candidate_mask(store, (h, r, t), position, mode, constraint)
    gold = h if position == HEAD else t
    return _mean_rank(scores, gold, mask, lower_is_better(scorer))


def _iter_query_ranks(table, store, mode, constraint, scorer, split):
    """Yield (relation, rank, reinserted) for both directions of every triple.

    Triples are scored a block at a time, tails then heads; each block reads
    the entity table twice, and its size keeps both score arrays within
    _SCORE_BYTES.
    """
    cand = CandidateScorer(table, scorer)
    lower = lower_is_better(scorer)
    triples = store.split(split)
    block = max(1, _SCORE_BYTES // (2 * 8 * table.n_entities))
    for start in range(0, triples.shape[0], block):
        rows = triples[start:start + block]
        tail_block = cand.all_tails(rows[:, 0], rows[:, 1])
        head_block = cand.all_heads(rows[:, 1], rows[:, 2])
        for (h, r, t), tails, heads in zip(rows.tolist(), tail_block, head_block):
            for position, scores, gold in ((TAIL, tails, t), (HEAD, heads, h)):
                mask, reinserted = _candidate_mask(store, (h, r, t), position, mode,
                                                   constraint)
                yield r, _mean_rank(scores, gold, mask, lower), reinserted


def link_prediction(table: EmbeddingTable, store: TripleStore,
                    mode: str = "filtered", constraint: bool = False,
                    scorer: str = "quate_d", split: str = "test") -> RankingReport:
    """Rank head and tail queries for every triple of the split."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    ranks: list[float] = []
    by_relation: dict[int, list[float]] = {}
    reinserted_total = 0
    for relation, rank, reinserted in _iter_query_ranks(
            table, store, mode, constraint, scorer, split):
        ranks.append(rank)
        by_relation.setdefault(relation, []).append(rank)
        reinserted_total += int(reinserted)
    if not ranks:
        raise ValueError(f"split {split!r} is empty")
    arr = np.array(ranks)
    recip = 1.0 / arr
    return RankingReport(
        mr=float(arr.mean()),
        mrr=float(recip.mean()),
        hits={n: float(np.mean(arr <= n)) for n in HITS_AT},
        mode=mode,
        per_relation_mrr={rel: float(np.mean(1.0 / np.array(r_ranks)))
                          for rel, r_ranks in sorted(by_relation.items())},
        count=len(ranks),
        gold_reinserted=reinserted_total,
    )


def per_relation_mrr(table: EmbeddingTable, store: TripleStore,
                     mode: str = "filtered", constraint: bool = False,
                     scorer: str = "quate_d", split: str = "test") -> dict[int, float]:
    """Mean reciprocal rank restricted to each relation's test queries."""
    return link_prediction(table, store, mode, constraint, scorer, split).per_relation_mrr


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
