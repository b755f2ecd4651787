"""Link-prediction ranking, aggregate metrics, and triple classification.

Ranks use mean tie handling: with b candidates scoring strictly better than
the gold entity and a tied block of size s (gold included), the rank is
b + (s + 1)/2, the average of the optimistic and pessimistic ranks. Filtered
mode removes candidates whose substitution forms a triple known true in any
split (other than the query itself). Type-constrained runs restrict the
candidate set to the relation's observed head/tail entities; when that set
excludes the gold entity it is added back and the event is counted.

A block of triples is the only unit of ranking. Its B tail queries and B
head queries are stacked into one (2B, C) query matrix with one (2B, N) bool
candidate mask, and the block's candidate columns, those that some query of
it may rank, are swept once, a column tile at a time. When they are at most
_GATHER_SHARE (3/4) of the table, the tiles run over their ids, so
type-constrained ranking costs in proportion to the block's pools; a tile
whose ids are not one contiguous run gathers their table rows first.
Otherwise the tiles run over the whole table. Each tile costs one matrix
product for the ranking key (``CandidateScorer``; lower first) and two
comparisons against each gold's key g, widened by a band of
_TIE_BAND * (|q|^2 + max |e|^2). A candidate below g - band is better; one
inside the band is re-scored, with the gold, by ``score_triples`` and
compared exactly. Ranks therefore follow ``score_triples`` (the direct
difference, for the distances), not the rounding of the key's expansion, so
they depend only on the table: not on the BLAS kernel, the block height,
the tile width or whether a tile was gathered.

The tiles of a block are cut into one contiguous span per ranking thread
(the CPUs the process may use, divided by the threads of each BLAS product),
and each span is swept on a thread of its own into its own integer counts,
which are added up once every span has ended; the thread count therefore
does not move a rank either. The spans share one _TILE_BYTES budget for
their tile buffers.

Before the first block, ``CandidateScorer`` computes |e|^2, max |e|^2 and the
non-finite check over every entity row, except under type constraints when
the rows the split can read, the pools of its relations plus its own heads
and tails, are at most _GATHER_SHARE of the table: then over those rows
alone. Every block's candidate columns and golds lie in them and every
block is compacted, so no key reads a row that was not normed, and the band
taken from their maximum covers every key's rounding. Relation rows are
always checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, train
from .data import HEAD, TAIL, TripleStore
from .model import CandidateScorer, EmbeddingTable, lower_is_better, score_triples

HITS_AT = (1, 3, 10)
MODES = ("raw", "filtered")

# Triples per ranking block, and float64 key bytes of the column tiles that
# a block's spans sweep at once: each of w workers gets 2,048 / w columns for
# the 256 queries of a full block. Probed before ranking was threaded, at
# N = 40,943, k = 100 on a 2-vCPU VM with one ranking thread and one OpenBLAS
# 0.3.31 thread, ranking a 512-triple split
# filtered with type constraints:
# blocks of 32, 64, 128 and 256 triples gave 812, 924, 1,008 and 943
# queries/s (one-direction blocks of 51 triples: 652), all at a peak RSS of
# 235 MB except 246 MB at 256; 1 to 16 MiB tiles were equal within noise,
# and a 100-row key product took 83 ms in 2,048-column tiles against 87-97 ms
# in 512 or 4,096-16,384.
_BLOCK_TRIPLES = 128
_TILE_BYTES = 4 * 2**20
# Half-width of the band around a gold's key, relative to |q|^2 + max |e|^2:
# about 10^4 times the key's rounding error at k = 100.
_TIE_BAND = 1e-9
# Largest share of the table's columns that a block sweeps as gathered
# tiles of its candidate columns; a block with more sweeps every column.
# Probed on a 40,943 x 400 table (2-vCPU VM, one thread, one OpenBLAS 0.3.31
# thread, best of 5), keying a random column subset in gathered tiles against
# every column in contiguous tiles: for 100 queries, 10% of the columns took
# 7.5 against 62 ms, 60% 43 against 62 ms, 75% 53 against 63 ms and 90% 65
# against 63 ms; for 50 and 256 queries 75% still gained (39 against 45 ms,
# 126 against 136 ms) and 90% no longer did for 50.
_GATHER_SHARE = 0.75


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


def _mean_rank(cand: CandidateScorer, rows: np.ndarray, queries: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
    """(2B,) mean-tie ranks of a (B, 3) block: its B tail queries, then its B
    head queries.

    `queries` is ``cand.queries(rows)``, `mask` the stacked (2B, N) candidate
    masks in the same order; the gold columns are cleared from `mask` here.
    The sweep runs over tiles of column ids `cols`. When the candidate
    columns, those that some query may rank, are at most _GATHER_SHARE of
    the table, `cols` holds just them and the mask is compacted to them;
    otherwise `cols` holds every column and the mask stays whole. A tile
    whose ids are one contiguous run is keyed on a slice of the table, any
    other on its rows gathered into a buffer that shares the tile budget
    with the keys. A block without a candidate column ranks every query
    first and keys nothing.

    The column tiles are cut into one contiguous span per worker. Each span
    counts into its own rows of `better` and `tied` with tile buffers that
    the calling thread allocates, so the ranks are sums of integer counts
    that no two threads share.
    """
    count, n = mask.shape
    gold = np.concatenate([rows[:, 2], rows[:, 0]])
    mask[np.arange(count), gold] = False
    cols = np.flatnonzero(mask.any(axis=0))
    if cols.size == 0:
        return np.ones(count)
    workers = model._worker_count()
    compact = cols.size <= _GATHER_SHARE * n
    if compact:
        mask = mask[:, cols]
        width = max(1, _TILE_BYTES // (8 * (count + queries.shape[1]) * workers))
    else:
        cols = np.arange(n)
        width = max(1, _TILE_BYTES // (8 * count * workers))
    m = mask.shape[1]
    scaled = cand.key_scale * queries
    band = _TIE_BAND * (np.einsum("bc,bc->b", queries, queries) + cand.max_row_sq)
    gold_keys = cand.pair_keys(scaled, gold)
    low, high = (gold_keys - band)[:, None], (gold_keys + band)[:, None]
    tiles = -(-m // width)
    spans = min(workers, tiles)
    better = np.zeros((spans, count), dtype=np.int64)
    tied = np.zeros((spans, count), dtype=np.int64)
    shape = (count, min(width, m))
    # every tile of the whole table is one run of ids, so only a compacted
    # sweep gathers rows
    buffers = [(np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape, dtype=bool),
                np.empty(count, dtype=np.int32),
                np.empty((shape[1], queries.shape[1])) if compact else None)
               for _ in range(spans)]

    def sweep(span: int, first: int, last: int) -> None:
        keys, below, near, tile_better, gathered = buffers[span]
        gold_exact = None
        for lo in range(first * width, min(m, last * width), width):
            hi = min(m, lo + width)
            part = slice(0, hi - lo)
            ids = cols[lo:hi]
            if ids[-1] - ids[0] == hi - lo - 1:  # one run of ids
                tile = cand.keys(scaled, ids[0], ids[-1] + 1, out=keys[:, part])
            else:
                tile = cand.gathered_keys(scaled, ids, gathered[part], out=keys[:, part])
            candidates = mask[:, lo:hi]
            tile_below = np.less(tile, low, out=below[:, part])
            tile_below &= candidates
            tile_near = np.less_equal(tile, high, out=near[:, part])
            tile_near &= candidates
            # int32 row sums count a bool block about twice as fast as
            # count_nonzero(axis=1), which sums through an intp cast
            tile_below.sum(axis=1, dtype=np.int32, out=tile_better)
            better[span] += tile_better
            if np.count_nonzero(tile_near) != tile_better.sum():
                if gold_exact is None:
                    gold_exact = np.tile(cand.exact(rows), 2)
                tile_near ^= tile_below  # the band
                query, entity = np.nonzero(tile_near)
                _settle(cand, rows, query, ids[entity], gold_exact, better[span],
                        tied[span])

    model._over_spans(sweep, tiles, spans)
    tied = tied.sum(axis=0) + 1  # the gold
    return better.sum(axis=0) + (tied + 1) / 2.0


def _settle(cand: CandidateScorer, rows: np.ndarray, query: np.ndarray,
            entity: np.ndarray, gold_exact: np.ndarray, better: np.ndarray,
            tied: np.ndarray) -> None:
    """Count in-band candidates `entity` of stacked queries `query` that
    score better than or equal to their gold, by ``score_triples``.

    A tail candidate e of triple (h, r, t) is scored as (h, r, e), a head
    candidate as (e, r, t). Candidates are scored in chunks of about
    _TILE_BYTES per (rows, 4, k) array and span, so that a table whose
    candidates all tie still ranks in bounded memory.
    """
    b = rows.shape[0]
    step = max(1, _TILE_BYTES // (32 * cand.table.k))
    for start in range(0, query.size, step):
        q, e = query[start:start + step], entity[start:start + step]
        triples = rows[q % b]
        tail = q < b
        triples[tail, 2] = e[tail]
        triples[~tail, 0] = e[~tail]
        exact, gold = cand.exact(triples), gold_exact[q]
        better += np.bincount(q[exact < gold], minlength=better.size)
        tied += np.bincount(q[exact == gold], minlength=tied.size)


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


def _readable_rows(triples: np.ndarray, pools: dict) -> np.ndarray | None:
    """Sorted ids of the entity rows that type-constrained ranking of
    `triples` reads: the tail and head pools of their relations and their
    own heads and tails. None when those are more than _GATHER_SHARE of the
    table; every row is then normed, as unconstrained ranking norms it.

    Each block's candidate columns and golds lie in these rows, so when the
    rows are at most _GATHER_SHARE of the table, every block is compacted
    and keys only them.
    """
    used = np.zeros(pools[TAIL].shape[0], dtype=bool)
    used[triples[:, 1]] = True
    readable = pools[TAIL][used].any(axis=0) | pools[HEAD][used].any(axis=0)
    readable[triples[:, 0]] = True
    readable[triples[:, 2]] = True
    ids = np.flatnonzero(readable)
    return ids if ids.size <= _GATHER_SHARE * readable.size else None


def link_prediction(table: EmbeddingTable, store: TripleStore,
                    mode: str = "filtered", constraint: bool = False,
                    scorer: str = "quate_d", split: str = "test") -> RankingReport:
    """Rank head and tail queries for every triple of the split.

    Triples are ranked _BLOCK_TRIPLES at a time, each block's tail and head
    queries in one sweep of the block's candidate columns. The ranks fill a
    ``(T, 2)`` array, tail then head per triple, so MR, MRR, Hits and
    per-relation MRR all sum the same values in the same order.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    triples = store.split(split)
    if triples.shape[0] == 0:
        raise ValueError(f"split {split!r} is empty")
    pools = ({position: store.type_pools(position) for position in (TAIL, HEAD)}
             if constraint else {TAIL: None, HEAD: None})
    cand = CandidateScorer(table, scorer, _readable_rows(triples, pools) if constraint else None)
    ranks = np.empty((triples.shape[0], 2))
    reinserted = 0
    for start in range(0, triples.shape[0], _BLOCK_TRIPLES):
        rows = triples[start:start + _BLOCK_TRIPLES]
        masks = []
        for position in (TAIL, HEAD):
            mask, added = _candidate_mask(store, rows, position, mode, pools[position])
            masks.append(mask)
            reinserted += int(np.count_nonzero(added))
        mask = np.concatenate(masks)
        del masks
        block_ranks = _mean_rank(cand, rows, cand.queries(rows), mask)
        ranks[start:start + rows.shape[0]] = block_ranks.reshape(2, -1).T
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
