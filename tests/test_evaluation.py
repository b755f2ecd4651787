import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quatkge import evaluation, model
from quatkge.data import HEAD, TAIL
from quatkge.errors import ZeroQuaternionError
from quatkge.evaluation import link_prediction, triple_classification
from quatkge.evaluation import _best_threshold, _candidate_mask, _mean_rank
from quatkge.model import CandidateScorer, EmbeddingTable, init_embeddings

from conftest import make_store, random_store
import oracles


def use_workers(monkeypatch, count):
    """Rank as if the process could run on `count` CPUs."""
    monkeypatch.setattr(model, "_worker_count", lambda: count)


def line_table(positions, n_relations=1, k=1):
    """Entities on the real line, identity relations: phi = |x_h - x_t|."""
    n = len(positions)
    table = init_embeddings(n, n_relations, k, seed=0)
    table.entities[:] = 0.0
    table.entities[:, 0, 0] = positions
    table.relations[:] = 0.0
    table.relations[:, 0, :] = 1.0
    return table


def rank_block(table, store, rows, mode="raw", constraint=False, scorer="quate_d"):
    """(2B,) ranks of a (B, 3) block through the ranking path: tails, then heads."""
    rows = np.asarray(rows, dtype=np.int64)
    cand = CandidateScorer(table, scorer)
    mask = np.concatenate([
        _candidate_mask(store, rows, position, mode,
                        store.type_pools(position) if constraint else None)[0]
        for position in (TAIL, HEAD)])
    return _mean_rank(cand, rows, cand.queries(rows), mask)


def rank_row(scores, gold, mask, lower):
    """Rank of candidate `gold` among the masked `scores` of one tail query.

    The query is (0, 0, gold + 1) on a line table that puts candidate i at
    position scores[i] and the head, entity 0, outside the candidates: at 0
    for ``quate_d`` and at 1 for ``quate_inner`` (higher is better), so every
    candidate's score is its position.
    """
    scorer = "quate_d" if lower else "quate_inner"
    table = line_table([0.0 if lower else 1.0, *scores])
    rows = np.array([[0, 0, gold + 1]])
    cand = CandidateScorer(table, scorer)
    tail_mask = np.concatenate([[False], mask])
    masks = np.stack([tail_mask, np.zeros_like(tail_mask)])
    return _mean_rank(cand, rows, cand.queries(rows), masks)[0]


def rank_entity(table, store, triple, position, mode, constraint=False,
                scorer="quate_d"):
    """One query's rank through a one-triple block of the ranking path."""
    ranks = rank_block(table, store, [triple], mode, constraint, scorer)
    return ranks[0 if position == TAIL else 1]


class TestMeanRank:
    def test_unique_best(self):
        scores = np.array([0.0, 1.0, 2.0, 3.0])
        mask = np.ones(4, dtype=bool)
        assert rank_row(scores, 0, mask, True) == 1.0

    def test_mean_of_tied_block(self):
        scores = np.array([1.0, 2.0, 2.0, 2.0, 5.0])
        mask = np.ones(5, dtype=bool)
        # gold in a 3-way tie behind one better: positions 2, 3, 4
        assert rank_row(scores, 2, mask, True) == 3.0

    def test_matches_sort_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            scores = np.round(rng.uniform(0, 3, size=12), 1)  # force ties
            mask = rng.uniform(size=12) < 0.8
            gold = int(rng.integers(12))
            mask[gold] = True
            got = rank_row(scores, gold, mask, True)
            scored = {i: float(scores[i]) for i in np.flatnonzero(mask)}
            assert got == oracles.sort_rank(scored, gold)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=30)
        mask = np.ones(30, dtype=bool)
        for gold in range(30):
            assert (rank_row(scores, gold, mask, True)
                    == rank_row(2.0 * scores + 1.0, gold, mask, True))

    def test_higher_is_better_direction(self):
        scores = np.array([0.1, 0.9, 0.5])
        mask = np.ones(3, dtype=bool)
        assert rank_row(scores, 1, mask, False) == 1.0
        assert rank_row(scores, 0, mask, False) == 3.0


class TestRankEntity:
    def test_five_entity_sort_oracle(self):
        store = random_store(np.random.default_rng(2), n_entities=5,
                             n_relations=2, n_train=8, n_valid=2, n_test=2)
        table = init_embeddings(5, 2, 3, seed=1)
        for split in ("valid", "test"):
            for triple in store.split(split):
                h, r, t = (int(x) for x in triple)
                for position, gold in ((TAIL, t), (HEAD, h)):
                    for mode in ("raw", "filtered"):
                        got = rank_entity(table, store, (h, r, t), position, mode)
                        ids = oracles.candidate_ids(store, (h, r, t), position,
                                                    mode, False)
                        scored = {e: (oracles.reference_score(table, h, r, e)
                                      if position == TAIL
                                      else oracles.reference_score(table, e, r, t))
                                  for e in ids}
                        assert got == oracles.sort_rank(scored, gold)

    def test_true_entity_with_minimal_score_ranks_first(self):
        # sign-flip relation maps the head at 2.0 onto the gold at -2.0,
        # a unique zero-distance match
        table = line_table([2.0, -2.0, 5.0, 7.0], n_relations=2)
        table.relations[0, 0, :] = -1.0
        names = [f"e{i}" for i in range(4)]
        train = [("e0", "r", "e1")] + [(n, "pad", n) for n in names]
        store = make_store(train, [], [("e0", "r", "e1")])
        assert rank_entity(table, store, (0, 0, 1), TAIL, "raw") == 1.0

    def test_filtered_removes_true_competitor(self):
        # b sits between a and c; (a,r,b) is known true, so the filtered
        # tail query (a,r,c) must rank better than raw. The head a itself
        # stays a candidate at distance zero in both modes.
        table = line_table([0.0, 0.1, 0.5])
        store = make_store([("a", "r", "b")], [("a", "r", "c")])
        triple = (0, 0, store.entity_names.index("c"))
        raw = rank_entity(table, store, triple, TAIL, "raw")
        filtered = rank_entity(table, store, triple, TAIL, "filtered")
        assert filtered < raw
        assert raw == 3.0 and filtered == 2.0

    def test_fixed_rank_eleven(self):
        # exactly ten candidates strictly closer to the query than the gold
        # tail (nine planted plus the head itself), two farther
        positions = [0.0] + [float(i) for i in range(1, 10)] + [9.5, 20.0, 30.0]
        table = line_table(positions, n_relations=2)
        names = [f"e{i}" for i in range(len(positions))]
        train = [(names[0], "r", names[10])] + [(n, "pad", n) for n in names]
        store = make_store(train, [], [(names[0], "r", names[10])])
        assert rank_entity(table, store, (0, 0, 10), TAIL, "raw") == 11.0

    def test_bad_mode(self, fixture50):
        store, table = fixture50
        with pytest.raises(ValueError):
            link_prediction(table, store, "sorted")


def near_tie_instance():
    """A one-triple store whose candidates all fall inside the tie band."""
    table = line_table([1e8, 1e8 + 1e-3, 1e8 + 2e-3, 1e8 + 3e-3], n_relations=2)
    names = [f"e{i}" for i in range(4)]
    store = make_store([(n, "pad", n) for n in names], [], [("e0", "r", "e3")])
    assert tuple(store.test[0]) == (0, store.relation_names.index("r"), 3)
    return table, store


def small_pools_instance(k=6):
    """A 48-entity store whose relations' type pools each hold at most 5 of
    its entities (drawn from 5 heads and 5 tails), scattered over the ids,
    and whose test split interleaves the relations; two test golds lie
    outside their pools."""
    rng = np.random.default_rng(17)
    n, relations = 48, 3
    names = [f"e{i}" for i in range(n)]
    pools = {r: (rng.choice(n, 5, replace=False), rng.choice(n, 5, replace=False))
             for r in range(relations)}
    seen = set()

    def draw(r):
        while True:
            h, t = int(rng.choice(pools[r][0])), int(rng.choice(pools[r][1]))
            if h != t and (h, r, t) not in seen:
                seen.add((h, r, t))
                return names[h], f"r{r}", names[t]

    train = [(e, "pad", e) for e in names] + [draw(r) for r in range(relations)
                                              for _ in range(6)]
    valid = [draw(r) for r in range(relations) for _ in range(2)]
    test = [draw(i % relations) for i in range(11)]
    test += [(names[0], "r0", names[1]), (names[2], "r1", names[3])]
    store = make_store(train, valid, test)
    for position in (TAIL, HEAD):
        sizes = store.type_pools(position).sum(axis=1)
        assert sizes[store.relation_names.index("pad")] == n
        assert np.sort(sizes)[:-1].max() <= n // 4
    return store, init_embeddings(n, store.n_relations, k, seed=19)


class TestLinkPrediction:
    def test_perfect_model(self):
        # self-loop test triples with identity relation: phi(x, r, x) = 0 and
        # every other candidate is strictly worse
        positions = [float(i) for i in range(6)]
        table = line_table(positions)
        names = [f"e{i}" for i in range(6)]
        loops = [(n, "r", n) for n in names]
        store = make_store(loops[:4], loops[4:5], loops[5:])
        report = link_prediction(table, store, mode="filtered")
        assert report.mr == 1.0 and report.mrr == 1.0
        assert all(v == 1.0 for v in report.hits.values())
        assert report.count == 2

    def test_near_tie_ranked_by_direct_difference(self, monkeypatch):
        # At |q|^2 = 1e16 the expansion |q|^2 + |e|^2 - 2<q, e> rounds in
        # steps of 2, so the squared distances 1e-6 to 9e-6 of these four
        # entities are lost in it; the direct differences separate them, and
        # the gold of both queries of (e0, r, e3) lies farthest away.
        table, store = near_tie_instance()
        settled_on = set()
        settle = evaluation._settle

        def recording(*args):
            settled_on.add(threading.get_ident())
            return settle(*args)

        monkeypatch.setattr(evaluation, "_settle", recording)
        # at the default tile width, then in one-column tiles, so that with
        # 2 or 3 workers every span settles candidates of its own
        for workers in (None, 1, 2, 3):
            if workers is not None:
                use_workers(monkeypatch, workers)
                monkeypatch.setattr(evaluation, "_TILE_BYTES", 16)
            for mode in ("raw", "filtered"):
                settled_on.clear()
                report = link_prediction(table, store, mode=mode)
                expected = oracles.reference_report(table, store, mode)
                assert expected["mr"] == 4.0
                assert report.mr == expected["mr"]
                assert report.mrr == expected["mrr"]
                assert report.hits == expected["hits"]
                # thread ids can be reused once a span's thread has ended
                assert (len(settled_on) >= 2) == (workers in (2, 3))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_near_tie_in_a_later_gathered_tile(self, monkeypatch, workers):
        # Relation r's pools are 3 tails and 1 head of 40 entities, so the
        # block of (e5, r, e37) sweeps its candidate columns 13, 21, 29 and
        # 33 in gathered tiles of two. Every entity lies at 0 but e5 and its
        # gold tail e37 (2e-3 apart at 1e8), the tail competitor e33 (1e-3
        # from e5) and the head competitor e29 (1e-3 from e37): both in-band
        # competitors sit in the second tile, and the first tile holds only
        # far candidates, so each query ranks 2 only if the second tile's
        # candidates map back to their own ids.
        positions = np.zeros(40)
        positions[[5, 37, 33, 29]] = 1e8, 1e8 + 2e-3, 1e8 + 1e-3, 1e8 + 3e-3
        table = line_table(positions, n_relations=2)
        names = [f"e{i}" for i in range(40)]
        train = [(e, "pad", e) for e in names] + [("e29", "r", f"e{t}")
                                                  for t in (13, 21, 33)]
        store = make_store(train, [], [("e5", "r", "e37")])
        assert store.entity_names == names
        # a one-triple block's 2 queries and 4 key columns, two columns a worker
        monkeypatch.setattr(evaluation, "_TILE_BYTES", 8 * (2 + 4) * 2 * workers)
        use_workers(monkeypatch, workers)
        tiles = []
        gathered_keys = CandidateScorer.gathered_keys

        def recording(cand, scaled, ids, rows, out=None):
            tiles.append(ids.tolist())
            return gathered_keys(cand, scaled, ids, rows, out)

        monkeypatch.setattr(CandidateScorer, "gathered_keys", recording)
        for mode in ("raw", "filtered"):
            tiles.clear()
            report = link_prediction(table, store, mode=mode, constraint=True)
            expected = oracles.reference_report(table, store, mode, constraint=True)
            assert expected["ranks"].tolist() == [2.0, 2.0]
            assert report.mr == expected["mr"] and report.mrr == expected["mrr"]
            assert report.hits == expected["hits"]
            assert report.gold_reinserted == expected["gold_reinserted"] == 2
            assert sorted(tiles) == [[13, 21], [29, 33]]

    @pytest.mark.parametrize("mode, test", [
        # the pools of r hold b, c and a, d; valid makes c and d true
        # competitors of the test triple's queries
        ("filtered", [("a", "r", "b")]),
        # the pools of r2 hold only the test triple's own golds
        ("raw", [("x", "r2", "y")]),
    ])
    def test_block_without_candidate_columns(self, monkeypatch, mode, test):
        names = [f"e{i}" for i in range(12)]
        train = ([(e, "pad", e) for e in names]
                 + [("a", "r", "b"), ("d", "r", "c"), ("x", "r2", "y")])
        store = make_store(train, [("a", "r", "c"), ("d", "r", "b")], test)
        table = init_embeddings(store.n_entities, store.n_relations, 3, seed=6)

        def forbidden(*args, **kwargs):
            raise AssertionError("a block without candidate columns was keyed")

        monkeypatch.setattr(CandidateScorer, "keys", forbidden)
        monkeypatch.setattr(CandidateScorer, "gathered_keys", forbidden)
        assert rank_block(table, store, store.test, mode, True).tolist() == [1.0, 1.0]
        report = link_prediction(table, store, mode=mode, constraint=True)
        assert report.mr == report.mrr == 1.0
        assert report.mr == oracles.reference_report(table, store, mode, True)["mr"]

    def test_oracle_equivalence_fixture50(self, fixture50):
        store, table = fixture50
        for mode in ("raw", "filtered"):
            report = link_prediction(table, store, mode=mode)
            expected = oracles.reference_report(table, store, mode)
            assert report.mr == expected["mr"]
            assert report.mrr == expected["mrr"]
            assert report.hits == expected["hits"]
            assert report.per_relation_mrr == expected["per_relation_mrr"]
            assert report.count == expected["count"]

    def test_oracle_equivalence_type_constrained(self, fixture50):
        store, table = fixture50
        for mode in ("raw", "filtered"):
            report = link_prediction(table, store, mode=mode, constraint=True)
            expected = oracles.reference_report(table, store, mode, constraint=True)
            assert report.mr == expected["mr"]
            assert report.mrr == expected["mrr"]
            assert report.hits == expected["hits"]

    def test_filtered_ranks_never_worse(self, fixture50):
        store, table = fixture50
        raw = oracles.reference_ranks(table, store, "raw")
        filt = oracles.reference_ranks(table, store, "filtered")
        for (_, rr), (_, rf) in zip(raw, filt):
            assert rf <= rr

    def test_report_invariants(self, fixture50):
        store, table = fixture50
        report = link_prediction(table, store, mode="filtered")
        assert report.hits[1] <= report.hits[3] <= report.hits[10]
        assert 1.0 / report.mr <= report.mrr
        assert 0.0 < report.mrr <= 1.0
        weights = {rel: 0 for rel in report.per_relation_mrr}
        for h, r, t in store.test:
            weights[int(r)] += 2
        recombined = sum(report.per_relation_mrr[rel] * w
                         for rel, w in weights.items()) / sum(weights.values())
        assert recombined == pytest.approx(report.mrr, abs=1e-12)

    def test_extra_entity_never_improves_filtered_rank(self, fixture50):
        store, table = fixture50
        base = dict(zip([tuple(map(int, row)) for row in store.test],
                        [None] * len(store.test)))
        raw_triples = lambda arr: [(f"e{h}", f"r{r}", f"e{t}")
                                   for h, r, t in arr.tolist()]
        extended = make_store(
            raw_triples(store.train) + [("stranger", "r_new", "e0")],
            raw_triples(store.valid), raw_triples(store.test))
        bigger = init_embeddings(extended.n_entities, extended.n_relations,
                                 table.k, seed=13)
        bigger.entities[:store.n_entities] = table.entities
        bigger.relations[:store.n_relations] = table.relations
        for triple in store.test:
            h, r, t = (int(x) for x in triple)
            for position in (TAIL, HEAD):
                before = rank_entity(table, store, (h, r, t), position, "filtered")
                after = rank_entity(bigger, extended, (h, r, t), position,
                                    "filtered")
                assert after >= before

    def test_single_relation_per_relation_map(self):
        store = random_store(np.random.default_rng(3), n_entities=10,
                             n_relations=1, n_train=15, n_valid=3, n_test=4)
        table = init_embeddings(10, 1, 3, seed=2)
        report = link_prediction(table, store, mode="filtered")
        assert set(report.per_relation_mrr) == {0}
        assert report.per_relation_mrr[0] == pytest.approx(report.mrr)
        assert link_prediction(table, store).per_relation_mrr == report.per_relation_mrr

    def test_empty_split_raises_before_scoring(self, monkeypatch):
        store = make_store([("a", "r", "b")], [("a", "r", "b")], [])
        table = init_embeddings(store.n_entities, store.n_relations, 3, seed=3)

        def forbidden(*args):
            raise AssertionError("scorer built for an empty split")

        monkeypatch.setattr(evaluation, "CandidateScorer", forbidden)
        with pytest.raises(ValueError, match="split 'test' is empty"):
            link_prediction(table, store)

    def test_gold_reinserted_counted(self):
        # relation r's training tails never include the test tail "odd"
        train = [("a", "r", "b"), ("c", "r", "b"), ("a", "r2", "odd")]
        test = [("a", "r", "odd")]
        store = make_store(train, [("c", "r", "b")], test)
        table = init_embeddings(store.n_entities, store.n_relations, 3, seed=3)
        report = link_prediction(table, store, mode="filtered", constraint=True)
        assert report.gold_reinserted == 1


class TestThreshold:
    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pos = rng.uniform(0, 2, size=rng.integers(2, 15))
            neg = rng.uniform(0, 2, size=rng.integers(2, 15))
            assert (_best_threshold(pos, neg, True)
                    == oracles.reference_threshold(pos, neg, True))
            assert (_best_threshold(pos, neg, False)
                    == oracles.reference_threshold(pos, neg, False))

    def test_separable(self):
        th = _best_threshold(np.array([0.1, 0.2]), np.array([1.0, 2.0]), True)
        assert 0.2 < th < 1.0


class TestTripleClassification:
    def test_perfectly_separated(self):
        # self-loops score 0; corruptions land elsewhere and score > 0
        positions = [float(i) for i in range(8)]
        table = line_table(positions)
        names = [f"e{i}" for i in range(8)]
        loops = [(n, "r", n) for n in names]
        store = make_store(loops[:5], loops[5:7], loops[7:])
        report = triple_classification(table, store, seed=0)
        assert report.accuracy == 1.0
        assert report.count == 2

    def test_uninformative_model_near_half(self):
        # identical embeddings: every score equal, all pairs classified true
        store = random_store(np.random.default_rng(5), n_entities=12,
                             n_train=40, n_valid=20, n_test=20)
        table = init_embeddings(12, 3, 2, seed=4)
        table.entities[:] = table.entities[0]
        report = triple_classification(table, store, seed=1)
        assert report.accuracy == 0.5

    def test_deterministic_given_seed(self, fixture50):
        store, table = fixture50
        a = triple_classification(table, store, seed=7)
        b = triple_classification(table, store, seed=7)
        assert a.accuracy == b.accuracy
        assert a.thresholds == b.thresholds

    def test_thresholds_cover_validation_relations(self, fixture50):
        store, table = fixture50
        report = triple_classification(table, store, seed=2)
        assert set(report.thresholds) == {int(r) for r in store.valid[:, 1]}
        assert np.isfinite(report.global_threshold)
        assert all(np.isfinite(v) for v in report.thresholds.values())


class TestNonFiniteTable:
    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    def test_link_prediction_raises(self, fixture50, scorer):
        store, table = fixture50
        table.entities[int(store.test[0, 2]), 0, 0] = np.nan
        with pytest.raises(ZeroQuaternionError):
            link_prediction(table, store, mode="filtered", scorer=scorer)

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    def test_triple_classification_raises(self, fixture50, scorer):
        store, table = fixture50
        table.entities[int(store.valid[0, 0]), 1, 0] = np.inf
        with pytest.raises(ZeroQuaternionError):
            triple_classification(table, store, scorer=scorer)


class TestScoreBlocks:
    """Ranking a split a few triples at a time gives the reference ranks."""

    # key columns per tile of a full block; fixture50's 20 entities and the
    # pooled instance's 21 end in a partial tile
    TILE_COLUMNS = 6

    @classmethod
    def use_blocks(cls, monkeypatch, triples, columns=TILE_COLUMNS):
        monkeypatch.setattr(evaluation, "_BLOCK_TRIPLES", triples)
        monkeypatch.setattr(evaluation, "_TILE_BYTES", 8 * 2 * triples * columns)

    @staticmethod
    def assert_reference(report, table, store, mode, constraint, scorer="quate_d"):
        """Assert `report` equals the reference report, and return that."""
        expected = oracles.reference_report(table, store, mode, constraint,
                                            scorer=scorer)
        assert report.mr == expected["mr"]
        assert report.mrr == expected["mrr"]
        assert report.hits == expected["hits"]
        assert report.per_relation_mrr == expected["per_relation_mrr"]
        assert report.count == expected["count"]
        assert report.gold_reinserted == expected["gold_reinserted"]
        return expected

    @staticmethod
    def pooled_instance(store, table):
        """`store` plus three test triples: two whose gold, a new entity, lies
        outside relation 0's type pool, and one whose relation never occurs in
        training, so its pools fall back to every entity."""
        names = lambda arr: [(store.entity_names[h], store.relation_names[r],
                              store.entity_names[t]) for h, r, t in arr.tolist()]
        first, rel = store.entity_names[0], store.relation_names[0]
        extra = [(first, rel, "fresh"), ("fresh", rel, first), (first, "unseen", first)]
        pooled = make_store(names(store.train), names(store.valid),
                            names(store.test) + extra)
        return pooled, init_embeddings(pooled.n_entities, pooled.n_relations,
                                       table.k, seed=13)

    @pytest.mark.parametrize("triples", [1, 2, 3])
    def test_oracle_equivalence(self, fixture50, monkeypatch, triples):
        # the workers share a full block's 6 columns, in tiles of 6, 3 or 2:
        # fixture50's 20 entities end in a partial tile at 1 and 2 workers,
        # the pooled instance's 21 at 1 and 3
        instances = [(fixture50, 0), (self.pooled_instance(*fixture50), 2)]
        for (store, table), reinserted_at_least in instances:
            assert store.test.shape[0] % 3 != 0  # blocks of 3 end in a partial one
            assert store.n_entities % self.TILE_COLUMNS != 0
            self.use_blocks(monkeypatch, triples)
            for workers in (1, 2, 3):
                use_workers(monkeypatch, workers)
                for constraint in (False, True):
                    for mode in ("raw", "filtered"):
                        report = link_prediction(table, store, mode=mode,
                                                 constraint=constraint)
                        expected = self.assert_reference(report, table, store, mode,
                                                         constraint)
                        if constraint:
                            assert expected["gold_reinserted"] >= reinserted_at_least

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    @pytest.mark.parametrize("triples", [1, 2, 3])
    def test_oracle_equivalence_gathered(self, monkeypatch, triples, scorer):
        # Type-constrained blocks of small_pools_instance sweep a few of its
        # 48 columns in gathered tiles. A full block's budget holds 4 columns
        # of keys and of key columns (C = 24, or 12 for rotate's (a, b)), so
        # 1, 2 or 3 workers get tiles of 4, 2 or 1 columns (a partial block
        # a little more), and the sweep ends in a partial tile whenever a
        # block's columns do not divide;
        # unconstrained blocks sweep every column in contiguous tiles. The
        # second table, of entity components +-1 and relations +-1 (real),
        # ties often, so in-band candidates in gathered tiles are settled.
        store, table = small_pools_instance()
        signs = EmbeddingTable(np.where(table.params < 0, -1.0, 1.0), store.n_entities, 0)
        signs.relations[:, 1:] = 0.0
        tables = (table, signs)
        width = (2 if scorer == "rotate" else 4) * table.k
        monkeypatch.setattr(evaluation, "_BLOCK_TRIPLES", triples)
        monkeypatch.setattr(evaluation, "_TILE_BYTES", 8 * (2 * triples + width) * 4)
        gathered = []
        gathered_keys = CandidateScorer.gathered_keys

        def recording(cand, scaled, ids, rows, out=None):
            gathered.append(ids.size)
            return gathered_keys(cand, scaled, ids, rows, out)

        monkeypatch.setattr(CandidateScorer, "gathered_keys", recording)
        for workers, table, constraint, mode in itertools.product(
                (1, 2, 3), tables, (False, True), ("raw", "filtered")):
            use_workers(monkeypatch, workers)
            gathered.clear()
            report = link_prediction(table, store, mode=mode, constraint=constraint,
                                     scorer=scorer)
            expected = self.assert_reference(report, table, store, mode, constraint,
                                             scorer)
            if constraint:
                assert expected["gold_reinserted"] >= 2
            # a tile of one column is one run of ids, keyed on a slice
            assert bool(gathered) == (constraint and workers < 3)

    @pytest.mark.parametrize("workers, columns, spans", [
        (2, 40, 1),   # one tile: ranked on the calling thread
        (3, 30, 2),   # more workers than the two tiles
        (3, 21, 3),   # 7-column tiles, the last span ending in a partial one
        (5, 5, 5),    # five spans of one tile each
    ])
    def test_spans_of_tiles(self, fixture50, monkeypatch, workers, columns, spans):
        # unconstrained, each block's candidate columns are all 20, so every
        # block sweeps the whole table in contiguous tiles
        store, table = fixture50
        self.use_blocks(monkeypatch, 3, columns=columns)
        used = self.spans_used(monkeypatch, table, store, False, workers)
        # the scorer's row norms (20 rows: one span), then one sweep per
        # block of 3 triples; the last, partial block's tiles are wider
        assert used[0] == 1 and used[1] == spans
        assert len(used) == 1 + -(-store.test.shape[0] // 3)

    @pytest.mark.parametrize("workers, columns, spans", [
        (2, 16, [1, 1, 2, 2, 1]),  # 8-column tiles: two blocks in two tiles
        (2, 6, [2, 1, 2, 2, 1]),   # 3-column tiles, more tiles than workers
        (3, 9, [3, 1, 3, 3, 1]),   # 3-column tiles, some blocks in one tile
        (5, 5, [5, 3, 5, 5, 3]),   # one-column tiles, some blocks in fewer
    ])
    def test_spans_of_gathered_tiles(self, monkeypatch, workers, columns, spans):
        # Type-constrained blocks of 3 triples of small_pools_instance have 7,
        # 3, 13, 10 and 3 candidate columns. A full block's gathered tiles
        # hold `columns` columns of keys and of key columns (C = 24) in all,
        # so a worker's are columns // workers wide; the last block, of one
        # triple, gets (6 + 24) / (2 + 24) times as many.
        store, table = small_pools_instance()
        monkeypatch.setattr(evaluation, "_BLOCK_TRIPLES", 3)
        monkeypatch.setattr(evaluation, "_TILE_BYTES", 8 * (2 * 3 + 24) * columns)
        used = self.spans_used(monkeypatch, table, store, True, workers)
        assert used == [1] + spans

    def spans_used(self, monkeypatch, table, store, constraint, workers):
        """The span count of each `_over_spans` call of a filtered ranking on
        `workers` workers, after checking its report against one worker's
        and the reference."""
        use_workers(monkeypatch, 1)
        alone = link_prediction(table, store, constraint=constraint)
        used = []
        over_spans = model._over_spans

        def recording(fn, n, count):
            used.append(count)
            return over_spans(fn, n, count)

        monkeypatch.setattr(model, "_over_spans", recording)
        use_workers(monkeypatch, workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = link_prediction(table, store, constraint=constraint)
        finally:
            sys.setswitchinterval(interval)
        assert report == alone
        self.assert_reference(report, table, store, "filtered", constraint)
        return used

    @pytest.mark.parametrize("on_worker", [True, False])
    def test_span_error_propagates(self, monkeypatch, on_worker):
        table, store = near_tie_instance()
        monkeypatch.setattr(evaluation, "_TILE_BYTES", 16)  # one-column tiles
        use_workers(monkeypatch, 3)
        exact = CandidateScorer.exact

        def failing(cand, triples):
            if (threading.current_thread() is threading.main_thread()) != on_worker:
                raise RuntimeError("exact scoring failed")
            return exact(cand, triples)

        monkeypatch.setattr(CandidateScorer, "exact", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="exact scoring failed"):
            link_prediction(table, store, mode="raw")
        assert threading.active_count() == before

    def test_one_sweep_per_block(self, monkeypatch):
        """A block's tail and head queries share one key product per column
        tile, the tiles cover each of the block's candidate columns once
        (every column when unconstrained, in contiguous tiles), and no
        (rows, N) float array is allocated."""
        rng = np.random.default_rng(8)
        n, block = 20_000, 16
        names = [f"e{i}" for i in range(n)]
        known = [(names[h], "r", names[t]) for h, t in rng.integers(n, size=(90, 2))]
        store = make_store([(e, "pad", e) for e in names] + known[:40],
                           known[40:50], known[50:])
        table = init_embeddings(n, store.n_relations, 4, seed=5)
        # ranked at the default block height and tile width
        whole = {(constraint, mode): link_prediction(table, store, mode, constraint)
                 for constraint in (False, True) for mode in ("raw", "filtered")}
        self.use_blocks(monkeypatch, block, columns=1_400)
        blocks = []
        keys, gathered_keys = CandidateScorer.keys, CandidateScorer.gathered_keys
        mean_rank = evaluation._mean_rank

        def ranking(cand, rows, queries, mask):
            calls = []
            blocks.append((rows.shape[0], calls))
            ranks = mean_rank(cand, rows, queries, mask)
            # the gold columns are cleared now, so these are the columns
            # that some query of the block ranks
            live = np.flatnonzero(mask.any(axis=0))
            assert {count for count, _ in calls} == {2 * rows.shape[0]}
            ids = [np.arange(*tile) if isinstance(tile, tuple) else tile
                   for _, tile in calls]
            np.testing.assert_array_equal(np.sort(np.concatenate(ids)), live)
            if live.size > 3 * n // 4:
                assert all(isinstance(tile, tuple) for _, tile in calls)
            sizes.append(live.size)
            return ranks

        # spans may interleave their calls
        def recording(cand, scaled, lo, hi, out=None):
            blocks[-1][1].append((scaled.shape[0], (lo, hi)))
            return keys(cand, scaled, lo, hi, out)

        def gathering(cand, scaled, ids, rows, out=None):
            blocks[-1][1].append((scaled.shape[0], ids.copy()))
            return gathered_keys(cand, scaled, ids, rows, out)

        def forbidden(*args):
            raise AssertionError("ranking swept one direction on its own")

        monkeypatch.setattr(evaluation, "_mean_rank", ranking)
        monkeypatch.setattr(CandidateScorer, "keys", recording)
        monkeypatch.setattr(CandidateScorer, "gathered_keys", gathering)
        monkeypatch.setattr(CandidateScorer, "all_tails", forbidden)
        monkeypatch.setattr(CandidateScorer, "all_heads", forbidden)
        heights = [min(block, store.test.shape[0] - start)
                   for start in range(0, store.test.shape[0], block)]
        assert heights[-1] < block  # the split ends in a partial block
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            # a full block's tiles of 1,400 / workers columns end in a partial one
            assert n % (1_400 // workers) != 0
            for constraint in (False, True):
                for mode in ("raw", "filtered"):
                    blocks.clear()
                    sizes = []
                    tracemalloc.start()
                    try:
                        report = link_prediction(table, store, mode=mode,
                                                 constraint=constraint)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert [height for height, _ in blocks] == heights
                    # relation r's pools hold at most 40 entities each, so
                    # with its 2 * 16 golds a block ranks at most 112 of the
                    # 20,000 columns; unconstrained, it ranks every column
                    assert all(size <= 112 if constraint else size == n
                               for size in sizes)
                    # one direction's float scores for a block would take
                    # 8 * block * N bytes alone; the stacked bool mask takes a
                    # quarter of that
                    assert peak < 8 * block * n
                    assert report == whole[constraint, mode]

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    def test_non_finite_table_raises(self, fixture50, monkeypatch, scorer):
        store, table = fixture50
        self.use_blocks(monkeypatch, 3)
        table.entities[int(store.test[4, 2]), 0, 0] = np.nan
        with pytest.raises(ZeroQuaternionError):
            link_prediction(table, store, mode="filtered", scorer=scorer)


class TestNormedRows:
    """Type-constrained ranking norms and checks only the entity rows its
    split can read, when they are at most _GATHER_SHARE of the table."""

    @staticmethod
    def pooled(store):
        """Entities in the tail or head pools of the test split's relations."""
        rows = set()
        for position in (TAIL, HEAD):
            pools = store.type_pools(position)
            for relation in set(store.test[:, 1].tolist()):
                rows |= set(np.flatnonzero(pools[relation]).tolist())
        return rows

    @staticmethod
    def sources(store):
        """The test split's heads and tails."""
        return set(store.test[:, 0].tolist()) | set(store.test[:, 2].tolist())

    @classmethod
    def readable(cls, store):
        return sorted(cls.pooled(store) | cls.sources(store))

    @staticmethod
    def recording(monkeypatch):
        """Record each scorer that ranking builds, and check that every
        column its keys, gathered keys and pair keys read is normed."""
        scorers = []
        init = CandidateScorer.__init__
        keys, gathered_keys = CandidateScorer.keys, CandidateScorer.gathered_keys
        pair_keys = CandidateScorer.pair_keys

        def building(cand, *args, **kwargs):
            init(cand, *args, **kwargs)
            scorers.append(cand)

        def read(cand, ids):
            assert np.isin(ids, cand.normed).all()

        def keying(cand, scaled, lo, hi, out=None):
            read(cand, np.arange(lo, hi))
            return keys(cand, scaled, lo, hi, out)

        def gathering(cand, scaled, ids, rows, out=None):
            read(cand, ids)
            return gathered_keys(cand, scaled, ids, rows, out)

        def pairing(cand, scaled, ids):
            read(cand, ids)
            return pair_keys(cand, scaled, ids)

        monkeypatch.setattr(CandidateScorer, "__init__", building)
        monkeypatch.setattr(CandidateScorer, "keys", keying)
        monkeypatch.setattr(CandidateScorer, "gathered_keys", gathering)
        monkeypatch.setattr(CandidateScorer, "pair_keys", pairing)
        return scorers

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_keys_read_only_normed_rows(self, monkeypatch, workers, scorer):
        # blocks of 3 triples in tiles of a few columns, as in
        # TestScoreBlocks::test_oracle_equivalence_gathered; one-row norm
        # spans and one-row chunks, so the 23 normed rows of 48 split into
        # up to 3 spans that gather their rows a row at a time
        store, table = small_pools_instance()
        width = (2 if scorer == "rotate" else 4) * table.k
        monkeypatch.setattr(evaluation, "_BLOCK_TRIPLES", 3)
        monkeypatch.setattr(evaluation, "_TILE_BYTES", 8 * (6 + width) * 4)
        monkeypatch.setattr(model, "_SPAN_BYTES", 1)
        monkeypatch.setattr(model, "_CHUNK_BYTES", 1)
        use_workers(monkeypatch, workers)
        scorers = self.recording(monkeypatch)
        readable = self.readable(store)
        assert len(readable) == 23
        cols = table.entities.reshape(store.n_entities, -1)[:, :width]
        whole = np.einsum("nc,nc->n", cols, cols)
        for mode in ("raw", "filtered"):
            scorers.clear()
            report = link_prediction(table, store, mode=mode, constraint=True,
                                     scorer=scorer)
            TestScoreBlocks.assert_reference(report, table, store, mode, True, scorer)
            (cand,) = scorers
            assert cand.normed.tolist() == readable
            np.testing.assert_array_equal(cand._row_sq[readable].view(np.uint64),
                                          whole[readable].view(np.uint64))
            assert cand.max_row_sq == whole[readable].max()
            assert np.isnan(np.delete(cand._row_sq, readable)).all()
            # unconstrained ranking norms every row
            scorers.clear()
            link_prediction(table, store, mode=mode, scorer=scorer)
            np.testing.assert_array_equal(scorers[0]._row_sq.view(np.uint64),
                                          whole.view(np.uint64))

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_outside_the_set(self, scorer, bad):
        store, table = small_pools_instance()
        outside = sorted(set(range(store.n_entities)) - set(self.readable(store)))
        finite = {mode: link_prediction(table, store, mode=mode, constraint=True,
                                        scorer=scorer)
                  for mode in ("raw", "filtered")}
        table.entities[outside[len(outside) // 2], 0, 1] = bad
        for mode in ("raw", "filtered"):
            assert link_prediction(table, store, mode=mode, constraint=True,
                                   scorer=scorer) == finite[mode]
        with pytest.raises(ZeroQuaternionError):
            link_prediction(table, store, mode="raw", scorer=scorer)

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    @pytest.mark.parametrize("where", ["pooled", "source", "relation"])
    def test_non_finite_readable_row_raises(self, scorer, where):
        store, table = small_pools_instance()
        pooled, sources = self.pooled(store), self.sources(store)
        if where == "pooled":  # no head or tail of the split
            table.entities[min(pooled - sources), 1, 0] = np.nan
        elif where == "source":  # in no pool of the split's relations
            table.entities[min(sources - pooled), 0, 0] = np.nan
        else:
            table.relations[int(store.test[0, 1]), 0, 0] = np.nan
        for mode in ("raw", "filtered"):
            with pytest.raises(ZeroQuaternionError):
                link_prediction(table, store, mode=mode, constraint=True, scorer=scorer)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_unseen_relation_norms_every_row(self, monkeypatch, workers):
        # a test relation unseen in training falls back to every entity as
        # its pools, so the split can read the whole table
        store, table = small_pools_instance()
        names = lambda arr: [(store.entity_names[h], store.relation_names[r],
                              store.entity_names[t]) for h, r, t in arr.tolist()]
        unseen = make_store(names(store.train), names(store.valid),
                            names(store.test) + [("e5", "unseen", "e6")])
        assert unseen.entity_names == store.entity_names
        table = init_embeddings(unseen.n_entities, unseen.n_relations, table.k, seed=19)
        monkeypatch.setattr(model, "_SPAN_BYTES", 1)
        use_workers(monkeypatch, workers)
        scorers = self.recording(monkeypatch)
        assert self.readable(unseen) == list(range(unseen.n_entities))
        for mode in ("raw", "filtered"):
            scorers.clear()
            report = link_prediction(table, unseen, mode=mode, constraint=True)
            TestScoreBlocks.assert_reference(report, table, unseen, mode, True)
            assert scorers[0].normed.tolist() == list(range(unseen.n_entities))
            assert not np.isnan(scorers[0]._row_sq).any()


def tied_instance(n_entities=6, n_relations=2, k=2, pooled=False):
    """Strategy for (table, store) pairs whose scores tie often.

    Entity components are drawn from {-1, 0, 1} and relation components from
    {-1, 1}, so many candidates sit at exactly the same distance. With
    `pooled`, every entity is padded with a relation of its own, ``pad``,
    and train holds at most n_entities // 4 other triples, so the type pools
    of the ranked relations hold at most a quarter of the entities.
    """
    triple = st.tuples(st.integers(0, n_entities - 1),
                       st.integers(0, n_relations - 1),
                       st.integers(0, n_entities - 1))
    entities = arrays(np.float64, (n_entities, 4, k),
                      elements=st.sampled_from([-1.0, 0.0, 1.0]))
    relations = arrays(np.float64, (n_relations, 4, k),
                       elements=st.sampled_from([-1.0, 1.0]))

    def build(args):
        train, test, ent, rel = args
        raw = lambda triples: [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in triples]
        # every entity appears in train, so ids match table rows
        pad = [(f"e{i}", "pad" if pooled else f"r{i % n_relations}", f"e{i}")
               for i in range(n_entities)]
        store = make_store(pad + raw(train), [], raw(test))
        order_e = [store.entity_names.index(f"e{i}") for i in range(n_entities)]
        table = EmbeddingTable(np.ones((n_entities + store.n_relations, 4, k)),
                               n_entities, 0)
        table.entities[order_e] = ent
        for row, name in enumerate(store.relation_names):
            if name != "pad":
                table.relations[row] = rel[int(name[1:])]
        return table, store

    train = st.lists(triple, max_size=n_entities // 4 if pooled else 8)
    return st.tuples(train, st.lists(triple, min_size=1, max_size=4),
                     entities, relations).map(build)


class TestRankInvariants:
    @settings(max_examples=30, deadline=None)
    @given(instance=tied_instance(),
           scorer=st.sampled_from(["quate_d", "rotate", "quate_inner"]),
           constraint=st.booleans())
    def test_ranks_bounded_and_filter_never_hurts(self, instance, scorer, constraint):
        self.check_invariants(*instance, scorer, constraint)

    @settings(max_examples=30, deadline=None)
    @given(instance=tied_instance(n_entities=16, pooled=True),
           scorer=st.sampled_from(["quate_d", "rotate", "quate_inner"]))
    def test_invariants_in_small_pools(self, instance, scorer):
        self.check_invariants(*instance, scorer, True)

    @staticmethod
    def check_invariants(table, store, scorer, constraint):
        for triple in store.test:
            h, r, t = (int(x) for x in triple)
            for position in (TAIL, HEAD):
                raw = rank_entity(table, store, (h, r, t), position, "raw",
                                  constraint, scorer)
                filtered = rank_entity(table, store, (h, r, t), position,
                                       "filtered", constraint, scorer)
                assert 1.0 <= filtered <= raw <= store.n_entities
        for mode in ("raw", "filtered"):
            report = link_prediction(table, store, mode, constraint, scorer)
            assert report.mr >= 1.0
            assert 0.0 < report.mrr <= 1.0
            assert all(0.0 <= v <= 1.0 for v in report.hits.values())
            # in one-column tiles, cut into 1 to 3 spans of the swept
            # columns, then in a budget of 3 columns of keys and key columns
            # (at most 8 queries and C = 8 columns) per tile: at one worker,
            # gathered tiles of 3 or more columns
            with pytest.MonkeyPatch.context() as patch:
                for tile_bytes in (1, 8 * (8 + 8) * 3):
                    patch.setattr(evaluation, "_TILE_BYTES", tile_bytes)
                    for workers in (1, 2, 3):
                        use_workers(patch, workers)
                        assert (link_prediction(table, store, mode, constraint, scorer)
                                == report)
