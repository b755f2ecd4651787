import os
from pathlib import Path

import numpy as np
import pytest

from quatkge.data import HEAD, TAIL, dataset_dir_paths, load_dataset, load_split
from quatkge.errors import ParseError

from conftest import make_store, random_store
import oracles


class TestLoadSplit:
    def test_basic(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("cat\thypernym\tanimal\ndog\thypernym\tanimal\n")
        assert load_split(path) == [("cat", "hypernym", "animal"),
                                    ("dog", "hypernym", "animal")]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert load_split(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("a\tr\tb\n\n\nc\tr\td\n")
        assert len(load_split(path)) == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\tr\tb\nx\ty\n")
        with pytest.raises(ParseError) as err:
            load_split(path)
        assert err.value.line_no == 2

    def test_duplicates_retained(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("a\tr\tb\na\tr\tb\n")
        assert len(load_split(path)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_split(tmp_path / "nope.txt")


class TestBuildStore:
    def test_minimal_graph(self):
        store = make_store([("x", "r", "y")])
        assert store.n_entities == 2
        assert store.n_relations == 1
        assert len(store.all_true) == 1

    def test_first_appearance_ids(self):
        store = make_store([("b", "r2", "a")], [("c", "r1", "b")])
        assert store.entity_ids == {"b": 0, "a": 1, "c": 2}
        assert store.relation_ids == {"r2": 0, "r1": 1}

    def test_vocab_round_trip(self, tiny_store):
        for name, eid in tiny_store.entity_ids.items():
            assert tiny_store.entity_names[eid] == name
        for name, rid in tiny_store.relation_ids.items():
            assert tiny_store.relation_names[rid] == name

    def test_eval_only_entities_get_ids(self):
        store = make_store([("a", "r", "b")], [], [("a", "r", "zzz")])
        assert "zzz" in store.entity_ids
        assert store.n_entities == 3

    def test_duplicates_kept_in_split_dedup_in_filter(self):
        store = make_store([("a", "r", "b"), ("a", "r", "b")])
        assert store.train.shape[0] == 2
        assert len(store.all_true) == 1

    def test_stats(self, tiny_store):
        stats = tiny_store.stats()
        assert stats == {"entities": 5, "relations": 2, "triples": 7,
                         "train": 5, "valid": 1, "test": 1}


class TestIsTrue:
    def test_membership_across_splits(self, tiny_store):
        ids = tiny_store.entity_ids
        rel = tiny_store.relation_ids
        assert tiny_store.is_true(ids["a"], rel["r1"], ids["b"])      # train
        assert tiny_store.is_true(ids["b"], rel["r1"], ids["d"])      # valid
        assert tiny_store.is_true(ids["a"], rel["r1"], ids["c"])      # test
        assert not tiny_store.is_true(ids["e"], rel["r1"], ids["a"])

    def test_agrees_with_linear_scan(self):
        rng = np.random.default_rng(8)
        store = random_store(rng, n_entities=30, n_train=600, n_valid=200,
                             n_test=200)
        splits = np.concatenate([store.train, store.valid, store.test])
        listed = {tuple(int(x) for x in row) for row in splits}
        for _ in range(500):
            h = int(rng.integers(store.n_entities))
            r = int(rng.integers(store.n_relations))
            t = int(rng.integers(store.n_entities))
            assert store.is_true(h, r, t) == ((h, r, t) in listed)


class TestTypeCandidates:
    def test_observed_positions(self):
        store = make_store([("e0", "r", "e1"), ("e2", "r", "e1")])
        heads = store.type_candidates(0, HEAD)
        tails = store.type_candidates(0, TAIL)
        assert set(heads.tolist()) == {store.entity_ids["e0"], store.entity_ids["e2"]}
        assert set(tails.tolist()) == {store.entity_ids["e1"]}

    def test_fallback_full_set(self):
        # relation appears only in the test split
        store = make_store([("a", "seen", "b")], [], [("a", "unseen", "b")])
        rid = store.relation_ids["unseen"]
        assert store.type_candidates(rid, HEAD).tolist() == list(range(store.n_entities))

    def test_nonempty_for_training_relations(self, tiny_store):
        for _, r, _ in tiny_store.train:
            assert tiny_store.type_candidates(int(r), HEAD).size > 0
            assert tiny_store.type_candidates(int(r), TAIL).size > 0

    def test_bad_position(self, tiny_store):
        with pytest.raises(ValueError):
            tiny_store.type_candidates(0, "middle")


def edge_store(seed, n_entities=12, n_relations=4):
    """Random store whose triples touch entity 0, the last entity id and the
    last relation id in train and test, with one train triple repeated in test."""
    rng = np.random.default_rng(seed)

    def draw(count, ents, rels):
        return [(ents[rng.integers(len(ents))], rels[rng.integers(len(rels))],
                 ents[rng.integers(len(ents))]) for _ in range(count)]

    train = draw(50, [f"e{i}" for i in range(n_entities)],
                 [f"r{i}" for i in range(n_relations)])
    first = train[0][0]
    # "last" and "r_last" are new names at the end of train, and valid and
    # test reuse train's names, so they get the last ids.
    train.append((first, "r_last", "last"))
    ents = sorted({x for h, _, t in train for x in (h, t)})
    rels = sorted({r for _, r, _ in train})
    test = draw(10, ents, rels) + [train[0], ("last", "r_last", first),
                                   ("last", "r_last", "last")]
    return make_store(train, draw(10, ents, rels), test)


def assert_ascending_ids(ids, expected):
    assert ids.dtype == np.int64
    assert np.all(np.diff(ids) > 0)
    assert ids.tolist() == sorted(expected)


class TestIndices:
    """The key-array indices against the linear scans in ``oracles``."""

    @pytest.mark.parametrize("seed", range(4))
    def test_true_competitors_match_scan(self, seed):
        store = edge_store(seed)
        n, m = store.n_entities, store.n_relations
        assert store.entity_ids["last"] == n - 1
        assert store.relation_ids["r_last"] == m - 1
        for e in range(n):
            for r in range(m):
                for position in (HEAD, TAIL):
                    assert_ascending_ids(
                        store.true_competitors((e, r, e), position),
                        oracles.competitor_ids(store, (e, r, e), position))

    @pytest.mark.parametrize("seed", range(4))
    def test_type_candidates_match_scan(self, seed):
        store = edge_store(seed)
        for r in range(store.n_relations):
            for position in (HEAD, TAIL):
                assert_ascending_ids(store.type_candidates(r, position),
                                     oracles.observed_ids(store, r, position))

    def test_triple_in_two_splits_counted_once(self):
        store = make_store([("a", "r", "b"), ("a", "r", "b")], [],
                           [("a", "r", "b")])
        assert store.true_competitors((0, 0, 1), TAIL).tolist() == [1]
        assert store.true_competitors((0, 0, 1), HEAD).tolist() == [0]
        assert store.type_candidates(0, HEAD).tolist() == [0]


# Table of published benchmark statistics; the test runs only when the
# datasets are available locally (set QUATKGE_DATA_DIR).
BENCHMARK_STATS = {
    "wn18": {"entities": 40_943, "relations": 18, "triples": 151_442,
             "train": 141_442, "valid": 5_000, "test": 5_000},
    "fb15k": {"entities": 14_951, "relations": 1_345, "triples": 592_213,
              "train": 483_142, "valid": 50_000, "test": 59_071},
    "wn18rr": {"entities": 40_943, "relations": 11, "triples": 93_003,
               "train": 86_835, "valid": 3_034, "test": 3_134},
    "fb15k-237": {"entities": 14_541, "relations": 237, "triples": 310_116,
                  "train": 272_115, "valid": 17_535, "test": 20_466},
}


def benchmark_dir(name: str) -> Path:
    root = os.environ.get("QUATKGE_DATA_DIR")
    if not root:
        pytest.skip("QUATKGE_DATA_DIR not set; benchmark files unavailable")
    path = Path(root) / name
    if not path.is_dir():
        pytest.skip(f"benchmark dataset {name} not found under {root}")
    return path


@pytest.mark.parametrize("name", sorted(BENCHMARK_STATS))
def test_benchmark_statistics(name):
    store = load_dataset(*dataset_dir_paths(benchmark_dir(name)))
    assert store.stats() == BENCHMARK_STATS[name]


def test_wn18rr_similar_to_candidates_are_constrained():
    path = benchmark_dir("wn18rr")
    store = load_dataset(*dataset_dir_paths(path))
    rid = next(rid for name, rid in store.relation_ids.items() if "similar_to" in name)
    heads = store.type_candidates(rid, HEAD)
    tails = store.type_candidates(rid, TAIL)
    assert heads.size < store.n_entities
    assert tails.size < store.n_entities
    observed_heads = {int(h) for h, r, t in store.train if int(r) == rid}
    assert set(heads.tolist()) == observed_heads
