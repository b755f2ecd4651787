import os
import platform
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatkge import data
from quatkge.data import HEAD, TAIL, build_store, load_dataset, load_split
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

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
    def test_line_endings_and_no_final_newline(self, tmp_path, ending):
        path = tmp_path / "endings.txt"
        path.write_bytes(ending.join([b"a\tr\tb", b"", b"c\tr\td"]))
        assert load_split(path) == [("a", "r", "b"), ("c", "r", "d")]

    def test_malformed_line_number_counts_blank_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"a\tr\tb\r\n\r\n\n\rx\ty\n")
        with pytest.raises(ParseError) as err:
            load_split(path)
        assert err.value.line_no == 5

    def test_undecodable_byte_reports_line(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"a\tr\tb\n\n\ncaf\xe9\tr\tb\nx\ty\n")
        with pytest.raises(ParseError) as err:
            load_split(path)
        assert err.value.line_no == 4
        assert "0xe9" in str(err.value)

    def test_split_is_read_only_sequence(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("cat\thypernym\tanimal\n\ndog\thypernym\tanimal\n")
        split = load_split(path)
        assert len(split) == 2
        assert split[1] == ("dog", "hypernym", "animal")
        assert split[-1] == split[1] and split[:1] == [split[0]]
        assert list(split) == [split[0], split[1]]
        with pytest.raises(TypeError):
            split[0] = ("a", "r", "b")


# Names that stress the byte keys: empty, non-ASCII, NUL bytes (where zero
# padding could confuse "a" with "a\0"), and names of 8 or more bytes that
# share an 8-byte prefix. Random text adds bytes such as \x0b, \x1c and
# \u2028, which other readers take for line breaks.
SPECIAL_NAMES = ["", "a", "a\0", "\0", "ab\0cd", "é", "日本語", "abcdefgh",
                 "abcdefgh\0", "abcdefghX", "abcdefghY", "abcdefghijklmnopq",
                 "abcdefghijklmnopr", "abcdefghijklmnopqrstuvwxyz"]
names = st.one_of(st.sampled_from(SPECIAL_NAMES),
                  st.text(st.characters(blacklist_characters="\t\n\r",
                                        blacklist_categories=("Cs",)), max_size=10))
line = st.one_of(st.just(""), st.tuples(names, names, names).map("\t".join))


@st.composite
def split_files(draw, lines=line):
    """Three split files' bytes: random lines, each ending in \\n, \\r\\n or
    \\r, maybe without a final line ending. The splits draw on one pool of
    names, so names recur within and across splits."""
    pool = draw(st.lists(names, min_size=1, max_size=8))
    pooled = st.tuples(*[st.sampled_from(pool)] * 3).map("\t".join)
    files = []
    for _ in range(3):
        body = draw(st.lists(st.one_of(lines, pooled), max_size=12))
        endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                                min_size=len(body), max_size=len(body)))
        text = "".join(a + b for a, b in zip(body, endings))
        if body and draw(st.booleans()):
            text = text[:-len(endings[-1])]
        # "\udcXX" is written as the single byte 0xXX, which is not UTF-8
        files.append(text.encode("utf-8", "surrogateescape"))
    return files


def write_splits(directory, files):
    paths = [directory / f"{name}.txt" for name in ("train", "valid", "test")]
    for path, content in zip(paths, files):
        path.write_bytes(content)
    return paths


class TestLoaderAgainstLineLoop:
    """``load_split`` and ``load_dataset`` against ``oracles.reference_load``."""

    @settings(max_examples=150, deadline=None)
    @given(files=split_files())
    def test_store_matches_reference(self, tmp_path_factory, files):
        paths = write_splits(tmp_path_factory.mktemp("splits"), files)
        entity_names, relation_names, splits = oracles.reference_load(paths)
        store = load_dataset(*paths)
        assert store.entity_names == entity_names
        assert store.relation_names == relation_names
        for (raw, ids), path, array in zip(splits, paths, (store.train, store.valid,
                                                            store.test)):
            split = load_split(path)
            assert split == raw and [split[i] for i in range(len(split))] == raw
            assert array.dtype == np.int64 and array.flags.c_contiguous
            assert array.shape == (len(ids), 3) and array.tolist() == [list(t) for t in ids]
        from_lists = build_store(*(raw for raw, _ in splits))
        assert from_lists.entity_names == entity_names
        for name in ("train", "valid", "test", "tail_keys", "head_keys",
                     "type_head_keys", "type_tail_keys"):
            np.testing.assert_array_equal(getattr(from_lists, name), getattr(store, name))

    @settings(max_examples=150, deadline=None)
    @given(files=split_files(st.one_of(
               line,
               st.lists(names, min_size=1, max_size=5).filter(lambda f: len(f) != 3)
               .map("\t".join),
               st.tuples(names, st.sampled_from(["\udce9", "\udcff\udcfe", "\udcc3"]),
                         names).map("\t".join))))
    def test_rejected_line_matches_reference(self, tmp_path_factory, files):
        paths = write_splits(tmp_path_factory.mktemp("splits"), files)
        try:
            oracles.reference_load(paths)
        except oracles.ReferenceParseError as expected:
            with pytest.raises(ParseError) as err:
                load_dataset(*paths)
            assert (err.value.path, err.value.line_no) == (expected.path, expected.line_no)
        else:
            load_dataset(*paths)


class TestBuildStore:
    def test_minimal_graph(self):
        store = make_store([("x", "r", "y")])
        assert store.n_entities == 2
        assert store.n_relations == 1
        assert store.tail_keys.size == 1

    def test_first_appearance_ids(self):
        store = make_store([("b", "r2", "a")], [("c", "r1", "b")])
        assert store.entity_names == ["b", "a", "c"]
        assert store.relation_names == ["r2", "r1"]

    def test_names_are_fresh_copies(self):
        # Two or more characters: CPython shares one-character strings.
        train = [("bb", "r2", "aa"), ("aa", "r1", "cc")]
        valid = [("dd", "r2", "bb")]
        store = make_store(train, valid)
        assert store.entity_names == ["bb", "aa", "cc", "dd"]
        assert store.relation_names == ["r2", "r1"]
        raw = [name for triple in train + valid for name in triple]
        assert not any(name is kept for name in raw
                       for kept in store.entity_names + store.relation_names)

    def test_vocab_round_trip(self, tiny_store):
        decoded = [(tiny_store.entity_names[h], tiny_store.relation_names[r],
                    tiny_store.entity_names[t]) for h, r, t in tiny_store.train.tolist()]
        assert decoded == [("a", "r1", "b"), ("b", "r1", "c"), ("c", "r2", "d"),
                           ("d", "r2", "e"), ("a", "r2", "c")]

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "b\n"])
    def test_names_with_delimiters_rejected(self, name):
        with pytest.raises(ValueError):
            make_store([("a", "r", "b"), (name, "r", "a")])

    def test_eval_only_entities_get_ids(self):
        store = make_store([("a", "r", "b")], [], [("a", "r", "zzz")])
        assert "zzz" in store.entity_names
        assert store.n_entities == 3

    def test_duplicates_kept_in_split_dedup_in_filter(self):
        store = make_store([("a", "r", "b"), ("a", "r", "b")])
        assert store.train.shape[0] == 2
        assert store.tail_keys.size == 1

    def test_stats(self, tiny_store):
        stats = tiny_store.stats()
        assert stats == {"entities": 5, "relations": 2, "triples": 7,
                         "train": 5, "valid": 1, "test": 1}

    @pytest.mark.parametrize("nul_name", [None, "ab\0"], ids=["no-nul", "nul"])
    def test_first_appearance_among_many_repeats(self, tmp_path, nul_name):
        # 8,000 lines of 48 names of 0-8 bytes: without a NUL byte every name
        # is one sort key, so the vocabulary sorts with an unstable argsort,
        # which reorders the thousands of equal keys of each name.
        rng = np.random.default_rng(21)
        pool = ([f"n{i}" for i in range(24)] + [f"e{i:07d}" for i in range(16)]
                + ["", "a", "ab", "abcdefgh", "abcdefgg", "hgfedcba", "日本", "x"])
        lines = [tuple(pool[i] for i in row)
                 for row in rng.integers(len(pool), size=(8_000, 3)).tolist()]
        splits = [lines[:6_000], lines[6_000:7_000], lines[7_000:]]
        if nul_name is not None:
            splits[2][500] = (nul_name, "ab", nul_name)

        entity_ids, relation_ids = {}, {}
        expected = []
        for split in splits:
            for h, r, t in split:
                for name, vocabulary in ((h, entity_ids), (r, relation_ids),
                                         (t, entity_ids)):
                    vocabulary.setdefault(name, len(vocabulary))
            expected.append([[entity_ids[h], relation_ids[r], entity_ids[t]]
                             for h, r, t in split])

        paths = write_splits(tmp_path, ["".join("\t".join(line) + "\n" for line in split)
                                        .encode() for split in splits])
        reference = oracles.reference_load(paths)
        assert reference[:2] == (list(entity_ids), list(relation_ids))
        for store in (build_store(*splits), load_dataset(*paths)):
            assert store.entity_names == list(entity_ids)
            assert store.relation_names == list(relation_ids)
            for array, ids, (_, reference_ids) in zip(
                    (store.train, store.valid, store.test), expected, reference[2]):
                assert array.tolist() == ids == [list(t) for t in reference_ids]


def store_fields(store):
    """A store's arrays as bytes, and its names, for exact comparison."""
    arrays = (store.train, store.valid, store.test, store.tail_keys, store.head_keys,
              store.type_head_keys, store.type_tail_keys)
    return ([(a.dtype, a.shape, a.tobytes()) for a in arrays],
            store.entity_names, store.relation_names)


class TestTrim:
    """build_store returns the freed heap to the OS above _TRIM_BYTES of text."""

    # 18 + 6 + 6 bytes of text
    SPLITS = ([("a", "r", "b"), ("b", "s", "c"), ("c", "r", "a")],
              [("c", "s", "b")], [("a", "s", "c")])
    TEXT_BYTES = 30

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(data, "_malloc_trim", lambda pad: calls.append(pad) or 1)
        return calls

    @pytest.mark.parametrize("limit, expected", [(1, [0]), (TEXT_BYTES, [0]),
                                                 (TEXT_BYTES + 1, [])])
    def test_trims_once_at_or_above_the_limit(self, monkeypatch, tmp_path, calls,
                                              limit, expected):
        monkeypatch.setattr(data, "_TRIM_BYTES", limit)
        build_store(*self.SPLITS)
        assert calls == expected
        paths = write_splits(tmp_path, ["".join("\t".join(line) + "\n" for line in split)
                                        .encode() for split in self.SPLITS])
        load_dataset(*paths)
        assert calls == expected * 2

    def test_load_frees_its_splits_before_the_trim(self, monkeypatch, tmp_path):
        # the trim returns the pages of the split bytes and offsets only if
        # nothing holds them any more
        monkeypatch.setattr(data, "_TRIM_BYTES", 1)
        refs, alive = [], []
        load = data.load_split
        monkeypatch.setattr(data, "load_split",
                            lambda path: refs.append(weakref.ref(split := load(path))) or split)
        monkeypatch.setattr(data, "_malloc_trim",
                            lambda pad: alive.append(sum(ref() is not None for ref in refs)))
        paths = write_splits(tmp_path, ["".join("\t".join(line) + "\n" for line in split)
                                        .encode() for split in self.SPLITS])
        assert store_fields(load_dataset(*paths)) == store_fields(build_store(*self.SPLITS))
        assert len(refs) == 3 and alive == [0, 0]

    def test_no_trim_below_the_default_limit(self, calls, planted):
        # a planted-size load holds about 15 KB of text
        build_store(planted.train, planted.valid, planted.test)
        assert calls == []

    def test_same_store_without_malloc_trim(self, monkeypatch):
        monkeypatch.setattr(data, "_TRIM_BYTES", 1)
        trimmed = store_fields(build_store(*self.SPLITS))
        monkeypatch.setattr(data, "_malloc_trim", None)
        assert store_fields(build_store(*self.SPLITS)) == trimmed

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
    def test_found_on_glibc(self):
        assert data._malloc_trim is not None

    @pytest.mark.parametrize("failure", ["OSError", "TypeError", "AttributeError"])
    def test_failed_lookup_does_not_raise_at_import(self, failure):
        # ctypes.CDLL fails to open the C library, or opens one without
        # malloc_trim (musl, macOS), before the package is first imported
        code = "\n".join([
            "import ctypes",
            "class NoTrim:",
            "    pass",
            "def cdll(name):",
            f"    if {failure!r} == 'AttributeError':",
            "        return NoTrim()",
            f"    raise {failure}('no C library')",
            "ctypes.CDLL = cdll",
            "from quatkge import data",
            "assert data._malloc_trim is None",
            "store = data.build_store([('a', 'r', 'b')], [], [])",
            "assert store.entity_names == ['a', 'b']",
        ])
        src = str(Path(data.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr


class TestIsTrue:
    def test_membership_across_splits(self, tiny_store):
        ids = {name: i for i, name in enumerate(tiny_store.entity_names)}
        r1 = tiny_store.relation_names.index("r1")
        assert tiny_store.is_true(ids["a"], r1, ids["b"])      # train
        assert tiny_store.is_true(ids["b"], r1, ids["d"])      # valid
        assert tiny_store.is_true(ids["a"], r1, ids["c"])      # test
        assert not tiny_store.is_true(ids["e"], r1, ids["a"])

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
        h, r, t = (rng.integers(n, size=500) for n in (
            store.n_entities, store.n_relations, store.n_entities))
        np.testing.assert_array_equal(
            store.is_true(h, r, t),
            [(x, y, z) in listed for x, y, z in zip(h.tolist(), r.tolist(), t.tolist())])


def pool(store, relation, position):
    """Ascending entity ids in row `relation` of the store's type pools."""
    return np.flatnonzero(store.type_pools(position)[relation])


class TestTypeCandidates:
    def test_observed_positions(self):
        store = make_store([("e0", "r", "e1"), ("e2", "r", "e1")])
        heads = pool(store, 0, HEAD)
        tails = pool(store, 0, TAIL)
        ids = store.entity_names.index
        assert set(heads.tolist()) == {ids("e0"), ids("e2")}
        assert set(tails.tolist()) == {ids("e1")}

    def test_fallback_full_set(self):
        # relation appears only in the test split
        store = make_store([("a", "seen", "b")], [], [("a", "unseen", "b")])
        rid = store.relation_names.index("unseen")
        assert pool(store, rid, HEAD).tolist() == list(range(store.n_entities))

    def test_nonempty_for_training_relations(self, tiny_store):
        for _, r, _ in tiny_store.train:
            assert pool(tiny_store, int(r), HEAD).size > 0
            assert pool(tiny_store, int(r), TAIL).size > 0

    def test_bad_position(self, tiny_store):
        with pytest.raises(ValueError):
            tiny_store.type_pools("middle")


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
        assert store.entity_names.index("last") == n - 1
        assert store.relation_names.index("r_last") == m - 1
        rows = np.array([(e, r, e) for e in range(n) for r in range(m)])
        for position in (HEAD, TAIL):
            row, ids = store.true_competitors(rows, position)
            assert np.all(np.diff(row) >= 0)
            for i, (e, r, _) in enumerate(rows.tolist()):
                assert_ascending_ids(ids[row == i],
                                     oracles.competitor_ids(store, (e, r, e), position))

    @pytest.mark.parametrize("seed", range(4))
    def test_type_candidates_match_scan(self, seed):
        store = edge_store(seed)
        for r in range(store.n_relations):
            for position in (HEAD, TAIL):
                assert_ascending_ids(pool(store, r, position),
                                     oracles.observed_ids(store, r, position))

    def test_triple_in_two_splits_counted_once(self):
        store = make_store([("a", "r", "b"), ("a", "r", "b")], [],
                           [("a", "r", "b")])
        assert store.true_competitors([(0, 0, 1)], TAIL)[1].tolist() == [1]
        assert store.true_competitors([(0, 0, 1)], HEAD)[1].tolist() == [0]
        assert pool(store, 0, HEAD).tolist() == [0]


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


def load_benchmark(name: str):
    path = benchmark_dir(name)
    return load_dataset(path / "train.txt", path / "valid.txt", path / "test.txt")


@pytest.mark.parametrize("name", sorted(BENCHMARK_STATS))
def test_benchmark_statistics(name):
    store = load_benchmark(name)
    assert store.stats() == BENCHMARK_STATS[name]


def test_wn18rr_similar_to_candidates_are_constrained():
    store = load_benchmark("wn18rr")
    rid = next(rid for rid, name in enumerate(store.relation_names) if "similar_to" in name)
    heads = pool(store, rid, HEAD)
    tails = pool(store, rid, TAIL)
    assert heads.size < store.n_entities
    assert tails.size < store.n_entities
    observed_heads = {int(h) for h, r, t in store.train if int(r) == rid}
    assert set(heads.tolist()) == observed_heads
