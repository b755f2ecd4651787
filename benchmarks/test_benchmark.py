"""Tests of the benchmark's own reference, input writer and tracer.

    PYTHONPATH=src python3 -m pytest -q benchmarks

The package's test suite does not collect this file (pytest's testpaths is
``tests``). The cases are small enough to work out by hand.
"""

import types

import numpy as np
import pytest

import inputs
import reference as ref
from tracing import Tracer

IDENTITY = np.array([[1.0], [0.0], [0.0], [0.0]])      # one unit coordinate, k=1


def point(a: float) -> np.ndarray:
    return np.array([[a], [0.0], [0.0], [0.0]])


def basis(i: int) -> np.ndarray:
    q = np.zeros((4, 1))
    q[i, 0] = 1.0
    return q


class TestAlgebra:
    def test_basis_products(self):
        one, i, j, k = (basis(n) for n in range(4))
        assert np.array_equal(ref.hamilton(i, j), k)
        assert np.array_equal(ref.hamilton(j, i), -k)
        assert np.array_equal(ref.hamilton(k, k), -one)
        assert np.array_equal(ref.hamilton(ref.hamilton(i, j), k), -one)

    def test_unit_relation_and_energy(self):
        w = np.array([[3.0, 0.0], [4.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        assert np.allclose(ref.unit_relation(w), [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0], [0.0, 1.0]])
        # imaginary squares: 0.64 and 1.0, over k = 2
        assert ref.imaginary_energy(w) == pytest.approx(0.82)

    def test_triple_distance_rotates_then_differences(self):
        entities = np.stack([point(1.0), basis(1)])          # e0 = 1, e1 = i
        relations = np.stack([2.0 * basis(1)])               # normalizes to i
        # 1 (x) i = i, so (e0, r0, e1) has distance 0 and (e1, r0, e0) = |i i - 1| = 2
        triples = np.array([[0, 0, 1], [1, 0, 0]])
        assert np.allclose(ref.triple_distances(entities, relations, triples), [0.0, 2.0])


class TestRanks:
    def test_ties_take_the_mean_rank(self):
        sq = np.array([1.0, 1.0, 0.25, 4.0])
        rank, lowest, highest = ref.mean_tie_rank(sq, 0, np.ones(4, dtype=bool))
        assert (rank, lowest, highest) == (2.5, 2.0, 3.0)    # 1 better, tie of 2

    def test_tolerance_widens_only_near_ties(self):
        sq = np.array([1.0, 1.0 + 1e-12, 0.25, 4.0])
        rank, lowest, highest = ref.mean_tie_rank(sq, 0, np.ones(4, dtype=bool), tol=1e-9)
        assert (rank, lowest, highest) == (2.0, 2.0, 3.0)

    def test_filtered_competitor_is_removed(self):
        # a, b, c on a line at 0, 0.1, 0.2; the relation is the identity.
        graph = ref.Graph([("a", "r", "b"), ("a", "r", "c")], [], [("a", "r", "c")])
        entities = np.stack([point(0.0), point(0.1), point(0.2)])
        relations = np.stack([IDENTITY])
        ranks = ref.rank_split(graph, entities, relations, graph.test)
        # tail query (a, r, ?): a and b are closer than c; filtered drops b.
        # head query (?, r, c): c and b are closer than a; nothing filtered.
        assert ranks["raw"].rank.tolist() == [3.0, 3.0]
        assert ranks["filtered"].rank.tolist() == [2.0, 3.0]
        assert ranks["filtered"].gold_reinserted == 0

    def test_gold_reinserted_under_type_constraints(self):
        graph = ref.Graph([("a", "r", "b"), ("d", "r", "b")], [], [("c", "r", "b")])
        # ids: a0 b1 d2 c3. Head pool of r is {a, d}; the gold c is put back.
        entities = np.stack([point(0.5), point(0.0), point(0.1), point(0.3)])
        relations = np.stack([IDENTITY])
        ranks = ref.rank_split(graph, entities, relations, graph.test, constraint=True)
        # head query (?, r, b) among {a, d, c}: d (0.1) beats c (0.3) beats a (0.5)
        # tail query (c, r, ?) among the tail pool {b}: b is the gold, rank 1
        assert ranks["raw"].rank.tolist() == [1.0, 2.0]
        assert ranks["raw"].gold_reinserted == 1
        # filtered: (a, r, b) and (d, r, b) are true, so c is alone
        assert ranks["filtered"].rank.tolist() == [1.0, 1.0]

    def test_compare_accepts_equal_and_rejects_other_reports(self):
        ranking = ref.Ranking(np.array([1.0, 4.0]), np.array([1.0, 4.0]),
                              np.array([1.0, 4.0]), 0)
        hits = {1: 0.5, 3: 0.5, 10: 1.0}
        assert ranking.compare(2.5, 0.625, hits, 2, 0) == []
        assert ranking.compare(2.0, 0.625, hits, 2, 0)
        assert ranking.compare(2.5, 0.625, hits, 2, 1)


class TestInputs:
    def test_checkpoint_round_trip(self):
        rng = np.random.default_rng(0)
        entities, relations = inputs.random_table(5, 2, 3, rng)
        raw = inputs.checkpoint_bytes(entities, relations, seed=7)
        header, ents, rels = inputs.read_checkpoint(raw)
        assert header["n_entities"] == 5 and header["k"] == 3 and header["seed"] == 7
        assert np.array_equal(ents, entities) and np.array_equal(rels, relations)
        # first payload value is entity 0, component a, coordinate 0
        offset = 12 + int.from_bytes(raw[8:12], "little")
        assert np.frombuffer(raw, "<f8", 1, offset)[0] == entities[0, 0, 0]

    def test_planted_graph_matches_the_package(self):
        synthetic = pytest.importorskip("quatkge.synthetic")
        graph = synthetic.planted_graph(n_entities=200, sym_pairs=200, seed=11)
        ours = inputs.planted_triples(200, 200, np.random.default_rng(11))
        assert ours == graph.train + graph.valid + graph.test


class TestTracer:
    def test_missing_hook_is_reported_and_self_time_excludes_children(self):
        module = types.SimpleNamespace(__name__="fake")
        module.inner = lambda: sum(range(10_000))
        module.outer = lambda: module.inner() + module.inner()
        tracer = Tracer()
        tracer.wrap(module, "outer", "outer")
        tracer.wrap(module, "inner", "inner")
        tracer.wrap(module, "renamed_helper", "gone")
        module.outer()
        tracer.remove()
        assert tracer.missing == ["fake.renamed_helper"]
        assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
        assert [s[3] for s in tracer.spans] == [-1, 0, 0]
        own = tracer._self_times()
        outer = tracer.spans[0][2] - tracer.spans[0][1]
        children = sum(s[2] - s[1] for s in tracer.spans[1:])
        assert own[0] == pytest.approx(outer - children)
        assert module.outer.__name__ == "<lambda>" and not hasattr(module.outer, "__wrapped__")

    def test_reference_agrees_with_the_package_on_a_random_graph(self):
        quatkge = pytest.importorskip("quatkge")
        rng = np.random.default_rng(5)
        triples = sorted({(f"e{rng.integers(30)}", f"r{rng.integers(3)}", f"e{rng.integers(30)}")
                          for _ in range(120)})
        order = rng.permutation(len(triples))
        raw = [triples[i] for i in order]
        splits = raw[:80], raw[80:95], raw[95:]
        store = quatkge.build_store(*splits)
        table = quatkge.init_embeddings(store.n_entities, store.n_relations, 4, 3)
        graph = ref.Graph(*splits)
        for constraint in (False, True):
            expected = ref.rank_split(graph, table.entities, table.relations, graph.test,
                                      constraint=constraint)
            for mode in ("raw", "filtered"):
                got = quatkge.link_prediction(table, store, mode, constraint=constraint)
                assert expected[mode].compare(got.mr, got.mrr, got.hits, got.count,
                                              got.gold_reinserted) == []
