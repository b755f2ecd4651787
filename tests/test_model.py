import json
import math
import os
import struct
import threading
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatkge import model, quat
from quatkge.errors import CheckpointError, ShapeMismatchError, ZeroQuaternionError
from quatkge.model import (CandidateScorer, check_table_matches_store,
                           init_embeddings, load_checkpoint, save_checkpoint,
                           score_triples)

from conftest import traced_peak
from oracles import reference_draw_rows, reference_init, reference_score


def score(table, h, r, t, scorer="quate_d"):
    """One triple's score through the batch scorer."""
    return float(score_triples(table, [(h, r, t)], scorer)[0])


def rotate_by(head, relation):
    """Rotate a (4, k) head by the per-coordinate normalized relation."""
    return quat.hamilton(head, quat.normalize(relation))


class TestInit:
    def test_deterministic(self):
        a = init_embeddings(7, 3, 5, seed=99)
        b = init_embeddings(7, 3, 5, seed=99)
        np.testing.assert_array_equal(a.entities, b.entities)
        np.testing.assert_array_equal(a.relations, b.relations)

    def test_seed_changes_draws(self):
        a = init_embeddings(7, 3, 5, seed=99)
        b = init_embeddings(7, 3, 5, seed=100)
        assert not np.array_equal(a.entities, b.entities)

    @pytest.mark.parametrize("k", [1, 10, 200])
    def test_coordinate_magnitude_bound(self, k):
        table = init_embeddings(50, 5, k, seed=3)
        bound = 1.0 / math.sqrt(2 * k) + 1e-12
        for block in (table.entities, table.relations):
            assert np.all(quat.magnitude(block) <= bound)

    def test_real_part_centered(self):
        # mean of the real components over 10^6 draws stays within 3 sigma
        k = 200
        table = init_embeddings(5000, 1, k, seed=4)
        reals = table.entities[:, 0, :].ravel()
        sigma = 1.0 / math.sqrt(12 * k)   # Var(rho)*E[cos^2] = (1/6k)*(1/2)
        assert reals.size == 10**6
        assert abs(reals.mean()) < 3 * sigma / math.sqrt(reals.size)

    # k = 5: 120 bytes of Gaussian directions per row, so chunks of 1, 4 and
    # 7 rows; 30 entity and 9 relation rows leave a remainder chunk.
    CHUNKS = [1, 4 * 120, 7 * 120 + 1]

    @pytest.mark.parametrize("chunk_bytes", CHUNKS)
    def test_chunked_draw_equals_one_shot_draw(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(model, "_CHUNK_BYTES", chunk_bytes)
        table = init_embeddings(30, 9, 5, seed=3)
        expected = reference_init(30, 9, 5, np.random.default_rng(3))
        assert table.params.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk_bytes", CHUNKS)
    def test_degenerate_direction_in_a_later_chunk(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(model, "_CHUNK_BYTES", chunk_bytes)
        row, col = 22, 3
        # one counter over the Gaussian streams of both blocks' draws
        zeroing = ZeroDirectionRng(None, row, col)
        streams = model._streams

        def zeroing_streams(rng, rows, k):
            theta, rho, zeroing.rng = streams(rng, rows, k)
            return theta, rho, zeroing

        monkeypatch.setattr(model, "_streams", zeroing_streams)
        table = init_embeddings(30, 9, 5, seed=3)
        expected = reference_init(30, 9, 5,
                                  ZeroDirectionRng(np.random.default_rng(3), row, col))
        assert table.params.tobytes() == expected.tobytes()
        # the zero direction became the unit i direction
        params = table.params
        assert np.all(params[row, 2:, col] == 0.0) and params[row, 1, col] != 0.0

    @pytest.mark.parametrize("chunk_bytes", CHUNKS)
    def test_generator_ends_where_one_shot_draw_does(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(model, "_CHUNK_BYTES", chunk_bytes)
        rng, one_shot = np.random.default_rng(3), np.random.default_rng(3)
        # a float32 draw leaves half of a 64-bit draw buffered in both
        assert rng.random(dtype=np.float32) == one_shot.random(dtype=np.float32)
        model._draw_rows(rng, np.empty((30, 4, 5)))
        reference_draw_rows(one_shot, np.empty((30, 4, 5)))
        assert rng.random(3, dtype=np.float32).tobytes() == \
            one_shot.random(3, dtype=np.float32).tobytes()
        assert rng.random(5).tobytes() == one_shot.random(5).tobytes()

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            init_embeddings(0, 1, 4, seed=0)


class TestTwoThreadDraw:
    """Every block is drawn on two threads, the caller and one worker, at
    any count of usable CPUs."""

    WORKER = "quatkge-span-draw_0"
    # TestInit's chunk sizes, and one chunk for the whole block
    CHUNKS = TestInit.CHUNKS + [2**20]

    @pytest.fixture(params=[1, 2, 3])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(model, "_cpu_count", lambda: request.param)
        return request.param

    def assert_polar_threads(self, threads: list, started: list) -> None:
        """The theta draws ran on the worker, one started per block, and it
        was joined."""
        assert set(threads) == {self.WORKER} and started == [self.WORKER] * 2
        assert not span_threads()

    @pytest.mark.parametrize("chunk_bytes", CHUNKS)
    def test_equals_one_shot_draw(self, monkeypatch, cpus, chunk_bytes):
        monkeypatch.setattr(model, "_CHUNK_BYTES", chunk_bytes)
        threads, started = polar_threads(monkeypatch), started_threads(monkeypatch)
        table = init_embeddings(30, 9, 5, seed=3)
        expected = reference_init(30, 9, 5, np.random.default_rng(3))
        assert table.params.tobytes() == expected.tobytes()
        self.assert_polar_threads(threads, started)

    @pytest.mark.parametrize("chunk_bytes", CHUNKS)
    def test_degenerate_direction_in_a_later_chunk(self, monkeypatch, cpus, chunk_bytes):
        monkeypatch.setattr(model, "_CHUNK_BYTES", chunk_bytes)
        row, col = 22, 3
        zeroing = ZeroDirectionRng(None, row, col)
        threads, started = polar_threads(monkeypatch, zeroing), started_threads(monkeypatch)
        table = init_embeddings(30, 9, 5, seed=3)
        expected = reference_init(30, 9, 5,
                                  ZeroDirectionRng(np.random.default_rng(3), row, col))
        assert table.params.tobytes() == expected.tobytes()
        assert np.all(table.params[row, 2:, col] == 0.0) and table.params[row, 1, col] != 0.0
        self.assert_polar_threads(threads, started)

    @pytest.mark.parametrize("chunk_bytes", CHUNKS)
    def test_generator_ends_where_one_shot_draw_does(self, monkeypatch, cpus, chunk_bytes):
        monkeypatch.setattr(model, "_CHUNK_BYTES", chunk_bytes)
        threads = polar_threads(monkeypatch)
        rng, one_shot = np.random.default_rng(3), np.random.default_rng(3)
        assert rng.random(dtype=np.float32) == one_shot.random(dtype=np.float32)
        model._draw_rows(rng, np.empty((30, 4, 5)))
        reference_draw_rows(one_shot, np.empty((30, 4, 5)))
        assert rng.random(3, dtype=np.float32).tobytes() == \
            one_shot.random(3, dtype=np.float32).tobytes()
        assert rng.random(5).tobytes() == one_shot.random(5).tobytes()
        assert set(threads) == {self.WORKER}

    # k = 5 in chunks of 4 rows: the 30 entity rows are 8 chunks, and the
    # third draw of each stream fails
    @pytest.mark.parametrize("stream", ["theta", "gauss"])
    def test_failed_draw_is_raised_and_the_worker_joined(self, monkeypatch, cpus, stream):
        monkeypatch.setattr(model, "_CHUNK_BYTES", 4 * 120)
        streams = model._streams
        draws = []

        def failing_streams(rng, rows, k):
            theta, rho, gauss = streams(rng, rows, k)
            failing = ThreadRecordingRng(theta if stream == "theta" else gauss, draws, 3)
            return (failing, rho, gauss) if stream == "theta" else (theta, rho, failing)

        monkeypatch.setattr(model, "_streams", failing_streams)
        errors = []

        def draw() -> None:
            try:
                init_embeddings(30, 9, 5, seed=3)
            except RuntimeError as exc:
                errors.append(exc)

        # on a thread of its own, so that a deadlock fails the test instead
        # of hanging the run
        caller = threading.Thread(target=draw, name="test-caller", daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        assert [str(exc) for exc in errors] == ["draw 3 failed"]
        assert draws[-1] == (self.WORKER if stream == "theta" else "test-caller")
        assert not span_threads()


class ThreadRecordingRng:
    """The generator `rng`, recording in `threads` the thread of every
    ``uniform`` and ``standard_normal`` call; the `fail_at`-th call raises."""

    def __init__(self, rng, threads: list, fail_at: int | None = None):
        self.rng, self.threads, self.fail_at = rng, threads, fail_at

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def _draw(self, method, *args, **kwargs):
        self.threads.append(threading.current_thread().name)
        if len(self.threads) == self.fail_at:
            raise RuntimeError(f"draw {self.fail_at} failed")
        return getattr(self.rng, method)(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self._draw("uniform", *args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        return self._draw("standard_normal", *args, **kwargs)


def polar_threads(monkeypatch, gaussian=None) -> list:
    """The names of the threads that draw theta, one per chunk, from now on;
    `gaussian`, a ``ZeroDirectionRng``, then wraps the Gaussian stream."""
    threads = []
    streams = model._streams

    def recording_streams(rng, rows, k):
        theta, rho, gauss = streams(rng, rows, k)
        if gaussian is not None:
            gaussian.rng, gauss = gauss, gaussian
        return ThreadRecordingRng(theta, threads), rho, gauss

    monkeypatch.setattr(model, "_streams", recording_streams)
    return threads


def started_threads(monkeypatch) -> list:
    """The names of the threads ``model`` starts from now on."""
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recording)
    return started


class ZeroDirectionRng:
    """The generator `rng` with a Gaussian stream that, counted in (3, k)
    rows over all ``standard_normal`` calls, has an all-zero direction at
    `row`, `col`, however the calls split the rows."""

    def __init__(self, rng, row, col):
        self.rng = rng
        self.row, self.col, self.drawn = row, col, 0

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def uniform(self, *args, **kwargs):
        return self.rng.uniform(*args, **kwargs)

    def standard_normal(self, size):
        gauss = self.rng.standard_normal(size=size)
        if 0 <= self.row - self.drawn < size[0]:
            gauss[self.row - self.drawn, :, self.col] = 0.0
        self.drawn += size[0]
        return gauss


class TestOverSpans:
    """``model._over_spans`` on its own: the (i, lo, hi) calls, their
    threads, and the error raised when spans fail."""

    @pytest.mark.parametrize("n,spans", [(1, 1), (7, 1), (7, 2), (7, 3)])
    def test_spans_cut_the_range_on_their_threads(self, monkeypatch, n, spans):
        started = started_threads(monkeypatch)
        calls = []

        def fn(i, lo, hi):
            calls.append((i, lo, hi, threading.current_thread().name))
            return i, lo, hi

        results = model._over_spans(fn, n, spans)
        assert [call[:3] for call in sorted(calls)] == results
        assert [i for i, _, _ in results] == list(range(spans))
        # contiguous, nonempty runs from 0 to n, as equal as whole numbers allow
        assert results[0][1] == 0 and results[-1][2] == n
        assert all(hi == lo for (_, _, hi), (_, lo, _) in zip(results, results[1:]))
        assert {hi - lo for _, lo, hi in results} <= {n // spans, -(-n // spans)}
        # span 0 on the caller; spans 1.. on the executor's workers, of
        # which a pool may hand several spans to one
        names = [name for *_, name in sorted(calls)]
        assert names[0] == threading.current_thread().name
        assert set(names[1:]) <= set(started)
        assert started == [f"quatkge-span_{j}" for j in range(len(started))]
        assert (1 <= len(started) <= spans - 1) if spans > 1 else started == []
        assert not span_threads()

    @pytest.mark.parametrize("failing", [(0, 2), (1, 2)])
    def test_first_error_raised_after_every_span_returned(self, failing):
        returned = []

        def fn(i, lo, hi):
            try:
                if i > 0:
                    time.sleep(0.05)  # so that an early raise would miss them
                if i in failing:
                    raise RuntimeError(f"span {i} failed")
            finally:
                returned.append(i)

        with pytest.raises(RuntimeError) as exc:
            model._over_spans(fn, 7, 3)
        assert str(exc.value) == f"span {failing[0]} failed"
        assert sorted(returned) == [0, 1, 2]
        assert not span_threads()


class TestRotateHead:
    def test_identity_relation(self):
        rng = np.random.default_rng(5)
        head = rng.standard_normal((4, 6))
        identity = np.stack([np.ones(6), np.zeros(6), np.zeros(6), np.zeros(6)])
        np.testing.assert_allclose(rotate_by(head, identity), head, rtol=1e-15)

    def test_k1_pure_i_rotation(self):
        head = np.array([[1.0], [2.0], [3.0], [4.0]])
        rel = np.array([[0.0], [1.0], [0.0], [0.0]])
        np.testing.assert_allclose(rotate_by(head, rel).ravel(),
                                   [-2.0, 1.0, 4.0, -3.0], atol=1e-15)

    def test_magnitude_preserved(self):
        rng = np.random.default_rng(6)
        head = rng.standard_normal((4, 32))
        rel = rng.standard_normal((4, 32))
        rotated = rotate_by(head, rel)
        np.testing.assert_allclose(quat.magnitude(rotated), quat.magnitude(head),
                                   rtol=1e-9)

    def test_relation_scale_irrelevant(self):
        rng = np.random.default_rng(7)
        head = rng.standard_normal((4, 4))
        rel = rng.standard_normal((4, 4))
        np.testing.assert_allclose(rotate_by(head, rel),
                                   rotate_by(head, 3.5 * rel), rtol=1e-12)

    def test_zero_relation_coordinate(self):
        head = np.ones((4, 2))
        rel = np.ones((4, 2))
        rel[:, 1] = 0.0
        with pytest.raises(ZeroQuaternionError):
            rotate_by(head, rel)


def planted_table(rng, n=6, m=2, k=4):
    """Random table where triple (0, 0, 1) fits exactly."""
    table = init_embeddings(n, m, k, seed=int(rng.integers(2**31)))
    table.entities[1] = rotate_by(table.entities[0], table.relations[0])
    return table


class TestScorers:
    def test_quate_d_perfect_fit(self):
        table = planted_table(np.random.default_rng(8))
        assert score(table, 0, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_quate_d_known_value(self):
        table = init_embeddings(3, 1, 1, seed=0)
        table.entities[0] = [[1.0], [2.0], [3.0], [4.0]]
        table.entities[1] = [[0.0], [0.0], [0.0], [0.0]]
        table.relations[0] = [[0.0], [1.0], [0.0], [0.0]]
        assert score(table, 0, 0, 1) == pytest.approx(math.sqrt(30))

    def test_quate_d_coordinate_permutation_invariant(self):
        rng = np.random.default_rng(9)
        table = init_embeddings(4, 2, 8, seed=21)
        baseline = score(table, 0, 1, 2)
        perm = rng.permutation(8)
        table.params = table.params[:, :, perm]
        assert score(table, 0, 1, 2) == pytest.approx(baseline, rel=1e-12)

    def test_rotate_identity_relation(self):
        table = init_embeddings(3, 1, 4, seed=10)
        table.relations[0, 0, :] = 1.0
        table.relations[0, 1:, :] = 0.0
        expected = np.sqrt(np.sum(
            (table.entities[0, :2] - table.entities[1, :2]) ** 2))
        assert score(table, 0, 0, 1, "rotate") == pytest.approx(expected, rel=1e-12)

    def test_rotate_reduction_on_planar_embeddings(self):
        rng = np.random.default_rng(11)
        table = init_embeddings(30, 4, 6, seed=12)
        table.entities[:, 2:, :] = 0.0
        table.relations[:, 2:, :] = 0.0
        triples = []
        for _ in range(1000):
            h, t = rng.integers(30, size=2)
            r = rng.integers(4)
            triples.append((h, r, t))
        full = score_triples(table, triples, "quate_d")
        planar = score_triples(table, triples, "rotate")
        for (h, r, t), d, c in zip(triples, full, planar):
            expected = reference_score(table, h, r, t, "rotate")
            assert abs(d - expected) < 1e-9
            assert abs(c - expected) < 1e-9

    def test_rotate_perfect_fit(self):
        table = init_embeddings(3, 1, 4, seed=13)
        table.entities[0, 2:, :] = 0.0
        table.relations[0, 2:, :] = 0.0
        table.entities[1] = rotate_by(table.entities[0], table.relations[0])
        assert score(table, 0, 0, 1, "rotate") == pytest.approx(0.0, abs=1e-12)

    def test_rotate_zero_complex_coordinate(self):
        table = init_embeddings(3, 1, 2, seed=14)
        table.relations[0, :2, 0] = 0.0
        with pytest.raises(ZeroQuaternionError):
            score(table, 0, 0, 1, "rotate")

    def test_inner_planted_tail_gives_norm(self):
        table = planted_table(np.random.default_rng(15))
        expected = float(np.sum(table.entities[1] ** 2))
        assert score(table, 0, 0, 1, "quate_inner") == pytest.approx(expected, rel=1e-12)

    def test_inner_identity_relation(self):
        table = init_embeddings(4, 1, 5, seed=16)
        table.relations[0, 0, :] = 1.0
        table.relations[0, 1:, :] = 0.0
        expected = float(np.sum(table.entities[0] * table.entities[2]))
        assert score(table, 0, 0, 2, "quate_inner") == pytest.approx(expected, rel=1e-12)

    def test_inner_known_value(self):
        table = init_embeddings(3, 1, 1, seed=17)
        table.entities[0] = [[1.0], [2.0], [3.0], [4.0]]
        table.entities[1] = [[1.0], [1.0], [1.0], [1.0]]
        table.relations[0] = [[0.0], [1.0], [0.0], [0.0]]
        # rotated head is (-2, 1, 4, -3); dot with all-ones is 0
        assert score(table, 0, 0, 1, "quate_inner") == pytest.approx(0.0, abs=1e-12)


class TestCandidateSweeps:
    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    def test_matches_scalar_path(self, scorer):
        table = init_embeddings(3, 2, 4, seed=18)
        sweeps = CandidateScorer(table, scorer)
        tails = sweeps.all_tails(0, 1)
        heads = sweeps.all_heads(1, 2)
        assert tails.shape == (3,) and heads.shape == (3,)
        for t in range(3):
            expected = reference_score(table, 0, 1, t, scorer)
            assert abs(tails[t] - expected) < 1e-12
        for h in range(3):
            expected = reference_score(table, h, 1, 2, scorer)
            assert abs(heads[h] - expected) < 1e-12

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    def test_block_matches_scalar_path(self, scorer):
        table = init_embeddings(7, 3, 4, seed=22)
        sweeps = CandidateScorer(table, scorer)
        heads, rels, tails = np.array([0, 3, 6, 3]), np.array([1, 0, 2, 1]), np.array([5, 5, 1, 2])
        tail_block = sweeps.all_tails(heads, rels)
        head_block = sweeps.all_heads(rels, tails)
        assert tail_block.shape == (4, 7) and head_block.shape == (4, 7)
        for i, (h, r, t) in enumerate(zip(heads.tolist(), rels.tolist(), tails.tolist())):
            for e in range(7):
                assert abs(tail_block[i, e] - reference_score(table, h, r, e, scorer)) < 1e-12
                assert abs(head_block[i, e] - reference_score(table, e, r, t, scorer)) < 1e-12
        assert sweeps.all_tails(6, 2).shape == (7,)
        assert sweeps.all_heads(2, 1).shape == (7,)

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    def test_block_keys_match_sweeps(self, scorer):
        # a block's stacked queries, keyed a column tile at a time, give back
        # the sweeps' scores bit for bit
        table = init_embeddings(11, 3, 4, seed=24)
        sweeps = CandidateScorer(table, scorer)
        rows = np.array([[0, 1, 5], [3, 0, 5], [10, 2, 1]])
        queries = sweeps.queries(rows)
        scaled = sweeps.key_scale * queries
        tiles = [sweeps.keys(scaled, lo, min(11, lo + 4)) for lo in range(0, 11, 4)]
        keys, row_sq = sweeps.keys(scaled, 0, 11)
        np.testing.assert_array_equal(np.concatenate([tile for tile, _ in tiles], axis=1), keys)
        np.testing.assert_array_equal(np.concatenate([sq for _, sq in tiles]), row_sq)
        cols = sweeps._cols
        np.testing.assert_array_equal(row_sq, np.einsum("nc,nc->n", cols, cols))
        # gathered columns, including rotate's strided (a, b) ones
        ids = np.array([1, 4, 5, 9])
        gathered = np.full((ids.size, queries.shape[1]), np.nan)
        gathered_keys, gathered_sq = sweeps.gathered_keys(scaled, ids, gathered)
        np.testing.assert_allclose(gathered_keys, keys[:, ids], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(gathered_sq, row_sq[ids])
        np.testing.assert_array_equal(gathered, cols[ids])
        if scorer == "quate_inner":
            scores = -keys
        else:
            scores = np.sqrt(np.clip(keys + np.einsum("bc,bc->b", queries, queries)[:, None],
                                     0.0, None))
        np.testing.assert_array_equal(scores[:3], sweeps.all_tails(rows[:, 0], rows[:, 1]))
        np.testing.assert_array_equal(scores[3:], sweeps.all_heads(rows[:, 1], rows[:, 2]))
        gold = np.concatenate([rows[:, 2], rows[:, 0]])
        gold_keys, gold_sq = sweeps.pair_keys(scaled, gold)
        np.testing.assert_allclose(gold_keys, keys[np.arange(6), gold], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(gold_sq, row_sq[gold])

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    def test_queries_equal_two_product_build(self, scorer):
        # one product over [h; t] and [w_hat; conj(w_hat)] gives every row
        # bit for bit what a product over its own half of the block gives
        table = init_embeddings(50, 4, 9, seed=25)
        sweeps = CandidateScorer(table, scorer)
        rows = np.random.default_rng(26).integers(0, [50, 4, 50], size=(13, 3))
        part = model._planar if scorer == "rotate" else (lambda q: q)
        unit = quat.normalize(part(table.relations[rows[:, 1]]))
        tails = quat.hamilton(part(table.entities[rows[:, 0]]), unit)
        heads = quat.hamilton(part(table.entities[rows[:, 2]]), quat.conjugate(unit))
        queries = sweeps.queries(rows)
        expected = np.concatenate([tails, heads]).reshape(26, -1)[:, :queries.shape[1]]
        assert queries.shape == expected.shape
        assert queries.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_score_triples_matches_single(self):
        table = init_embeddings(5, 2, 3, seed=19)
        batch = [(0, 0, 1), (2, 1, 3), (4, 0, 0)]
        for scorer in ("quate_d", "rotate", "quate_inner"):
            values = score_triples(table, batch, scorer)
            for row, (h, r, t) in zip(values, batch):
                assert row == pytest.approx(reference_score(table, h, r, t, scorer),
                                            abs=1e-12)

    def test_planted_tail_attains_minimum(self):
        table = planted_table(np.random.default_rng(20))
        scores = CandidateScorer(table).all_tails(0, 0)
        assert int(np.argmin(scores)) == 1

    def test_larger_sweep_tolerance(self):
        table = init_embeddings(120, 3, 8, seed=21)
        scorer = CandidateScorer(table, "quate_d")
        scores = scorer.all_tails(5, 2)
        for t in (0, 17, 63, 119):
            expected = reference_score(table, 5, 2, t)
            assert abs(scores[t] - expected) < 1e-12

    @pytest.mark.parametrize("env, workers", [
        ({}, 1),                                             # BLAS takes every CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, 6),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
        ({"GOTO_NUM_THREADS": "2"}, 3),
        ({"OMP_NUM_THREADS": "1"}, 6),
        ({"OMP_NUM_THREADS": "2,1"}, 1),                     # nested: not read
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
    ])
    def test_worker_count_leaves_blas_its_threads(self, monkeypatch, env, workers):
        for name in model._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: set(range(6)),
                            raising=False)
        assert model._worker_count() == workers

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7, 20_000])
    def test_span_norms_equal_whole_table(self, monkeypatch, scorer, workers, n):
        # Every row keyed as table slices in tiles of n // 9 columns (one at
        # N = 1 and 7), cut into one span per worker as ranking cuts them;
        # a NaN in the last tile raises from the last span.
        check_row_norms(monkeypatch, n, scorer, workers, np.arange(n), max(1, n // 9),
                        gathered=False, bad=np.nan)

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("span_rows, chunk_rows", [(1, 1), (6, 4), (100, 100)])
    def test_normed_rows(self, monkeypatch, scorer, workers, span_rows, chunk_rows):
        # 17 of 60 rows, first pair-keyed `chunk_rows` ids at a time, then
        # gathered in tiles of `span_rows` ids; in tiles of 6 ids the second
        # holds the run 40-45, keyed as a slice. The pair keys cache 4 of
        # the rows first, and a tile that holds one norms it again with its
        # other rows. NaN rows that no key reads do not raise; an inf in the
        # last tile does, from the last span.
        ids = np.array([0, 3, 4, 9, 17, 18, 40, 41, 42, 43, 44, 45, 52, 53, 56, 58, 59])
        check_row_norms(monkeypatch, 60, scorer, workers, ids, span_rows, gathered=True,
                        bad=np.inf, golds=ids[[1, 6, 13, 15]], gold_rows=chunk_rows,
                        unread=[1, 50])


class TestNonFinite:
    """A table with a NaN or an infinity must not yield scores."""

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_entity_row(self, scorer, bad):
        table = init_embeddings(4, 2, 3, seed=27)
        table.entities[2, 1, 0] = bad
        # entity rows are checked when a key or a query reads them
        cand = CandidateScorer(table, scorer)
        scaled = cand.key_scale * cand.queries(np.array([[0, 0, 1], [3, 1, 0]]))
        width = scaled.shape[1]
        cand.keys(scaled, 0, 2)
        cand.gathered_keys(scaled, np.array([1, 3]), np.empty((2, width)))
        cand.pair_keys(scaled[:2], np.array([3, 0]))
        with pytest.raises(ZeroQuaternionError):
            cand.keys(scaled, 0, 4)
        with pytest.raises(ZeroQuaternionError):
            cand.gathered_keys(scaled, np.array([0, 2]), np.empty((2, width)))
        with pytest.raises(ZeroQuaternionError):
            cand.pair_keys(scaled[:2], np.array([1, 2]))
        with pytest.raises(ZeroQuaternionError):
            cand.queries(np.array([[0, 0, 1], [1, 1, 2]]))  # a head query's source
        with pytest.raises(ZeroQuaternionError):
            CandidateScorer(table, scorer).all_tails(0, 0)
        with pytest.raises(ZeroQuaternionError):
            score_triples(table, [(0, 0, 1), (2, 1, 3)], scorer)
        assert np.isfinite(score_triples(table, [(0, 0, 1)], scorer)).all()

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    def test_relation_row(self, scorer):
        table = init_embeddings(4, 2, 3, seed=28)
        table.relations[1, 0, 2] = np.nan
        with pytest.raises(ZeroQuaternionError):
            CandidateScorer(table, scorer)
        with pytest.raises(ZeroQuaternionError):
            score_triples(table, [(0, 1, 1)], scorer)


class TestModelInvariants:
    """Score-level identities on random tables."""

    def setup_method(self):
        self.rng = np.random.default_rng(22)
        self.table = init_embeddings(40, 6, 8, seed=23)

    def test_inversion_identity(self):
        table = self.table
        for _ in range(200):
            h, t = self.rng.integers(40, size=2)
            r = self.rng.integers(6)
            unit = quat.normalize(table.relations[r])
            forward = np.sqrt(np.sum(
                (quat.hamilton(table.entities[h], unit) - table.entities[t]) ** 2))
            backward = np.sqrt(np.sum(
                (quat.hamilton(table.entities[t], quat.conjugate(unit))
                 - table.entities[h]) ** 2))
            assert abs(forward - backward) < 1e-9

    def test_symmetry_with_real_relation(self):
        table = self.table.copy()
        table.relations[0, 1:, :] = 0.0
        table.relations[0, 0, :] = np.abs(table.relations[0, 0, :]) + 0.1
        for _ in range(100):
            h, t = self.rng.integers(40, size=2)
            assert (score(table, h, 0, t)
                    == pytest.approx(score(table, t, 0, h), abs=1e-9))

    def test_antisymmetry_with_imaginary_relation(self):
        table = self.table
        separated = 0
        for _ in range(1000):
            h, t = self.rng.integers(40, size=2)
            if h == t:
                separated += 1
                continue
            r = self.rng.integers(6)
            gap = abs(score(table, h, r, t) - score(table, t, r, h))
            separated += gap > 1e-6
        assert separated >= 990

    def test_composition_associativity(self):
        table = self.table
        for _ in range(200):
            h, t = self.rng.integers(40, size=2)
            r2, r3 = self.rng.integers(6, size=2)
            u2 = quat.normalize(table.relations[r2])
            u3 = quat.normalize(table.relations[r3])
            chained = np.sqrt(np.sum(
                (quat.hamilton(quat.hamilton(table.entities[h], u2), u3)
                 - table.entities[t]) ** 2))
            grouped = np.sqrt(np.sum(
                (quat.hamilton(table.entities[h], quat.hamilton(u2, u3))
                 - table.entities[t]) ** 2))
            assert abs(chained - grouped) < 1e-9


class TestCheckpoint:
    def test_round_trip_values_and_bytes(self, tmp_path):
        table = init_embeddings(6, 3, 5, seed=24)
        path = tmp_path / "model.bin"
        save_checkpoint(table, path, config_hash="abc123")
        loaded, meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.entities, table.entities)
        np.testing.assert_array_equal(loaded.relations, table.relations)
        assert meta["n_entities"] == 6 and meta["n_relations"] == 3
        assert meta["k"] == 5 and meta["seed"] == 24
        assert meta["scorer"] == "quate_d" and meta["config_hash"] == "abc123"

        second = tmp_path / "again.bin"
        save_checkpoint(loaded, second, config_hash=meta["config_hash"])
        assert path.read_bytes() == second.read_bytes()

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "best.bin"
        save_checkpoint(init_embeddings(6, 3, 5, seed=1), path)
        before = path.read_bytes()

        class FailingFile:
            """A file whose fifth write fails, as on a full disk."""

            def __init__(self, handle):
                self.handle, self.writes = handle, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def write(self, data):
                self.writes += 1
                if self.writes == 5:
                    raise OSError(28, "No space left on device")
                return self.handle.write(data)

        opened = []
        real_open = open

        def failing_open(*args, **kwargs):
            opened.append(FailingFile(real_open(*args, **kwargs)))
            return opened[-1]

        with mock.patch("quatkge.model.open", failing_open, create=True):
            with pytest.raises(OSError, match="No space left"):
                save_checkpoint(init_embeddings(6, 3, 5, seed=2), path)
        assert [f.writes for f in opened] == [5]
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_table_keeps_previous_file(self, tmp_path, monkeypatch, value):
        monkeypatch.setattr(model, "_CHUNK_BYTES", 4 * 8)   # four rows a chunk
        path = tmp_path / "best.bin"
        save_checkpoint(init_embeddings(6, 3, 4, seed=1), path)
        before = path.read_bytes()
        table = init_embeddings(6, 3, 4, seed=2)
        table.relations[2, 3, 1] = value    # in the last chunk written
        with pytest.raises(ZeroQuaternionError):
            save_checkpoint(table, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_non_finite_chunk_refused_at_load(self, tmp_path, monkeypatch, value, where):
        monkeypatch.setattr(model, "_CHUNK_BYTES", 4 * 8)   # four rows a chunk
        table = init_embeddings(6, 3, 4, seed=2)
        if where == "first":
            table.entities[0, 0, 0] = value   # the first chunk read
        else:
            table.relations[2, 3, 3] = value  # the last chunk read
        # save_checkpoint refuses a non-finite table, so the file is written
        # in the checkpoint format directly
        path = tmp_path / "bad.bin"
        path.write_bytes(with_header(table, json.dumps(header_of(table)).encode()))
        with pytest.raises(ZeroQuaternionError, match="non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("chunk_bytes", [8, 4 * 40, 7 * 40 + 1])
    def test_chunked_bytes_equal_whole_block_writer(self, tmp_path, monkeypatch,
                                                    chunk_bytes):
        # k = 5: 40 bytes per component row, so chunks of 1, 4 and 7 rows
        monkeypatch.setattr(model, "_CHUNK_BYTES", chunk_bytes)
        table = init_embeddings(30, 9, 5, seed=4)
        path = tmp_path / "model.bin"
        save_checkpoint(table, path, config_hash="abc")
        header = dict(header_of(table), config_hash="abc")
        assert path.read_bytes() == with_header(
            table, json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        loaded, _ = load_checkpoint(path)
        assert loaded.params.tobytes() == table.params.tobytes()

    def test_short_chunk_read_is_checkpoint_error(self, tmp_path, monkeypatch):
        """A file that shrinks after the size check: a later chunk reads short."""
        monkeypatch.setattr(model, "_CHUNK_BYTES", 4 * 40)
        path = tmp_path / "model.bin"
        save_checkpoint(init_embeddings(30, 9, 5, seed=4), path)
        real_open = open
        with mock.patch("quatkge.model.open", create=True,
                        side_effect=lambda *a, **kw: ShrinkingFile(real_open(*a, **kw), 3)):
            with pytest.raises(CheckpointError, match="ended before"):
                load_checkpoint(path)

    # k = 5: 160 bytes per table row, and with _SPAN_BYTES at one row the CPU
    # count sets the spans. The 39 rows split at row 19 into 2 spans and at
    # rows 13 and 26 into 3, so the entity/relation boundary at row 30 lies
    # inside the last span. Each span's share of the chunk is `chunk_rows`
    # rows, which leaves remainder chunks on both sides of the boundary.
    @pytest.mark.parametrize("chunk_rows", [1, 4, 7])
    @pytest.mark.parametrize("spans", [1, 2, 3])
    def test_spans_equal_whole_block_writer(self, tmp_path, monkeypatch, spans, chunk_rows):
        monkeypatch.setattr(model, "_SPAN_BYTES", 160)
        monkeypatch.setattr(model, "_CHUNK_BYTES", spans * 160 * chunk_rows + 1)
        monkeypatch.setattr(model, "_cpu_count", lambda: spans)
        counts = record_spans(monkeypatch)
        # a seed per case, so that rows a span failed to read cannot hold a
        # freed copy of the same table
        table = init_embeddings(30, 9, 5, seed=10 * spans + chunk_rows)
        header = json.dumps(header_of(table)).encode()
        path = tmp_path / "model.bin"
        path.write_bytes(with_header(table, header))
        loaded, _ = load_checkpoint(path)
        assert counts == [spans]
        assert with_header(loaded, header) == path.read_bytes()

    @pytest.fixture
    def three_spans(self, monkeypatch):
        """Saves and loads cut the 39 rows of a k = 5 table into 3 spans of
        13 rows, written and read 4 rows a chunk."""
        monkeypatch.setattr(model, "_SPAN_BYTES", 160)
        monkeypatch.setattr(model, "_CHUNK_BYTES", 3 * 160 * 4)
        monkeypatch.setattr(model, "_cpu_count", lambda: 3)
        return record_spans(monkeypatch)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_in_last_span(self, tmp_path, three_spans, value):
        table = init_embeddings(30, 9, 5, seed=4)
        table.relations[8, 2, 4] = value   # row 38: the last span's last chunk
        path = tmp_path / "bad.bin"
        path.write_bytes(with_header(table, json.dumps(header_of(table)).encode()))
        with pytest.raises(ZeroQuaternionError, match="non-finite"):
            load_checkpoint(path)
        assert three_spans == [3] and not span_threads()

    def test_short_read_in_later_span(self, tmp_path, three_spans):
        path = tmp_path / "model.bin"
        save_checkpoint(init_embeddings(30, 9, 5, seed=4), path)
        real_open = open
        handles = []

        def opening(*args, **kwargs):
            handles.append(real_open(*args, **kwargs))
            # the first handle, span 0's, reads whole; the spans that open
            # the file again get half the bytes of their first read
            return handles[-1] if len(handles) == 1 else ShrinkingFile(handles[-1], 1)

        with mock.patch("quatkge.model.open", create=True, side_effect=opening):
            with pytest.raises(CheckpointError, match="ended before"):
                load_checkpoint(path)
        assert len(handles) == 3 and all(handle.closed for handle in handles)
        assert three_spans == [3, 3] and not span_threads()   # the save's, the load's

    def test_file_replaced_before_a_span_opens(self, tmp_path, monkeypatch, three_spans):
        path, other = tmp_path / "model.bin", tmp_path / "other.bin"
        save_checkpoint(init_embeddings(30, 9, 5, seed=4), path)
        save_checkpoint(init_embeddings(30, 9, 5, seed=5), other)   # the same size
        over_spans = model._over_spans

        def replacing(fn, n, spans):
            os.replace(other, path)   # after the header and size checks
            return over_spans(fn, n, spans)

        monkeypatch.setattr(model, "_over_spans", replacing)
        with pytest.raises(CheckpointError, match="replaced"):
            load_checkpoint(path)
        assert three_spans == [3, 3, 3] and not span_threads()   # two saves, one load

    # The row spans of a save are those of a load (see above).
    @pytest.mark.parametrize("chunk_rows", [1, 4, 7])
    @pytest.mark.parametrize("spans", [1, 2, 3])
    def test_span_writes_equal_whole_block_writer(self, tmp_path, monkeypatch, spans,
                                                  chunk_rows):
        monkeypatch.setattr(model, "_SPAN_BYTES", 160)
        monkeypatch.setattr(model, "_CHUNK_BYTES", spans * 160 * chunk_rows + 1)
        monkeypatch.setattr(model, "_cpu_count", lambda: spans)
        counts = record_spans(monkeypatch)
        table = init_embeddings(30, 9, 5, seed=10 * spans + chunk_rows)
        path = tmp_path / "model.bin"
        save_checkpoint(table, path, config_hash="abc")
        header = dict(header_of(table), config_hash="abc")
        assert counts == [spans]
        assert path.read_bytes() == with_header(
            table, json.dumps(header, sort_keys=True, separators=(",", ":")).encode())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_in_last_span_of_a_save(self, tmp_path, three_spans, value):
        path = tmp_path / "best.bin"
        save_checkpoint(init_embeddings(30, 9, 5, seed=1), path)
        before = path.read_bytes()
        table = init_embeddings(30, 9, 5, seed=2)
        table.relations[8, 2, 4] = value   # row 38: the last span's last chunk
        with pytest.raises(ZeroQuaternionError, match="not written"):
            save_checkpoint(table, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        assert three_spans == [3, 3] and not span_threads()

    @pytest.mark.parametrize("load_spans", [1, 3])
    @pytest.mark.parametrize("save_spans", [1, 3])
    def test_round_trip_across_span_counts(self, tmp_path, monkeypatch, save_spans,
                                           load_spans):
        monkeypatch.setattr(model, "_SPAN_BYTES", 160)
        monkeypatch.setattr(model, "_CHUNK_BYTES", 3 * 160 * 4)
        counts = record_spans(monkeypatch)
        table = init_embeddings(30, 9, 5, seed=4)
        path = tmp_path / "model.bin"
        monkeypatch.setattr(model, "_cpu_count", lambda: save_spans)
        save_checkpoint(table, path)
        monkeypatch.setattr(model, "_cpu_count", lambda: load_spans)
        loaded, _ = load_checkpoint(path)
        assert counts == [save_spans, load_spans]
        assert loaded.params.tobytes() == table.params.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        table = init_embeddings(4, 2, 3, seed=25)
        path = tmp_path / "model.bin"
        save_checkpoint(table, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_shape_guard(self):
        table = init_embeddings(4, 2, 3, seed=26)
        check_table_matches_store(table, 4, 2)
        with pytest.raises(ShapeMismatchError):
            check_table_matches_store(table, 5, 2)

    def test_short_file(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"QKGE\x01")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", [
        {"n_entities": None}, {"n_relations": None}, {"k": None}, {"seed": None},
        {"n_entities": 0}, {"k": -1}, {"n_relations": "2"}, {"k": 3.0},
        {"k": True}, {"seed": -1}, {"seed": "24"}, {"scorer": "bogus"},
        {"scorer": 1},
    ], ids=lambda change: ",".join(f"{k}={v!r}" for k, v in change.items()))
    def test_bad_header_field(self, tmp_path, change):
        table = init_embeddings(4, 2, 3, seed=24)
        meta = header_of(table)
        for key, value in change.items():
            if value is None:
                del meta[key]
            else:
                meta[key] = value
        path = tmp_path / "bad.bin"
        path.write_bytes(with_header(table, json.dumps(meta).encode()))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [b"[1, 2]", b"7", b"{", b"\xff\xfe"])
    def test_header_not_object(self, tmp_path, header):
        path = tmp_path / "bad.bin"
        path.write_bytes(with_header(init_embeddings(4, 2, 3, seed=24), header))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestMemoryBudgets:
    """Initialization and checkpoint I/O hold the table plus about one chunk.

    At N = 20,000 and k = 50 the table is 32 MB and a chunk 1 MiB. tracemalloc
    sees numpy's data buffers; the budgets count bytes above what was traced
    before the call.
    """

    N, M, K = 20_000, 3, 50

    @property
    def table_bytes(self) -> int:
        return (self.N + self.M) * 4 * self.K * 8

    def test_init(self):
        # the table, and one chunk of Gaussian directions with that chunk's
        # theta, rho and temporaries
        peak = traced_peak(lambda: init_embeddings(self.N, self.M, self.K, seed=1))
        assert peak <= self.table_bytes + 4 * model._CHUNK_BYTES

    @pytest.mark.parametrize("spans", [1, 3])
    def test_save(self, tmp_path, monkeypatch, spans):
        table = init_embeddings(self.N, self.M, self.K, seed=1)
        monkeypatch.setattr(model, "_cpu_count", lambda: spans)
        counts = record_spans(monkeypatch)
        peak = traced_peak(lambda: save_checkpoint(table, tmp_path / "model.bin"))
        assert counts == [spans]
        assert peak <= 2 * model._CHUNK_BYTES

    @pytest.mark.parametrize("spans", [1, 3])
    def test_load(self, tmp_path, monkeypatch, spans):
        path = tmp_path / "model.bin"
        save_checkpoint(init_embeddings(self.N, self.M, self.K, seed=1), path)
        monkeypatch.setattr(model, "_cpu_count", lambda: spans)
        counts = record_spans(monkeypatch)
        peak = traced_peak(lambda: load_checkpoint(path))
        assert counts == [spans]
        assert peak <= self.table_bytes + 2 * model._CHUNK_BYTES


class ShrinkingFile:
    """A file handle that reads normally except on its `short`-th
    ``readinto``, which gets half the bytes asked for, as from a file that
    shrank after its size was checked."""

    def __init__(self, handle, short: int):
        self.handle, self.short, self.reads = handle, short, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def __getattr__(self, name):
        return getattr(self.handle, name)

    def readinto(self, buffer):
        self.reads += 1
        view = memoryview(buffer).cast("B")
        if self.reads == self.short:
            view = view[:len(view) // 2]
        return self.handle.readinto(view)


def check_row_norms(monkeypatch, n, scorer, workers, ids, tile, gathered, bad,
                    golds=(), gold_rows=1, unread=()):
    """Key the rows `ids` of an n-row table for four queries, in tiles of
    `tile` ids cut into one span per worker as ranking cuts them, after
    pair-keying `golds` `gold_rows` at a time; a tile whose ids form one run
    is keyed as a table slice, any other as gathered rows when `gathered`.

    Every |e|^2 the keys return and the scorer caches must be the
    whole-table einsum's bit for bit, rotate's strided (a, b) columns
    included; only a gold, which its tile's rows then norm again, may be
    normed twice, a call over cached rows norms none, and rows no key read
    stay NaN.
    Then with `bad` in the last id's row (and NaN in the rows `unread`),
    keying must raise from the span of the last tile, before its keys are
    formed, and cache no row of that tile but the golds.
    """
    width = 32 if scorer == "rotate" else 64
    table = init_embeddings(n, 2, 16, seed=29)
    cols = table.entities.reshape(n, -1)[:, :width]  # rotate: strided (a, b)
    whole = np.einsum("nc,nc->n", cols, cols)
    normed, failed = [], []
    row_norms = CandidateScorer._row_norms

    def recording(cand, rows_ids, rows):
        # a call norms all of its rows when any of them is not cached
        fresh = np.isnan(cand._row_sq[rows_ids]).any()
        try:
            row_sq = row_norms(cand, rows_ids, rows)
        except ZeroQuaternionError:
            failed.append(threading.current_thread().name)
            raise
        if fresh:
            normed.extend(np.arange(n)[rows_ids].tolist())
        return row_sq

    monkeypatch.setattr(CandidateScorer, "_row_norms", recording)
    tiles = [ids[lo:lo + tile] for lo in range(0, ids.size, tile)]

    def sweep(cand):
        for lo in range(0, len(golds), gold_rows):
            part = np.asarray(golds[lo:lo + gold_rows])
            _, row_sq = cand.pair_keys(scaled[:part.size], part)
            np.testing.assert_array_equal(row_sq.view(np.uint64), whole[part].view(np.uint64))

        def span(_, first, last):
            for part in tiles[first:last]:
                out = np.full((4, part.size), 7.0)
                try:
                    if part[-1] - part[0] == part.size - 1 or not gathered:
                        _, row_sq = cand.keys(scaled, part[0], part[-1] + 1, out)
                    else:
                        _, row_sq = cand.gathered_keys(scaled, part,
                                                       np.empty((part.size, width)), out)
                except ZeroQuaternionError:
                    assert (out == 7.0).all()  # raised before any key was formed
                    raise
                np.testing.assert_array_equal(row_sq.view(np.uint64),
                                              whole[part].view(np.uint64))

        model._over_spans(span, len(tiles), min(workers, len(tiles)))

    cand = CandidateScorer(table, scorer)
    # the queries of the finite table, also for the sweep after `bad` is set
    scaled = cand.key_scale * cand.queries(np.array([[0, 1, n - 1], [n // 2, 0, 0]]))
    assert np.isnan(cand._row_sq).all()
    sweep(cand)
    assert sorted(set(normed)) == ids.tolist()
    assert {row for row, times in Counter(normed).items() if times > 1} <= set(golds)
    np.testing.assert_array_equal(cand._row_sq[ids].view(np.uint64), whole[ids].view(np.uint64))
    assert np.isnan(np.delete(cand._row_sq, ids)).all()
    count = len(normed)
    sweep(cand)  # every row is cached now
    assert len(normed) == count
    table.entities[unread, 0, 0] = np.nan
    table.entities[ids[-1], 1, 0] = bad  # in the last tile, that of the last span
    cand = CandidateScorer(table, scorer)
    with pytest.raises(ZeroQuaternionError):
        sweep(cand)
    if min(workers, len(tiles)) == 1:
        assert failed == ["MainThread"]
    else:  # on a worker, not the caller
        assert len(failed) == 1 and failed[0].startswith("quatkge-span_")
    assert np.isnan(cand._row_sq[np.setdiff1d(tiles[-1], golds)]).all()
    assert not np.isinf(cand._row_sq).any()


def record_spans(monkeypatch) -> list:
    """The span count of every ``model._over_spans`` call from now on."""
    counts = []
    over_spans = model._over_spans

    def recording(fn, n, spans):
        counts.append(spans)
        return over_spans(fn, n, spans)

    monkeypatch.setattr(model, "_over_spans", recording)
    return counts


def span_threads() -> list:
    """Threads left running by ``model``: span workers and draw workers."""
    return [t for t in threading.enumerate() if t.name.startswith("quatkge-span")]


def header_of(table) -> dict:
    return {"config_hash": "", "format_version": 1, "k": table.k,
            "n_entities": table.n_entities, "n_relations": table.n_relations,
            "scorer": "quate_d", "seed": table.seed}


def with_header(table, header: bytes) -> bytes:
    """A checkpoint of `table` whose JSON header is replaced by `header`."""
    payload = b"".join(
        np.ascontiguousarray(block[:, c, :], dtype="<f8").tobytes()
        for block in (table.entities, table.relations) for c in range(4))
    return b"QKGE" + struct.pack("<II", 1, len(header)) + header + payload


def checkpoint_bytes(n, m, k, seed) -> bytes:
    table = init_embeddings(n, m, k, seed=seed)
    return with_header(table, json.dumps(header_of(table)).encode())


def load_or_reject(tmp_path_factory, raw: bytes) -> None:
    """Loading arbitrary bytes gives a consistent table or CheckpointError,
    or ZeroQuaternionError for a payload that is not finite."""
    path = tmp_path_factory.mktemp("fuzz") / "ck.bin"
    path.write_bytes(raw)
    try:
        table, meta = load_checkpoint(path)
    except CheckpointError:
        return
    except ZeroQuaternionError:
        # only a payload of the declared size that holds a non-finite value
        header_len = struct.unpack("<I", raw[8:12])[0]
        assert not np.isfinite(np.frombuffer(raw[12 + header_len:], dtype="<f8")).all()
        return
    assert table.entities.shape == (meta["n_entities"], 4, meta["k"])
    assert np.isfinite(table.params).all()
    assert table.relations.shape == (meta["n_relations"], 4, meta["k"])
    assert table.k == meta["k"] and table.seed == meta["seed"]


FUZZ = settings(max_examples=40, deadline=None)


class TestCheckpointFuzz:
    @FUZZ
    @given(raw=st.binary(max_size=200))
    def test_random_bytes(self, tmp_path_factory, raw):
        load_or_reject(tmp_path_factory, raw)

    @FUZZ
    @given(raw=st.binary(max_size=200))
    def test_random_bytes_after_magic(self, tmp_path_factory, raw):
        load_or_reject(tmp_path_factory, b"QKGE" + raw)

    @FUZZ
    @given(dims=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3)),
           data=st.data())
    def test_truncated(self, tmp_path_factory, dims, data):
        raw = checkpoint_bytes(*dims, seed=5)
        cut = data.draw(st.integers(0, len(raw) - 1))
        path = tmp_path_factory.mktemp("fuzz") / "ck.bin"
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @FUZZ
    @given(dims=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3)),
           data=st.data())
    def test_byte_flipped(self, tmp_path_factory, dims, data):
        raw = bytearray(checkpoint_bytes(*dims, seed=5))
        flips = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                             st.integers(1, 255)),
                                   min_size=1, max_size=4))
        for at, mask in flips:
            raw[at] ^= mask
        load_or_reject(tmp_path_factory, bytes(raw))
