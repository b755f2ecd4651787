import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatkge import quat
from quatkge.errors import CheckpointError, ShapeMismatchError, ZeroQuaternionError
from quatkge.model import (CandidateScorer, check_table_matches_store,
                           init_embeddings, load_checkpoint, save_checkpoint,
                           score_triples)

from oracles import reference_score


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

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            init_embeddings(0, 1, 4, seed=0)


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
        table.entities = table.entities[:, :, perm]
        table.relations = table.relations[:, :, perm]
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


class TestNonFinite:
    """A table with a NaN or an infinity must not yield scores."""

    @pytest.mark.parametrize("scorer", ["quate_d", "rotate", "quate_inner"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_entity_row(self, scorer, bad):
        table = init_embeddings(4, 2, 3, seed=27)
        table.entities[2, 1, 0] = bad
        with pytest.raises(ZeroQuaternionError):
            CandidateScorer(table, scorer)
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
        save_checkpoint(table, path, scorer="quate_d", config_hash="abc123")
        loaded, meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.entities, table.entities)
        np.testing.assert_array_equal(loaded.relations, table.relations)
        assert meta["n_entities"] == 6 and meta["n_relations"] == 3
        assert meta["k"] == 5 and meta["seed"] == 24
        assert meta["scorer"] == "quate_d" and meta["config_hash"] == "abc123"

        second = tmp_path / "again.bin"
        save_checkpoint(loaded, second, scorer=meta["scorer"],
                        config_hash=meta["config_hash"])
        assert path.read_bytes() == second.read_bytes()

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
    """Loading arbitrary bytes gives a consistent table or CheckpointError."""
    path = tmp_path_factory.mktemp("fuzz") / "ck.bin"
    path.write_bytes(raw)
    try:
        table, meta = load_checkpoint(path)
    except CheckpointError:
        return
    assert table.entities.shape == (meta["n_entities"], 4, meta["k"])
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
