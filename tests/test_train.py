import logging
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatkge
from quatkge import evaluation, model, train
from quatkge.data import HEAD, TAIL
from quatkge.errors import ZeroQuaternionError
from quatkge.model import EmbeddingTable, init_embeddings
from quatkge.train import (EPS_ADAGRAD, LOSS_FORMS, GradientBuffer, TrainConfig,
                           adagrad_step, batch_loss, fit, grad_batch,
                           sample_negatives)

from conftest import make_store, random_store, traced_peak, wide_store
import oracles


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig(k=4)
        assert cfg.margin == 1.0 and cfg.lr == 0.02 and cfg.batch_size == 10

    @pytest.mark.parametrize("kwargs", [
        dict(k=0), dict(margin=0.0), dict(margin=-1.0), dict(lr=0.0),
        dict(l1=-0.1), dict(l2=-0.1), dict(neg_rate=0), dict(batch_size=0),
        dict(epochs=-1), dict(seed=-1), dict(constraint_mode="sometimes"),
        dict(loss_form="huber"), dict(patience=0),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**{"k": 4, **kwargs})

    def test_hash_stable_and_sensitive(self):
        a = TrainConfig(k=4, seed=1)
        b = TrainConfig(k=4, seed=1)
        c = TrainConfig(k=4, seed=2)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_hash_pinned(self):
        # Checkpoint headers carry this hash; it must not move when the
        # field list is read from the dataclass.
        assert TrainConfig(k=4, seed=1).config_hash() == (
            "09b36b812f5d226ad8bfbce02f30806f980b37d07f73fa607a18bea389087a6c")


class TestSampleNegatives:
    def test_count_contract(self, tiny_store):
        rng = np.random.default_rng(0)
        positive = tuple(int(x) for x in tiny_store.train[0])
        negs = sample_negatives(tiny_store, positive, 5, "none", rng)
        assert len(negs) == 5

    def test_negatives_not_true(self):
        rng = np.random.default_rng(1)
        store = random_store(rng, n_entities=25, n_train=100)
        for row in store.train[:50]:
            for neg in sample_negatives(store, row, 5, "none", rng):
                assert not store.is_true(*neg)

    def test_corruption_keeps_relation_and_one_side(self, tiny_store):
        rng = np.random.default_rng(2)
        positive = tuple(int(x) for x in tiny_store.train[0])
        h, r, t = positive
        for neg in sample_negatives(tiny_store, positive, 50, "none", rng):
            assert neg[1] == r
            assert (neg[0] == h) != (neg[2] == t) or neg.tolist() == list(positive)

    def test_type_constrained_membership(self):
        rng = np.random.default_rng(3)
        store = random_store(rng, n_entities=25, n_train=120)
        for row in store.train[:40]:
            r = int(row[1])
            heads = oracles.observed_ids(store, r, HEAD)
            tails = oracles.observed_ids(store, r, TAIL)
            for neg in sample_negatives(store, row, 5, "type_constrained", rng):
                if neg[0] != int(row[0]):
                    assert neg[0] in heads
                else:
                    assert neg[2] in tails

    def test_degenerate_graph_hits_bound(self, caplog):
        # With type constraints the only candidate rebuilds the positive,
        # so the bound triggers and the positive is accepted as negative.
        store = make_store([("a", "r", "b")])
        rng = np.random.default_rng(4)
        with caplog.at_level(logging.WARNING, logger="quatkge.train"):
            negs = sample_negatives(store, (0, 0, 1), 1, "type_constrained", rng)
        assert negs.tolist() == [[0, 0, 1]]
        assert any("attempt bound" in rec.message for rec in caplog.records)

    def test_rows_are_positive_major(self):
        rng = np.random.default_rng(5)
        store = random_store(rng, n_entities=25, n_train=100)
        positives = store.train[:12]
        negs = sample_negatives(store, positives, 4, "none", rng)
        assert negs.shape == (48, 3) and negs.dtype == np.int64
        for i, (h, r, t) in enumerate(positives):
            for neg in negs[4 * i:4 * i + 4]:
                assert neg[1] == r
                assert (neg[0] == h) != (neg[2] == t)

    def test_same_seed_same_array(self):
        store = random_store(np.random.default_rng(6), n_entities=25, n_train=100)
        for mode in ("none", "type_constrained"):
            a, b = (sample_negatives(store, store.train, 3, mode,
                                     np.random.default_rng(7)) for _ in range(2))
            np.testing.assert_array_equal(a, b)

    def test_type_pools_drawn_in_full(self):
        # Relation "a" (id 0) has entity 0 and entity 9 (the last id) in its
        # pools, so they sit at both ends of a key range; "b" (id 1) ends the
        # type key arrays; "c" (id 2) never occurs in train, so its pools
        # fall back to all entities.
        train = [("e0", "a", "e1"), ("e2", "b", "e3"), ("e4", "b", "e5"),
                 ("e6", "b", "e7"), ("e8", "b", "e9"), ("e3", "a", "e9"),
                 ("e9", "a", "e4")]
        store = make_store(train, [], [("e0", "c", "e1")])
        positives = np.concatenate([store.train, store.test])
        negs = sample_negatives(store, positives, 400, "type_constrained",
                                np.random.default_rng(8)).reshape(-1, 400, 3)
        for (h, r, t), rows in zip(positives.tolist(), negs):
            for position, col, gold in ((HEAD, 0, h), (TAIL, 2, t)):
                drawn = set(rows[rows[:, col] != gold, col].tolist())
                expected = (oracles.observed_ids(store, r, position)
                            - oracles.competitor_ids(store, (h, r, t), position))
                assert drawn == expected
        assert store.type_pools(HEAD)[2].all()

    @settings(max_examples=60, deadline=None)
    @given(triples=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1),
                                      st.integers(0, 4)), min_size=1, max_size=30),
           n_valid=st.integers(0, 5), neg_rate=st.integers(1, 4),
           max_attempts=st.integers(1, 4),
           mode=st.sampled_from(["none", "type_constrained"]),
           seed=st.integers(0, 2**16))
    def test_true_rows_match_bound_warnings(self, triples, n_valid, neg_rate,
                                            max_attempts, mode, seed):
        named = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in triples]
        n_train = max(1, len(named) - n_valid)
        store = make_store(named[:n_train], named[n_train:])
        listed = {tuple(row) for split in (store.train, store.valid)
                  for row in split.tolist()}
        records = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        logger = logging.getLogger("quatkge.train")
        logger.addHandler(handler)
        try:
            with mock.patch.object(train, "MAX_ATTEMPTS", max_attempts):
                negs = sample_negatives(store, store.train, neg_rate, mode,
                                        np.random.default_rng(seed))
        finally:
            logger.removeHandler(handler)
        assert all("attempt bound" in rec.getMessage() for rec in records)
        true_rows = [i for i, row in enumerate(negs.tolist()) if tuple(row) in listed]
        assert Counter(rec.args[0] for rec in records) == Counter(
            tuple(store.train[i // neg_rate].tolist()) for i in true_rows)


from gradcheck import (dense_grads, finite_difference_check,
                       random_batch as toy_batch, smooth_instance)
from oracles import reference_score


class TestBatchLoss:
    def test_margin_satisfied_gives_zero(self):
        # positive fits exactly, negative is far: hinge inactive
        table = init_embeddings(3, 1, 2, seed=0)
        table.relations[0, 0, :] = 1.0
        table.relations[0, 1:, :] = 0.0
        table.entities[1] = table.entities[0]          # phi(0,0,1) = 0
        table.entities[2] = table.entities[0] + 5.0    # phi(0,0,2) large
        cfg = TrainConfig(k=2, margin=1.0)
        assert batch_loss(table, [(0, 0, 1)], [[(0, 0, 2)]], cfg) == 0.0

    def test_tie_penalized_by_margin(self):
        table = init_embeddings(3, 1, 2, seed=1)
        table.entities[2] = table.entities[1]   # phi(pos) == phi(neg)
        cfg = TrainConfig(k=2, margin=1.0)
        loss = batch_loss(table, [(0, 0, 1)], [[(0, 0, 2)]], cfg)
        assert loss == pytest.approx(1.0)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(2)
        table = init_embeddings(5, 2, 3, seed=3)
        pos, neg = toy_batch(rng)
        margin, l1, l2 = 0.7, 0.03, 0.05
        expected = 0.0
        for i in range(pos.shape[0]):
            phi_p = reference_score(table, *pos[i])
            for j in range(neg.shape[1]):
                phi_n = reference_score(table, *neg[i, j])
                expected += max(0.0, margin + phi_p - phi_n)
        for triples in (pos.reshape(-1, 3), neg.reshape(-1, 3)):
            for h, r, t in triples:
                expected += l1 * float(np.sum(table.entities[h] ** 2))
                expected += l1 * float(np.sum(table.entities[t] ** 2))
                expected += l2 * float(np.sum(table.relations[r] ** 2))
        got = batch_loss(table, pos, neg, TrainConfig(k=3, margin=margin, l1=l1, l2=l2))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_pointwise_form(self):
        rng = np.random.default_rng(3)
        table = init_embeddings(5, 2, 3, seed=4)
        pos, neg = toy_batch(rng)
        margin = 1.0
        expected = 0.0
        for h, r, t in pos:
            expected += max(0.0, margin + reference_score(table, h, r, t))
        for h, r, t in neg.reshape(-1, 3):
            expected += max(0.0, margin - reference_score(table, h, r, t))
        got = batch_loss(table, pos, neg,
                         TrainConfig(k=3, margin=margin, loss_form="pointwise"))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_zero_iff_satisfied(self):
        rng = np.random.default_rng(4)
        table = init_embeddings(6, 2, 3, seed=5)
        pos, neg = toy_batch(rng, n=6)
        loss = batch_loss(table, pos, neg, TrainConfig(k=3, margin=1.0))
        assert loss >= 0.0


class TestGradients:
    def test_inactive_hinge_zero_gradient(self):
        table = init_embeddings(3, 1, 2, seed=6)
        table.relations[0, 0, :] = 1.0
        table.relations[0, 1:, :] = 0.0
        table.entities[1] = table.entities[0]
        table.entities[2] = table.entities[0] + 5.0
        cfg = TrainConfig(k=2, margin=1.0, epochs=1)
        buffer = grad_batch(table, [(0, 0, 1)], [[(0, 0, 2)]], cfg)
        assert buffer.ids.size == 0 and buffer.grads.shape == (0, 4, 2)

    @pytest.mark.parametrize("neg_rate", [1, 5])
    def test_finite_differences(self, neg_rate):
        for seed in range(5):
            table, pos, neg, cfg = smooth_instance(seed, neg_rate,
                                                   l1=0.02 * (seed % 2),
                                                   l2=0.01 * (seed % 2))
            finite_difference_check(table, pos, neg, cfg)

    def test_pointwise_finite_differences(self):
        table, pos, neg, cfg = smooth_instance(11, 2)
        cfg = replace(cfg, loss_form="pointwise")
        finite_difference_check(table, pos, neg, cfg)

    def test_regularizer_only_gradient(self):
        # hinge inactive by construction, l1 > 0: gradient is 2*l1*component
        table = init_embeddings(5, 1, 3, seed=7)
        table.relations[0, 0, :] = 1.0
        table.relations[0, 1:, :] = 0.0
        table.entities[1] = table.entities[0]           # phi(pos) = 0
        table.entities[3] = table.entities[2] + 9.0     # phi(neg) huge
        l1 = 0.25
        cfg = TrainConfig(k=3, margin=1.0, l1=l1, epochs=1)
        buffer = grad_batch(table, [(0, 0, 1)], [[(2, 0, 3)]], cfg)
        dense_e, dense_r = dense_grads(table, buffer)
        for eid in (0, 1, 2, 3):
            np.testing.assert_allclose(dense_e[eid], 2 * l1 * table.entities[eid],
                                       rtol=1e-12)
        np.testing.assert_allclose(dense_r[0], 0.0, atol=1e-15)

    def test_descent_direction(self):
        # a tiny step along -grad must not increase the loss at a smooth point
        table, pos, neg, cfg = smooth_instance(12, 2, l1=0.01, l2=0.01)
        before = batch_loss(table, pos, neg, cfg)
        buffer = grad_batch(table, pos, neg, cfg)
        alpha = 1e-6
        table.params[buffer.ids] -= alpha * buffer.grads
        after = batch_loss(table, pos, neg, cfg)
        assert after <= before + 1e-15


def add_at_sums(ids, grads):
    """Per-id sums by np.add.at, one row after another."""
    unique, inverse = np.unique(ids, return_inverse=True)
    acc = np.zeros((unique.shape[0],) + grads.shape[1:])
    np.add.at(acc, inverse, grads)
    return unique, acc


def two_pass_loss_and_grads(table, pos, neg, cfg):
    """Positives and negatives through separate forward and backward passes,
    every touched row summed by np.add.at. Also returns each triple's
    d(loss)/d(phi), positives first."""
    neg_flat = neg.reshape(-1, 3)
    t_pos = train._phi_terms(table, pos, train.StepBuffers())
    t_neg = train._phi_terms(table, neg_flat, train.StepBuffers())
    hinge, w_pos, w_neg = train._hinge_weights(t_pos["phi"], t_neg["phi"].reshape(neg.shape[:2]),
                                               cfg.margin, cfg.loss_form)
    grads = [train._backward(t_pos, w_pos, train.StepBuffers()),
             train._backward(t_neg, w_neg.ravel(), train.StepBuffers())]
    penalty = 0.0
    for terms, (g_head, g_tail, g_rel), triples in zip((t_pos, t_neg), grads, (pos, neg_flat)):
        if cfg.l1 > 0.0:
            g_head += 2.0 * cfg.l1 * terms["heads"]
            g_tail += 2.0 * cfg.l1 * terms["tails"]
            ent = table.entities[triples[:, [0, 2]].ravel()]
            penalty += cfg.l1 * float(np.sum(ent * ent))
        if cfg.l2 > 0.0:
            g_rel += 2.0 * cfg.l2 * terms["rels"]
            rel = table.relations[triples[:, 1]]
            penalty += cfg.l2 * float(np.sum(rel * rel))
    (gh_pos, gt_pos, gr_pos), (gh_neg, gt_neg, gr_neg) = grads
    ent = add_at_sums(np.concatenate([pos[:, 0], pos[:, 2], neg_flat[:, 0], neg_flat[:, 2]]),
                      np.concatenate([gh_pos, gt_pos, gh_neg, gt_neg]))
    rel = add_at_sums(np.concatenate([pos[:, 1], neg_flat[:, 1]]),
                      np.concatenate([gr_pos, gr_neg]))
    return hinge, penalty, ent, rel, np.concatenate([w_pos, w_neg.ravel()])


def live_rows(pos, neg, upstream, n_entities):
    """The table rows of the triples whose d(loss)/d(phi) is nonzero."""
    live = np.concatenate([pos, neg.reshape(-1, 3)])[upstream != 0]
    return np.unique(np.concatenate([live[:, 0], live[:, 2], live[:, 1] + n_entities]))


class TestFusedStep:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_ids=st.integers(1, 8), n_rows=st.integers(1, 60),
           shape=st.sampled_from([(1,), (4, 1), (4, 3)]))
    def test_aggregate_matches_add_at(self, data, n_ids, n_rows, shape):
        ids = 7 * np.array(data.draw(st.lists(st.integers(0, n_ids - 1), min_size=n_rows,
                                              max_size=n_rows)), dtype=np.int64) + 3
        value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-8, 1e8),
                          st.floats(-1e8, -1e-8))
        size = n_rows * int(np.prod(shape))
        grads = np.array(data.draw(st.lists(value, min_size=size, max_size=size)),
                         dtype=np.float64).reshape((n_rows,) + shape)
        got_ids, got = train._aggregate(ids, grads)
        want_ids, want = add_at_sums(ids, grads)
        assert np.array_equal(got_ids, want_ids) and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("loss_form", ["pairwise", "pointwise"])
    @pytest.mark.parametrize("l1, l2", [(0.0, 0.0), (0.03, 0.0), (0.0, 0.05), (0.03, 0.05)])
    def test_one_pass_equals_two_passes(self, loss_form, l1, l2):
        active = inactive = 0
        for seed in range(40):
            rng = np.random.default_rng(40 + seed)
            table = init_embeddings(6, 2, 3, seed=seed)
            pos, neg = toy_batch(rng, n=6, neg_rate=4, batch=8)
            cfg = TrainConfig(k=3, margin=0.1 + 0.3 * (seed % 8), l1=l1, l2=l2, neg_rate=4,
                              loss_form=loss_form)
            loss, buffer, n_active = train._loss_and_grads(table, pos, neg, cfg,
                                                           train.StepBuffers())
            hinge, penalty, (ent_ids, ent), (rel_ids, rel), upstream = (
                two_pass_loss_and_grads(table, pos, neg, cfg))
            terms = train._phi_terms(table, np.concatenate([pos, neg.reshape(-1, 3)]),
                                     train.StepBuffers())
            assert train._regularizer(terms, pos.shape[0], l1, l2) == penalty
            assert loss == hinge + penalty
            assert batch_loss(table, pos, neg, cfg) == loss
            assert n_active == np.count_nonzero(upstream)
            active += n_active
            inactive += upstream.size - n_active

            # Every row the reference sums; without penalties, less the rows
            # that only zero-upstream triples touch.
            reference = GradientBuffer(np.concatenate([ent_ids, rel_ids + table.n_entities]),
                                       np.concatenate([ent, rel]), table.n_entities)
            want_ids = (reference.ids if l1 or l2
                        else live_rows(pos, neg, upstream, table.n_entities))
            assert np.array_equal(buffer.ids, want_ids)
            assert np.isin(buffer.ids, reference.ids).all()
            for got, want in zip(dense_grads(table, buffer), dense_grads(table, reference)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
        assert active and inactive   # the batches mix active and inactive triples

    @pytest.mark.parametrize("neg_rate", [1, 3])
    def test_all_inactive_batch_moves_nothing(self, neg_rate):
        # Every positive fits exactly and every negative is far away.
        table = init_embeddings(6, 2, 2, seed=15)
        table.relations[:, 0, :] = 1.0
        table.relations[:, 1:, :] = 0.0
        table.entities[1] = table.entities[0]
        table.entities[3] = table.entities[2]
        table.entities[4:] = table.entities[0] + 5.0
        pos = np.array([(0, 0, 1), (2, 1, 3)])
        neg = np.array([[(0, 0, 4 + j % 2) for j in range(neg_rate)], [(2, 1, 5)] * neg_rate])
        cfg = TrainConfig(k=2, margin=1.0, neg_rate=neg_rate)
        buffers = train.StepBuffers()
        loss, grads, n_active = train._loss_and_grads(table, pos, neg, cfg, buffers)
        assert loss == 0.0 and n_active == 0
        assert grads.ids.size == 0 and grads.grads.shape == (0, 4, 2)
        params = table.params.copy()
        acc = np.random.default_rng(16).random(table.params.shape)
        before = acc.copy()
        adagrad_step(table, acc, grads, cfg.lr, buffers)
        assert table.params.tobytes() == params.tobytes()
        assert acc.tobytes() == before.tobytes()


def two_pass_fit_loop(store, cfg):
    """fit without validation, stepping on `two_pass_loss_and_grads`: the
    table, the per-epoch losses and active fractions, and the number of steps
    with an inactive triple."""
    table = init_embeddings(store.n_entities, store.n_relations, cfg.k, cfg.seed)
    acc = np.zeros_like(table.params)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    n_train = store.train.shape[0]
    losses, fractions, steps_with_inactive = [], [], 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n_train)
        epoch_loss, active = 0.0, 0
        for lo in range(0, n_train, cfg.batch_size):
            pos = store.train[order[lo:lo + cfg.batch_size]]
            neg = sample_negatives(store, pos, cfg.neg_rate, cfg.constraint_mode,
                                   rng).reshape(pos.shape[0], cfg.neg_rate, 3)
            hinge, penalty, (ent_ids, ent), (rel_ids, rel), upstream = (
                two_pass_loss_and_grads(table, pos, neg, cfg))
            epoch_loss += hinge + penalty
            active += np.count_nonzero(upstream)
            steps_with_inactive += bool((upstream == 0).any())
            grads = GradientBuffer(np.concatenate([ent_ids, rel_ids + table.n_entities]),
                                   np.concatenate([ent, rel]), table.n_entities)
            adagrad_step(table, acc, grads, cfg.lr)
        losses.append(epoch_loss / n_train)
        fractions.append(active / (n_train * (1 + cfg.neg_rate)))
    return table, losses, fractions, steps_with_inactive


def reference_fit_loop(store, cfg):
    """fit without validation, one step at a time through the public calls,
    each of which works on fresh arrays: the table and per-epoch losses."""
    table = init_embeddings(store.n_entities, store.n_relations, cfg.k, cfg.seed)
    acc = np.zeros_like(table.params)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    n_train = store.train.shape[0]
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for lo in range(0, n_train, cfg.batch_size):
            batch = store.train[order[lo:lo + cfg.batch_size]]
            negatives = sample_negatives(store, batch, cfg.neg_rate, cfg.constraint_mode, rng)
            epoch_loss += batch_loss(table, batch, negatives, cfg)
            adagrad_step(table, acc, grad_batch(table, batch, negatives, cfg), cfg.lr)
        losses.append(epoch_loss / n_train)
    return table, losses


class TestStepBuffers:
    """fit reuses one set of step arrays; nothing may leak between steps."""

    @pytest.mark.parametrize("constraint_mode", ["none", "type_constrained"])
    @pytest.mark.parametrize("loss_form", ["pairwise", "pointwise"])
    def test_fit_matches_fresh_array_loop(self, constraint_mode, loss_form):
        store = random_store(np.random.default_rng(30), n_entities=15, n_train=61,
                             n_valid=5, n_test=5)
        cfg = TrainConfig(k=5, epochs=4, batch_size=8, neg_rate=3, l1=0.02, l2=0.03,
                          seed=13, eval_every=0, constraint_mode=constraint_mode,
                          loss_form=loss_form)
        assert store.train.shape[0] % cfg.batch_size != 0   # a short last batch
        table, losses = reference_fit_loop(store, cfg)
        result = fit(store, cfg)
        assert np.array_equal(result.table.entities, table.entities)
        assert np.array_equal(result.table.relations, table.relations)
        assert [rec["loss"] for rec in result.log] == losses

    @pytest.mark.parametrize("loss_form", ["pairwise", "pointwise"])
    def test_fit_without_penalties_matches_two_pass_loop(self, loss_form):
        store = random_store(np.random.default_rng(31), n_entities=15, n_train=61,
                             n_valid=5, n_test=5)
        cfg = TrainConfig(k=5, epochs=6, batch_size=8, neg_rate=3, margin=0.5, seed=17,
                          eval_every=0, loss_form=loss_form)
        table, losses, fractions, steps_with_inactive = two_pass_fit_loop(store, cfg)
        result = fit(store, cfg)
        assert steps_with_inactive > 0
        assert result.table.params.tobytes() == table.params.tobytes()
        assert [rec["loss"] for rec in result.log] == losses
        assert [rec["active_fraction"] for rec in result.log] == fractions

    def test_results_do_not_alias_step_buffers(self):
        table, pos, neg, cfg = smooth_instance(14, 3, l1=0.01, l2=0.02)
        first = grad_batch(table, pos, neg, cfg)
        kept = [first.ids.copy(), first.grads.copy()]
        second = grad_batch(table, pos[::-1], neg[::-1], cfg)
        for arr, copy in zip((first.ids, first.grads), kept):
            assert np.array_equal(arr, copy)
            assert not any(np.shares_memory(arr, other) for other in (second.ids, second.grads))
        assert type(batch_loss(table, pos, neg, cfg)) is float

        buffers = train.StepBuffers()
        loss, grads, _ = train._loss_and_grads(table, pos, neg, cfg, buffers)
        train.adagrad_step(table, np.zeros_like(table.params), grads, cfg.lr, buffers)
        assert type(loss) is float and buffers._storage
        for arr in (grads.ids, grads.grads):
            assert not any(np.shares_memory(arr, buf) for buf in buffers._storage.values())


class TestAdagrad:
    def test_first_unit_gradient_step(self):
        table = init_embeddings(2, 1, 2, seed=8)
        before = table.entities[0].copy()
        grads = GradientBuffer(np.array([0]), np.ones((1, 4, 2)), table.n_entities)
        adagrad_step(table, np.zeros_like(table.params), grads, lr=0.02)
        np.testing.assert_allclose(before - table.entities[0],
                                   0.02 / (1.0 + EPS_ADAGRAD), rtol=1e-12)

    def test_zero_gradient_no_change(self):
        table = init_embeddings(2, 1, 2, seed=9)
        before = table.entities.copy()
        grads = GradientBuffer(np.array([0]), np.zeros((1, 4, 2)), table.n_entities)
        adagrad_step(table, np.zeros_like(table.params), grads, lr=0.02)
        np.testing.assert_array_equal(table.entities, before)

    def test_repeated_gradient_shrinks_step(self):
        table = init_embeddings(2, 1, 2, seed=10)
        acc = np.zeros_like(table.params)
        grads = GradientBuffer(np.array([0]), np.full((1, 4, 2), 0.5), table.n_entities)
        snapshot = table.entities[0].copy()
        adagrad_step(table, acc, grads, lr=0.02)
        first = snapshot - table.entities[0]
        snapshot = table.entities[0].copy()
        adagrad_step(table, acc, grads, lr=0.02)
        second = snapshot - table.entities[0]
        assert np.all(second < first)

    def test_out_of_range_id_raises_before_writing(self):
        # past the last row, and before the first (which would wrap)
        for ids in ([1, 4], [-1, 1]):
            table = init_embeddings(3, 1, 2, seed=12)
            before = table.copy()
            acc = np.zeros_like(table.params)
            grads = GradientBuffer(np.array(ids), np.ones((2, 4, 2)), table.n_entities)
            with pytest.raises(IndexError):
                adagrad_step(table, acc, grads, lr=0.02)
            np.testing.assert_array_equal(table.params, before.params)
            assert not acc.any()

    def test_untouched_rows_unchanged(self):
        table = init_embeddings(4, 2, 2, seed=11)
        before = table.entities.copy()
        grads = GradientBuffer(np.array([1]), np.ones((1, 4, 2)), table.n_entities)
        adagrad_step(table, np.zeros_like(table.params), grads, lr=0.02)
        for eid in (0, 2, 3):
            np.testing.assert_array_equal(table.entities[eid], before[eid])

    def test_relation_r_is_row_n_plus_r(self):
        table = init_embeddings(4, 3, 2, seed=13)
        before = table.copy()
        acc = np.zeros_like(table.params)
        e, r = 2, 1
        grads = GradientBuffer(np.array([e, table.n_entities + r]),
                               np.full((2, 4, 2), 0.5), table.n_entities)
        assert grads.entity_ids.tolist() == [e] and grads.relation_ids.tolist() == [r]
        adagrad_step(table, acc, grads, lr=0.02)
        step = 0.02 * 0.5 / (0.5 + EPS_ADAGRAD)
        np.testing.assert_allclose(before.entities[e] - table.entities[e], step, rtol=1e-12)
        np.testing.assert_allclose(before.relations[r] - table.relations[r], step,
                                   rtol=1e-12)
        changed = np.flatnonzero((table.params != before.params).any(axis=(1, 2)))
        assert changed.tolist() == [e, table.n_entities + r]
        assert np.flatnonzero(acc.any(axis=(1, 2))).tolist() == [e, table.n_entities + r]
        assert np.all(acc[[e, table.n_entities + r]] == 0.25)


class TestFit:
    def small_store(self, seed=20):
        return random_store(np.random.default_rng(seed), n_entities=15,
                            n_train=60, n_valid=15, n_test=15)

    def test_zero_epochs_returns_init(self):
        store = self.small_store()
        cfg = TrainConfig(k=4, epochs=0, seed=5)
        result = fit(store, cfg)
        init = init_embeddings(store.n_entities, store.n_relations, 4, 5)
        np.testing.assert_array_equal(result.table.entities, init.entities)
        np.testing.assert_array_equal(result.table.relations, init.relations)
        assert result.log == []

    def test_deterministic_given_seed(self):
        store = self.small_store()
        cfg = TrainConfig(k=4, epochs=8, seed=6, eval_every=4, patience=10)
        a, b = fit(store, cfg), fit(store, cfg)
        np.testing.assert_array_equal(a.table.entities, b.table.entities)
        np.testing.assert_array_equal(a.table.relations, b.table.relations)
        for ra, rb in zip(a.log, b.log):
            assert ra["epoch"] == rb["epoch"] and ra["loss"] == rb["loss"]
            assert ra.get("val_mrr") == rb.get("val_mrr")

    def test_log_and_best_tracking(self):
        store = self.small_store()
        cfg = TrainConfig(k=4, epochs=10, seed=7, eval_every=5, patience=10)
        result = fit(store, cfg)
        assert len(result.log) == 10
        assert result.best_report is not None
        assert result.best_epoch % 5 == 0
        evals = [rec for rec in result.log if "val_mrr" in rec]
        assert len(evals) == 2

    @pytest.mark.parametrize("constraint_mode", ["none", "type_constrained"])
    def test_best_report_ranks_the_returned_table(self, constraint_mode):
        store = self.small_store(seed=22)
        cfg = TrainConfig(k=4, epochs=9, seed=9, eval_every=3, patience=10,
                          constraint_mode=constraint_mode)
        result = fit(store, cfg)
        constraint = constraint_mode == "type_constrained"
        assert result.best_report == evaluation.link_prediction(
            result.table, store, "filtered", constraint, split="valid")
        assert result.best_report.mrr == max(rec["val_mrr"] for rec in result.log
                                             if "val_mrr" in rec)
        assert fit(store, replace(cfg, eval_every=0)).best_report is None

    def test_one_best_table_buffer(self, tmp_path):
        # One copy of the best table without a checkpoint; with one, none:
        # the best table is read back from the checkpoint at the end.
        store = self.small_store(seed=22)
        cfg = TrainConfig(k=4, epochs=7, seed=5, eval_every=1, patience=10)
        # validation draws nothing from the training stream, so a run that
        # stops at the best epoch ends on the table the full run kept
        for path, copies in ((None, 1), (tmp_path / "best.bin", 0)):
            with mock.patch.object(EmbeddingTable, "copy", autospec=True,
                                   side_effect=EmbeddingTable.copy) as copy:
                result = fit(store, cfg, checkpoint_path=path)
            mrrs = [rec["val_mrr"] for rec in result.log]
            improving = [i for i, mrr in enumerate(mrrs)
                         if mrr > max(mrrs[:i], default=-1)]
            assert len(improving) >= 3 and result.best_epoch < cfg.epochs
            assert copy.call_count == copies
            stopped = fit(store, replace(cfg, epochs=result.best_epoch, eval_every=0))
            assert result.table.params.tobytes() == stopped.table.params.tobytes()
            assert result.table.seed == cfg.seed

    def test_loss_decreases_on_average(self):
        store = self.small_store(seed=21)
        cfg = TrainConfig(k=6, epochs=30, seed=8, eval_every=0)
        result = fit(store, cfg)
        first = np.mean([r["loss"] for r in result.log[:5]])
        last = np.mean([r["loss"] for r in result.log[-5:]])
        assert last < first

    def test_untouched_rows_keep_init_values(self):
        # Entities appearing only in valid/test cannot enter a batch when
        # sampling is type-constrained, so their rows must stay at init.
        train = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")]
        valid = [("a", "r", "ghost")]
        test = [("b", "r", "ghost2")]
        store = make_store(train, valid, test)
        cfg = TrainConfig(k=4, epochs=5, seed=9, eval_every=0,
                          constraint_mode="type_constrained")
        result = fit(store, cfg)
        init = init_embeddings(store.n_entities, store.n_relations, 4, 9)
        for name in ("ghost", "ghost2"):
            eid = store.entity_names.index(name)
            np.testing.assert_array_equal(result.table.entities[eid],
                                          init.entities[eid])

    def test_empty_validation_split_fails_before_training(self):
        store = make_store([("a", "r", "b"), ("b", "r", "c")], [], [("a", "r", "c")])
        cfg = TrainConfig(k=4, epochs=3, seed=9, eval_every=2)
        with mock.patch.object(train, "init_embeddings",
                               side_effect=AssertionError("training started")):
            with pytest.raises(ValueError, match="split 'valid' is empty"):
                fit(store, cfg)
        assert fit(store, replace(cfg, eval_every=0)).log[-1]["epoch"] == 3

    def test_early_stopping_stops_before_cap(self):
        store = self.small_store(seed=22)
        cfg = TrainConfig(k=4, epochs=400, seed=10, eval_every=2, patience=2)
        result = fit(store, cfg)
        assert result.log[-1]["epoch"] < 400

    def test_checkpoint_written_at_best_validation(self, tmp_path):
        from quatkge.model import load_checkpoint
        store = self.small_store(seed=23)
        path = tmp_path / "best.bin"
        cfg = TrainConfig(k=4, epochs=6, seed=11, eval_every=3, patience=10)
        result = fit(store, cfg, checkpoint_path=path)
        table, meta = load_checkpoint(path)
        np.testing.assert_array_equal(table.entities, result.table.entities)
        assert meta["config_hash"] == cfg.config_hash()

    def test_checkpoint_written_without_validation(self, tmp_path):
        from quatkge.model import load_checkpoint
        store = self.small_store(seed=24)
        path = tmp_path / "final.bin"
        cfg = TrainConfig(k=4, epochs=3, seed=12, eval_every=0)
        result = fit(store, cfg, checkpoint_path=path)
        table, _ = load_checkpoint(path)
        np.testing.assert_array_equal(table.entities, result.table.entities)


class TestNonFiniteTraining:
    """A row that is not finite, or a relation coordinate of zero magnitude,
    stops `fit` at the first step whose batch touches it, instead of reading
    as an inactive hinge."""

    FAULTS = {
        # entity 3's row is NaN; a triple touches it as head or tail
        "nan_entity": (lambda table: table.entities[3].fill(np.nan),
                       lambda triples: bool(np.any(triples[:, [0, 2]] == 3))),
        # relation 1's coordinate 2 has zero magnitude
        "zero_relation": (lambda table: table.relations[1, :, 2].fill(0.0),
                          lambda triples: bool(np.any(triples[:, 1] == 1))),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("penalties", [(0.0, 0.0), (0.01, 0.02)],
                             ids=["no_penalty", "l1_l2"])
    @pytest.mark.parametrize("loss_form", LOSS_FORMS)
    def test_fit_raises_at_first_touching_step(self, monkeypatch, fault, penalties,
                                               loss_form):
        store = random_store(np.random.default_rng(31), n_entities=15, n_train=60)
        cfg = TrainConfig(k=4, epochs=3, seed=2, eval_every=0, l1=penalties[0],
                          l2=penalties[1], loss_form=loss_form, neg_rate=2)
        spoil, touches = self.FAULTS[fault]
        table = init_embeddings(store.n_entities, store.n_relations, cfg.k, cfg.seed)
        spoil(table)
        touched = []
        step = train._loss_and_grads

        def recording_step(table, pos, neg, config, buffers):
            touched.append(touches(np.concatenate([pos, neg.reshape(-1, 3)])))
            return step(table, pos, neg, config, buffers)

        monkeypatch.setattr(train, "init_embeddings", lambda *args: table)
        monkeypatch.setattr(train, "_loss_and_grads", recording_step)
        with pytest.raises(ZeroQuaternionError):
            fit(store, cfg)
        assert touched[-1] and not any(touched[:-1])


class TestFitMemory:
    """`fit` holds the table, the accumulator rows it trains, and no best copy
    when it writes a checkpoint."""

    def test_validated_fit_to_checkpoint_holds_two_tables(self, tmp_path):
        # At N = 20,000 and k = 50 the table is 32 MB. tracemalloc counts the
        # accumulator whole, resident or not; one validation pass's own
        # scratch is measured on the initial table.
        store = wide_store(20_000)
        cfg = TrainConfig(k=50, epochs=2, seed=3, eval_every=1, patience=10)
        table_bytes = (store.n_entities + store.n_relations) * 4 * cfg.k * 8
        table = init_embeddings(store.n_entities, store.n_relations, cfg.k, cfg.seed)
        ranking = traced_peak(lambda: evaluation.link_prediction(
            table, store, mode="filtered", split="valid"))
        del table
        peak = traced_peak(lambda: fit(store, cfg, checkpoint_path=tmp_path / "best.bin"))
        assert peak <= 2 * table_bytes + ranking + 4 * model._CHUNK_BYTES

    # Run in a fresh process, so that its peak resident set is this fit's.
    CHILD = """
from conftest import wide_store
from quatkge.train import TrainConfig, fit

def status(field):
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024

store = wide_store({n})
before = status("VmRSS")
fit(store, TrainConfig(k={k}, epochs=1, seed=0, eval_every=0,
                       constraint_mode="type_constrained"))
print(status("VmHWM") - before)
"""

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmRSS and VmHWM from /proc/self/status")
    def test_resident_rise_is_table_and_trained_rows(self):
        # 21,000 entities at k = 100: a 67 MB table. The train split names
        # only the first 41 entities, and type-constrained negatives come
        # from the train split, so the accumulator's resident pages are those
        # of its first rows and of the relation rows at its end.
        n, k = 21_000, 100
        store = wide_store(n)
        table_bytes = (store.n_entities + store.n_relations) * 4 * k * 8
        src = Path(quatkge.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), str(Path(__file__).resolve().parent)])}
        done = subprocess.run([sys.executable, "-c", self.CHILD.format(n=n, k=k)],
                              env=env, capture_output=True, text=True, timeout=300,
                              check=True)
        rise = int(done.stdout.split()[-1])
        assert rise < 1.5 * table_bytes
