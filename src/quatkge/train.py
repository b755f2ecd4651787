"""Margin ranking loss, analytic gradients, negative sampling, and Adagrad.

The default loss is the pairwise hinge

    sum over (pos, neg) pairs of max(0, margin + phi(pos) - phi(neg))

plus l2 penalties on the embedding rows touched by the batch (scaled per
appearance). The literal pointwise form max(0, margin + y*phi) is kept behind
``loss_form="pointwise"`` for ablation; its positive-triple hinge never
deactivates, which is why it is not the default.

Gradient route, per triple and per coordinate quaternion (x = head, w = stored
relation, m = |w|, w_hat = w/m, rot = x (x) w_hat, g = upstream gradient of the
loss with respect to rot):

    d(phi)/d(rot) = (rot - tail)/phi          (0 at phi = 0, subgradient choice)
    grad_tail     = -g
    grad_head     = g (x) conj(w_hat)          (right-multiplication adjoint)
    grad_w_hat    = conj(x) (x) g              (left-multiplication adjoint)
    grad_w        = (grad_w_hat - <grad_w_hat, w_hat> w_hat) / m

The last line is the quotient-rule projection; dropping it would pin
relation magnitudes and fail the finite-difference check.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import evaluation, quat
from .data import HEAD, TAIL, TripleStore
from .model import EmbeddingTable, init_embeddings, save_checkpoint

logger = logging.getLogger(__name__)

EPS_ADAGRAD = 1e-10

CONSTRAINT_MODES = ("none", "type_constrained")
LOSS_FORMS = ("pairwise", "pointwise")


@dataclass(frozen=True)
class TrainConfig:
    """All training hyperparameters; validated on construction."""

    k: int = 100
    margin: float = 1.0
    lr: float = 0.02
    l1: float = 0.0
    l2: float = 0.0
    neg_rate: int = 1
    batch_size: int = 10
    epochs: int = 100
    seed: int = 0
    constraint_mode: str = "none"
    eval_every: int = 10
    patience: int = 10
    loss_form: str = "pairwise"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.margin <= 0:
            raise ValueError("margin must be > 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("l1 and l2 must be >= 0")
        if self.neg_rate < 1:
            raise ValueError("neg_rate must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0 (0 disables validation)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ValueError(f"constraint_mode must be one of {CONSTRAINT_MODES}")
        if self.loss_form not in LOSS_FORMS:
            raise ValueError(f"loss_form must be one of {LOSS_FORMS}")

    def as_dict(self) -> dict:
        return {
            "k": self.k, "margin": self.margin, "lr": self.lr,
            "l1": self.l1, "l2": self.l2, "neg_rate": self.neg_rate,
            "batch_size": self.batch_size, "epochs": self.epochs,
            "seed": self.seed, "constraint_mode": self.constraint_mode,
            "eval_every": self.eval_every, "patience": self.patience,
            "loss_form": self.loss_form,
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_overrides(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)


@dataclass
class GradientBuffer:
    """Aggregated gradients for the embedding rows a batch touched."""

    entity_ids: np.ndarray      # (U,) unique ids
    entity_grads: np.ndarray    # (U, 4, k)
    relation_ids: np.ndarray
    relation_grads: np.ndarray

    def is_zero(self, atol: float = 0.0) -> bool:
        return (np.all(np.abs(self.entity_grads) <= atol)
                and np.all(np.abs(self.relation_grads) <= atol))


@dataclass
class AdagradState:
    """Per-component squared-gradient accumulators."""

    entity_acc: np.ndarray
    relation_acc: np.ndarray

    @classmethod
    def zeros(cls, table: EmbeddingTable) -> "AdagradState":
        return cls(np.zeros_like(table.entities), np.zeros_like(table.relations))


def sample_negatives(store: TripleStore, positive, neg_rate: int,
                     constraint_mode: str, rng: np.random.Generator,
                     max_attempts: int = 100) -> list[tuple[int, int, int]]:
    """Corrupt head or tail (fair coin) with filtered rejection sampling.

    Candidates come from the full entity set, or from the relation's observed
    head/tail entities when type-constrained. A corruption found in any split
    is redrawn, up to `max_attempts`; the final draw is then accepted and the
    event logged.
    """
    h, r, t = int(positive[0]), int(positive[1]), int(positive[2])
    constrained = constraint_mode == "type_constrained"
    out = []
    for _ in range(neg_rate):
        corrupt_head = rng.integers(2) == 0
        if constrained:
            candidates = store.type_candidates(r, HEAD if corrupt_head else TAIL)
        else:
            candidates = None
        candidate = (h, r, t)
        for attempt in range(max_attempts):
            if candidates is None:
                e = int(rng.integers(store.n_entities))
            else:
                e = int(candidates[rng.integers(candidates.size)])
            candidate = (e, r, t) if corrupt_head else (h, r, e)
            if not store.is_true(*candidate):
                break
        else:
            logger.warning("negative sampling hit the attempt bound for positive %s; "
                           "accepting a true triple as negative", (h, r, t))
        out.append(candidate)
    return out


def _as_batch(positives, negatives) -> tuple[np.ndarray, np.ndarray]:
    pos = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    neg = np.asarray(negatives, dtype=np.int64)
    if neg.ndim == 2:
        neg = neg.reshape(pos.shape[0], -1, 3)
    if neg.ndim != 3 or neg.shape[0] != pos.shape[0] or neg.shape[2] != 3:
        raise ValueError(f"negatives must have shape (B, R, 3); got {neg.shape}")
    return pos, neg


def _phi_terms(table: EmbeddingTable, triples: np.ndarray):
    """Distance phi plus the intermediates the backward pass reuses.

    triples: (B, 3). Returns dict with per-triple arrays keyed by name.
    """
    heads = table.entities[triples[:, 0]]
    tails = table.entities[triples[:, 2]]
    rels = table.relations[triples[:, 1]]
    mags = quat.magnitude(rels)
    unit = rels / mags[:, None, :]
    rotated = quat.hamilton(heads, unit)
    diff = rotated - tails
    phi = np.sqrt(np.einsum("bck,bck->b", diff, diff))
    return {"heads": heads, "tails": tails, "rels": rels, "mags": mags,
            "unit": unit, "diff": diff, "phi": phi}


def _hinge_weights(phi_pos: np.ndarray, phi_neg: np.ndarray, margin: float,
                   loss_form: str) -> tuple[float, np.ndarray, np.ndarray]:
    """Hinge value and d(loss)/d(phi) for positives and negatives."""
    if loss_form == "pairwise":
        margins = margin + phi_pos[:, None] - phi_neg
        active = margins > 0
        hinge = float(margins[active].sum())
        w_pos = active.sum(axis=1).astype(np.float64)
        w_neg = -active.astype(np.float64)
    else:
        pos_margins = margin + phi_pos
        neg_margins = margin - phi_neg
        hinge = (float(np.sum(np.maximum(pos_margins, 0.0)))
                 + float(np.sum(np.maximum(neg_margins, 0.0))))
        w_pos = (pos_margins > 0).astype(np.float64)
        w_neg = -(neg_margins > 0).astype(np.float64)
    return hinge, w_pos, w_neg


def _regularizer(table: EmbeddingTable, pos: np.ndarray, neg_flat: np.ndarray,
                 l1: float, l2: float) -> float:
    if l1 == 0.0 and l2 == 0.0:
        return 0.0
    total = 0.0
    for triples in (pos, neg_flat):
        if l1 > 0.0:
            ent = table.entities[triples[:, [0, 2]].ravel()]
            total += l1 * float(np.sum(ent * ent))
        if l2 > 0.0:
            rel = table.relations[triples[:, 1]]
            total += l2 * float(np.sum(rel * rel))
    return total


def batch_loss(table: EmbeddingTable, positives, negatives, margin: float,
               l1: float = 0.0, l2: float = 0.0,
               loss_form: str = "pairwise") -> float:
    """Hinge loss over (positive, negative) pairs plus touched-row penalties."""
    pos, neg = _as_batch(positives, negatives)
    neg_flat = neg.reshape(-1, 3)
    phi_pos = _phi_terms(table, pos)["phi"]
    phi_neg = _phi_terms(table, neg_flat)["phi"].reshape(neg.shape[:2])
    hinge, _, _ = _hinge_weights(phi_pos, phi_neg, margin, loss_form)
    return hinge + _regularizer(table, pos, neg_flat, l1, l2)


def _backward(terms: dict, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-triple gradients for head, tail, and the UNnormalized relation.

    upstream: (B,) multiplier of d(phi) for each triple. Triples with phi = 0
    contribute nothing.
    """
    phi = terms["phi"]
    coeff = np.divide(upstream, phi, out=np.zeros_like(phi), where=phi > 0.0)
    g_rot = coeff[:, None, None] * terms["diff"]
    grad_tail = -g_rot
    grad_head = quat.hamilton(g_rot, quat.conjugate(terms["unit"]))
    grad_unit = quat.hamilton(quat.conjugate(terms["heads"]), g_rot)
    radial = quat.dot(grad_unit, terms["unit"])
    grad_rel = (grad_unit - radial[:, None, :] * terms["unit"]) / terms["mags"][:, None, :]
    return grad_head, grad_tail, grad_rel


def _aggregate(ids: np.ndarray, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    unique, inverse = np.unique(ids, return_inverse=True)
    acc = np.zeros((unique.shape[0],) + grads.shape[1:], dtype=np.float64)
    np.add.at(acc, inverse, grads)
    return unique, acc


def _loss_and_grads(table: EmbeddingTable, pos: np.ndarray, neg: np.ndarray,
                    config: TrainConfig) -> tuple[float, GradientBuffer]:
    neg_flat = neg.reshape(-1, 3)
    terms_pos = _phi_terms(table, pos)
    terms_neg = _phi_terms(table, neg_flat)
    phi_neg = terms_neg["phi"].reshape(neg.shape[:2])
    hinge, w_pos, w_neg = _hinge_weights(terms_pos["phi"], phi_neg,
                                         config.margin, config.loss_form)

    gh_pos, gt_pos, gr_pos = _backward(terms_pos, w_pos)
    gh_neg, gt_neg, gr_neg = _backward(terms_neg, w_neg.ravel())

    if config.l1 > 0.0:
        for terms, grads_h, grads_t in ((terms_pos, gh_pos, gt_pos),
                                        (terms_neg, gh_neg, gt_neg)):
            grads_h += 2.0 * config.l1 * terms["heads"]
            grads_t += 2.0 * config.l1 * terms["tails"]
    if config.l2 > 0.0:
        gr_pos += 2.0 * config.l2 * terms_pos["rels"]
        gr_neg += 2.0 * config.l2 * terms_neg["rels"]

    entity_ids = np.concatenate([pos[:, 0], pos[:, 2], neg_flat[:, 0], neg_flat[:, 2]])
    entity_grads = np.concatenate([gh_pos, gt_pos, gh_neg, gt_neg])
    relation_ids = np.concatenate([pos[:, 1], neg_flat[:, 1]])
    relation_grads = np.concatenate([gr_pos, gr_neg])

    ent_ids, ent_acc = _aggregate(entity_ids, entity_grads)
    rel_ids, rel_acc = _aggregate(relation_ids, relation_grads)
    loss = hinge + _regularizer(table, pos, neg_flat, config.l1, config.l2)
    return loss, GradientBuffer(ent_ids, ent_acc, rel_ids, rel_acc)


def grad_batch(table: EmbeddingTable, positives, negatives,
               config: TrainConfig) -> GradientBuffer:
    """Exact gradient of `batch_loss` for every touched embedding row."""
    pos, neg = _as_batch(positives, negatives)
    return _loss_and_grads(table, pos, neg, config)[1]


def adagrad_step(table: EmbeddingTable, state: AdagradState,
                 grads: GradientBuffer, lr: float,
                 eps: float = EPS_ADAGRAD) -> None:
    """In-place sparse Adagrad update: G += g^2; theta -= lr*g/(sqrt(G)+eps)."""
    for ids, g, theta, acc in ((grads.entity_ids, grads.entity_grads,
                                table.entities, state.entity_acc),
                               (grads.relation_ids, grads.relation_grads,
                                table.relations, state.relation_acc)):
        if ids.size == 0:
            continue
        acc[ids] += g * g
        theta[ids] -= lr * g / (np.sqrt(acc[ids]) + eps)


@dataclass
class FitResult:
    """Best-validation table plus the per-epoch training log."""

    table: EmbeddingTable
    log: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_mrr: float | None = None
    config: TrainConfig | None = None


def fit(store: TripleStore, config: TrainConfig,
        checkpoint_path=None) -> FitResult:
    """Train with shuffled mini-batches, Adagrad, and early stopping.

    Validation filtered MRR is computed every `eval_every` epochs; the best
    checkpoint is kept and training stops after `patience` evaluations without
    improvement. With `checkpoint_path`, the table is also written there at
    every new validation best (and at the end when validation never ran).
    Single-threaded and deterministic given the config seed.
    """
    def snapshot(current: EmbeddingTable) -> None:
        if checkpoint_path is not None:
            save_checkpoint(current, checkpoint_path, scorer="quate_d",
                            config_hash=config.config_hash())

    table = init_embeddings(store.n_entities, store.n_relations, config.k, config.seed)
    result = FitResult(table=table, config=config)
    if config.epochs == 0:
        snapshot(table)
        return result

    state = AdagradState.zeros(table)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    train = store.train
    n_train = train.shape[0]
    constrained = config.constraint_mode == "type_constrained"

    best_table = None
    best_mrr = -np.inf
    evals_since_best = 0
    start = time.perf_counter()

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for lo in range(0, n_train, config.batch_size):
            batch = train[order[lo:lo + config.batch_size]]
            negatives = np.array(
                [sample_negatives(store, row, config.neg_rate,
                                  config.constraint_mode, rng)
                 for row in batch], dtype=np.int64)
            loss, grads = _loss_and_grads(table, batch, negatives, config)
            adagrad_step(table, state, grads, config.lr)
            epoch_loss += loss

        record = {"epoch": epoch, "loss": epoch_loss / n_train,
                  "wall_time": time.perf_counter() - start}
        if config.eval_every > 0 and epoch % config.eval_every == 0:
            report = evaluation.link_prediction(
                table, store, mode="filtered", constraint=constrained, split="valid")
            record["val_mrr"] = report.mrr
            if report.mrr > best_mrr:
                best_mrr = report.mrr
                best_table = table.copy()
                result.best_epoch = epoch
                evals_since_best = 0
                snapshot(best_table)
            else:
                evals_since_best += 1
            result.log.append(record)
            if evals_since_best >= config.patience:
                logger.info("early stop at epoch %d (best validation MRR %.4f at epoch %d)",
                            epoch, best_mrr, result.best_epoch)
                break
        else:
            result.log.append(record)

    if best_table is not None:
        result.table = best_table
        result.best_val_mrr = float(best_mrr)
    else:
        result.table = table
        result.best_epoch = config.epochs
        snapshot(table)
    return result
