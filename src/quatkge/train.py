"""Margin ranking loss, analytic gradients, negative sampling, and Adagrad.

The default loss is the pairwise hinge

    sum over (pos, neg) pairs of max(0, margin + phi(pos) - phi(neg))

plus squared-norm penalties on the embedding rows touched by the batch
(scaled per appearance): ``l1`` weights the entity rows and ``l2`` the
relation rows. The literal pointwise form max(0, margin + y*phi) is kept
behind ``loss_form="pointwise"`` for ablation; its positive-triple hinge never
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

A triple whose hinge is inactive has g = 0, so without penalties the backward
pass, the per-row sums and the Adagrad update run only on the triples with a
nonzero d(loss)/d(phi); the rows they touch are the only ones a step lists.
As margins are met, that share (``active_fraction`` in each `fit` log record)
falls, and so does the cost of a step.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import evaluation, quat
from .data import HEAD, TAIL, TripleStore
from .errors import ZeroQuaternionError
from .model import EmbeddingTable, init_embeddings, load_checkpoint, save_checkpoint

logger = logging.getLogger(__name__)

EPS_ADAGRAD = 1e-10
MAX_ATTEMPTS = 100

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

    def config_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class GradientBuffer:
    """Aggregated gradients for the rows of ``EmbeddingTable.params`` whose
    gradient can be nonzero: entity e is row e and relation r is row N + r.
    A row that is not listed has zero gradient."""

    ids: np.ndarray    # (U,) ascending unique rows
    grads: np.ndarray  # (U, 4, k)
    n_entities: int

    # The benchmark tracer counts Adagrad rows through these two.
    @property
    def entity_ids(self) -> np.ndarray:
        return self.ids[:self.ids.searchsorted(self.n_entities)]

    @property
    def relation_ids(self) -> np.ndarray:
        return self.ids[self.ids.searchsorted(self.n_entities):] - self.n_entities


def sample_negatives(store: TripleStore, positives, neg_rate: int,
                     constraint_mode: str, rng: np.random.Generator) -> np.ndarray:
    """Corrupt head or tail (fair coin) with filtered rejection sampling.

    Takes one triple or a (B, 3) batch and returns (B*neg_rate, 3) int64 rows,
    row i*neg_rate + j corrupting positive i. Candidates come from the full
    entity set, or from the relation's observed head/tail entities when
    type-constrained. Each round redraws all rows whose corruption is true in
    some split; after `MAX_ATTEMPTS` draws a row keeps its last one, logged.
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    out = np.repeat(positives, neg_rate, axis=0)
    column = np.where(rng.integers(2, size=out.shape[0]) == 0, 0, 2)
    pending = np.arange(out.shape[0])
    for _ in range(MAX_ATTEMPTS):
        if pending.size == 0:
            break
        if constraint_mode == "type_constrained":
            for position, side in ((HEAD, 0), (TAIL, 2)):
                rows = pending[column[pending] == side]
                out[rows, side] = store.sample_type_candidates(out[rows, 1], position, rng)
        else:
            out[pending, column[pending]] = rng.integers(store.n_entities,
                                                         size=pending.size)
        pending = pending[store.is_true(*out[pending].T)]
    for row in pending:
        logger.warning("negative sampling hit the attempt bound for positive %s; "
                       "accepting a true triple as negative",
                       tuple(positives[row // neg_rate].tolist()))
    return out


def _as_batch(positives, negatives) -> tuple[np.ndarray, np.ndarray]:
    pos = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    neg = np.asarray(negatives, dtype=np.int64)
    if neg.ndim == 2:
        neg = neg.reshape(pos.shape[0], -1, 3)
    if neg.ndim != 3 or neg.shape[0] != pos.shape[0] or neg.shape[2] != 3:
        raise ValueError(f"negatives must have shape (B, R, 3); got {neg.shape}")
    return pos, neg


class StepBuffers:
    """The arrays of a training step, kept from one step to the next.

    Each named array is the leading, contiguous part of its own flat storage,
    which grows to the largest request, so a shorter last batch reuses the
    start of it. "scratch" holds one short-lived value at a time. `fit` keeps
    one set for the whole run; `batch_loss` and `grad_batch` use a fresh set
    per call, so nothing they return aliases another call's arrays.
    """

    def __init__(self):
        self._storage: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self._storage.get(name)
        if flat is None or flat.size < size:
            flat = self._storage[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)

    def planes(self, name: str, rows: int, k: int, dtype=np.float64) -> np.ndarray:
        """(rows, 4, k) view of component-major (4, rows, k) memory, so that
        each component is one contiguous plane for `quat.hamilton`."""
        return self.array(name, (4, rows, k), dtype).transpose(1, 0, 2)


def _phi_terms(table: EmbeddingTable, triples: np.ndarray, buffers: StepBuffers):
    """Distance phi plus the intermediates the backward pass reuses.

    triples: (B, 3). Returns dict with per-triple arrays keyed by name; heads,
    unit and diff live in `buffers` until their next step.
    """
    n, k = triples.shape[0], table.k
    # Fancy indexing gathers faster than np.take into a kept array, which
    # bounds-checks through a temporary of its own.
    heads = buffers.planes("heads", n, k)
    heads[...] = table.entities[triples[:, 0]]
    tails = table.entities[triples[:, 2]]
    rels = table.relations[triples[:, 1]]
    mags = quat.magnitude(rels)
    unit = np.divide(rels, mags[:, None, :], out=buffers.planes("unit", n, k))
    rotated = quat.hamilton(heads, unit, out=buffers.planes("scratch", n, k))
    # diff stays (B, 4, k)-contiguous: the einsum's summation order follows
    # the memory layout, and phi must round as it always has.
    diff = np.subtract(rotated, tails, out=buffers.array("diff", (n, 4, k)))
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


def _regularizer(terms: dict, n_pos: int, l1: float, l2: float) -> float:
    """Touched-row penalties over the forward pass's rows: per split, entities
    interleaved head, tail per triple, which fixes how the sums round (each
    sum runs over a C-ordered array)."""
    total = 0.0
    for split in (slice(None, n_pos), slice(n_pos, None)):
        if l1 > 0.0:
            ent = np.stack([terms["heads"][split], terms["tails"][split]], axis=1)
            total += l1 * float(np.sum(np.multiply(ent, ent, order="C")))
        if l2 > 0.0:
            rel = terms["rels"][split]
            total += l2 * float(np.sum(np.multiply(rel, rel, order="C")))
    return total


def _forward(table: EmbeddingTable, pos: np.ndarray, neg: np.ndarray,
             config: TrainConfig, buffers: StepBuffers):
    """One pass over pos stacked on the flat negatives: the loss, the stacked
    (B + B*R, 3) triples, their `_phi_terms` and each one's d(loss)/d(phi)."""
    n_pos = pos.shape[0]
    neg_flat = neg.reshape(-1, 3)
    triples = np.concatenate([pos, neg_flat], out=buffers.array(
        "triples", (n_pos + neg_flat.shape[0], 3), np.int64))
    # A non-finite row or a zero-magnitude relation coordinate makes phi
    # non-finite, and a NaN margin would read as an inactive hinge; so phi
    # is computed without floating-point warnings and checked here instead.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        terms = _phi_terms(table, triples, buffers)
    phi = terms["phi"]
    if not np.isfinite(phi).all():
        raise ZeroQuaternionError("non-finite distance in a training batch: a row it "
                                  "touches is not finite or has a zero-magnitude "
                                  "relation coordinate")
    hinge, w_pos, w_neg = _hinge_weights(phi[:n_pos], phi[n_pos:].reshape(neg.shape[:2]),
                                         config.margin, config.loss_form)
    loss = hinge + _regularizer(terms, n_pos, config.l1, config.l2)
    return loss, triples, terms, np.concatenate([w_pos, w_neg.ravel()])


def batch_loss(table: EmbeddingTable, positives, negatives,
               config: TrainConfig) -> float:
    """Hinge loss over (positive, negative) pairs plus touched-row penalties."""
    pos, neg = _as_batch(positives, negatives)
    return _forward(table, pos, neg, config, StepBuffers())[0]


def _backward(terms: dict, upstream: np.ndarray,
              buffers: StepBuffers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-triple gradients for head, tail, and the UNnormalized relation.

    upstream: (B,) multiplier of d(phi) for each triple. Triples with phi = 0
    contribute nothing. The gradients live in `buffers` until their next step.
    """
    n, _, k = terms["diff"].shape
    phi = terms["phi"]
    coeff = np.divide(upstream, phi, out=np.zeros_like(phi), where=phi > 0.0)
    g_rot = np.multiply(coeff[:, None, None], terms["diff"], out=buffers.planes("g_rot", n, k))
    grad_tail = np.negative(g_rot, out=buffers.planes("grad_tail", n, k))
    scratch = buffers.planes("scratch", n, k)
    grad_head = quat.hamilton(g_rot, quat.conjugate(terms["unit"], out=scratch),
                              out=buffers.planes("grad_head", n, k))
    grad_unit = quat.hamilton(quat.conjugate(terms["heads"], out=scratch), g_rot,
                              out=buffers.planes("grad_rel", n, k))
    radial = quat.dot(grad_unit, terms["unit"])
    grad_rel = grad_unit    # projected in place
    grad_rel -= np.multiply(radial[:, None, :], terms["unit"], out=scratch)
    grad_rel /= terms["mags"][:, None, :]
    return grad_head, grad_tail, grad_rel


def _aggregate(ids: np.ndarray, grads: np.ndarray,
               bins: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-id sums of grads rows; bincount adds in row order, as np.add.at does.

    `bins` (int64, laid out in memory like grads) holds each value's bin; both
    are read in memory order, which visits every bin's rows in row order.
    """
    unique, inverse = np.unique(ids, return_inverse=True)
    cells = grads.shape[1:]
    width = math.prod(cells)
    if bins is None:
        bins = np.empty_like(grads, dtype=np.int64)
    np.add((inverse * width).reshape((-1,) + (1,) * len(cells)),
           np.arange(width).reshape(cells), out=bins)
    acc = np.bincount(bins.ravel(order="K"), weights=grads.ravel(order="K"))
    return unique, acc.reshape((unique.shape[0],) + cells)


def _compact(terms: dict, keep: np.ndarray, buffers: StepBuffers) -> dict:
    """The backward pass's inputs for the triples `keep` (ascending) alone.

    heads, unit and diff are gathered through the scratch buffer into the
    front of their own step buffers, in the forward's layouts, so compacting
    allocates no copy of them.
    """
    m, k = keep.size, terms["diff"].shape[2]
    kept = {"phi": terms["phi"][keep], "mags": terms["mags"][keep]}
    for name in ("heads", "unit"):
        # mode="wrap" skips np.take's bounds check, which writes through a
        # temporary; the planes' (4, n, k) memory is C-contiguous.
        gathered = np.take(terms[name].transpose(1, 0, 2), keep, axis=1, mode="wrap",
                           out=buffers.array("scratch", (4, m, k)))
        front = buffers.array(name, (4, m, k))
        front[...] = gathered
        kept[name] = front.transpose(1, 0, 2)
    gathered = np.take(terms["diff"], keep, axis=0, mode="wrap",
                       out=buffers.array("scratch", (m, 4, k)))
    kept["diff"] = buffers.array("diff", (m, 4, k))
    kept["diff"][...] = gathered
    return kept


def _loss_and_grads(table: EmbeddingTable, pos: np.ndarray, neg: np.ndarray,
                    config: TrainConfig,
                    buffers: StepBuffers) -> tuple[float, GradientBuffer, int]:
    """The loss, the gradient of every row it can move, and the number of
    triples with a nonzero d(loss)/d(phi)."""
    loss, triples, terms, upstream = _forward(table, pos, neg, config, buffers)
    n_pos, n_ent, k = pos.shape[0], table.n_entities, table.k
    keep = np.flatnonzero(upstream)
    # Without penalties, a triple with zero upstream has only +-0 gradient
    # entries. Per-row sums start at +0, which adding +-0 never changes, and
    # Adagrad leaves a row with a +0 gradient as it was; so dropping those
    # triples changes no bit of the update.
    if config.l1 == 0.0 and config.l2 == 0.0 and keep.size < triples.shape[0]:
        n_pos = int(keep.searchsorted(n_pos))
        triples, upstream = triples[keep], upstream[keep]
        terms = _compact(terms, keep, buffers)
    grad_head, grad_tail, grad_rel = _backward(terms, upstream, buffers)
    n = triples.shape[0]
    penalty = buffers.planes("scratch", n, k)
    if config.l1 > 0.0:
        grad_head += np.multiply(2.0 * config.l1, terms["heads"], out=penalty)
        grad_tail += np.multiply(2.0 * config.l1, terms["tails"], out=penalty)
    if config.l2 > 0.0:
        grad_rel += np.multiply(2.0 * config.l2, terms["rels"], out=penalty)

    # Positive heads, positive tails, negative heads, negative tails, then
    # the relations at their table rows: the per-row sums add (and round) in
    # this order.
    ids = np.concatenate([triples[:n_pos, 0], triples[:n_pos, 2],
                          triples[n_pos:, 0], triples[n_pos:, 2], triples[:, 1] + n_ent],
                         out=buffers.array("ids", (3 * n,), np.int64))
    grads = np.concatenate([grad_head[:n_pos], grad_tail[:n_pos],
                            grad_head[n_pos:], grad_tail[n_pos:], grad_rel],
                           out=buffers.planes("grads", 3 * n, k))
    rows, sums = _aggregate(ids, grads, buffers.planes("bins", 3 * n, k, np.int64))
    return loss, GradientBuffer(rows, sums, n_ent), keep.size


def grad_batch(table: EmbeddingTable, positives, negatives,
               config: TrainConfig) -> GradientBuffer:
    """Exact gradient of `batch_loss`. It lists the rows of the triples with
    a nonzero hinge gradient (with a penalty, of every triple); a row it does
    not list has zero gradient."""
    pos, neg = _as_batch(positives, negatives)
    return _loss_and_grads(table, pos, neg, config, StepBuffers())[1]


def adagrad_step(table: EmbeddingTable, acc: np.ndarray, grads: GradientBuffer,
                 lr: float, buffers: StepBuffers | None = None) -> None:
    """In-place sparse Adagrad update: G += g^2; theta -= lr*g/(sqrt(G)+eps).

    `acc` holds G, shaped like ``table.params``. The gathered rows and the
    step live in `buffers` (a fresh set when None).
    """
    buffers = StepBuffers() if buffers is None else buffers
    ids, g, theta = grads.ids, grads.grads, table.params
    # ids are unique and ascending, so one gather and one scatter suffice. The
    # gathers wrap instead of checking bounds, and so would the scatters for a
    # negative id, so that is refused here; the scatter into acc checks every
    # id against the end before it writes anything.
    if ids.size and ids[0] < 0:
        raise IndexError(f"row id {int(ids[0])} is negative")
    rows = np.take(acc, ids, axis=0, out=buffers.array("adagrad_rows", g.shape),
                   mode="wrap")
    step = np.multiply(g, g, out=buffers.array("adagrad_step", g.shape))
    rows += step
    acc[ids] = rows
    np.sqrt(rows, out=rows)
    rows += EPS_ADAGRAD
    np.multiply(lr, g, out=step)
    step /= rows
    np.take(theta, ids, axis=0, out=rows, mode="wrap")
    rows -= step
    theta[ids] = rows


@dataclass
class FitResult:
    """Best-validation table and its validation report (None when validation
    never ran), plus the per-epoch training log: each record holds the epoch,
    its mean loss per positive, ``active_fraction`` (the share of the epoch's
    scored triples with a nonzero hinge gradient), ``val_mrr`` when it
    validated, and ``wall_time`` since training began."""

    table: EmbeddingTable
    log: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_report: evaluation.RankingReport | None = None


def fit(store: TripleStore, config: TrainConfig,
        checkpoint_path=None) -> FitResult:
    """Train with shuffled mini-batches, Adagrad, and early stopping.

    Validation filtered MRR is computed every `eval_every` epochs; the best
    table is kept and training stops after `patience` evaluations without
    improvement. With `checkpoint_path`, the table is written there at every
    new validation best (and at the end when validation never ran), and the
    best table is read back from that checkpoint at the end, which holds it
    byte for byte; without one, a copy of the best table is kept. The
    Adagrad accumulator is allocated untouched, so only the memory of the
    rows that training updates becomes resident. A step whose distances are
    not finite raises ZeroQuaternionError. Deterministic given the config
    seed. Training steps run on the calling thread; validation may rank on
    several threads, with the same report for any thread count.
    """
    def snapshot(current: EmbeddingTable) -> None:
        if checkpoint_path is not None:
            save_checkpoint(current, checkpoint_path, config_hash=config.config_hash())

    if store.train.shape[0] == 0:
        raise ValueError("split 'train' is empty")
    if config.eval_every > 0 and store.valid.shape[0] == 0:
        raise ValueError("split 'valid' is empty")
    table = init_embeddings(store.n_entities, store.n_relations, config.k, config.seed)
    result = FitResult(table=table)
    if config.epochs == 0:
        snapshot(table)
        return result

    acc = np.zeros(table.params.shape)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    train = store.train
    n_train = train.shape[0]
    constrained = config.constraint_mode == "type_constrained"

    best_table = None   # kept only without a checkpoint_path
    best_mrr = -np.inf
    evals_since_best = 0
    buffers = StepBuffers()
    start = time.perf_counter()

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        epoch_active = 0
        for lo in range(0, n_train, config.batch_size):
            batch = train[order[lo:lo + config.batch_size]]
            negatives = sample_negatives(store, batch, config.neg_rate,
                                         config.constraint_mode, rng)
            loss, grads, active = _loss_and_grads(table, *_as_batch(batch, negatives),
                                                  config, buffers)
            adagrad_step(table, acc, grads, config.lr, buffers)
            epoch_loss += loss
            epoch_active += active

        record = {"epoch": epoch, "loss": epoch_loss / n_train,
                  "active_fraction": epoch_active / (n_train * (1 + config.neg_rate)),
                  "wall_time": time.perf_counter() - start}
        if config.eval_every > 0 and epoch % config.eval_every == 0:
            report = evaluation.link_prediction(
                table, store, mode="filtered", constraint=constrained, split="valid")
            record["val_mrr"] = report.mrr
            if report.mrr > best_mrr:
                best_mrr = report.mrr
                result.best_report = report
                result.best_epoch = epoch
                evals_since_best = 0
                if checkpoint_path is not None:
                    snapshot(table)
                elif best_table is None:
                    best_table = table.copy()
                else:  # one best buffer for the whole run
                    np.copyto(best_table.params, table.params)
            else:
                evals_since_best += 1
            result.log.append(record)
            if evals_since_best >= config.patience:
                logger.info("early stop at epoch %d (best validation MRR %.4f at epoch %d)",
                            epoch, best_mrr, result.best_epoch)
                break
        else:
            result.log.append(record)

    if result.best_report is None:
        result.best_epoch = config.epochs
        snapshot(table)
    elif checkpoint_path is not None:
        del acc     # so that the read adds no third table
        result.table, _ = load_checkpoint(checkpoint_path)
    else:
        result.table = best_table
    return result
