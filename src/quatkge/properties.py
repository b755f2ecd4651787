"""Randomized verification of the relational-pattern properties.

Each check draws random embeddings, measures how far the claimed identity (or
inequality) is from holding, and returns a verdict with the worst case
attached. Every equality check carries a corruption switch so the test suite
can demonstrate that the check is falsifiable; the corrupted variant must
fail.

Checks are deterministic given the seed and vectorized across trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quat
from .data import TripleStore
from .model import EmbeddingTable, init_embeddings, score_triples

DEFAULT_TOLERANCE = 1e-9
SYMMETRY_TOLERANCE = 1e-12
ANTISYMMETRY_GAP = 1e-6
ANTISYMMETRY_FRACTION = 0.99
NONCOMMUTATIVITY_GAP = 1e-6
PROPERTY_NAMES = ("symmetry", "antisymmetry", "inversion", "composition",
                  "rotate_reduction", "associativity", "noncommutativity")


@dataclass
class PropertyVerdict:
    """Outcome of one randomized property check."""

    property: str
    trials: int
    max_violation: float
    passed: bool
    tolerance: float | None = None
    detail: dict = field(default_factory=dict)
    witness: dict | None = None


def _random_vectors(rng, trials: int, k: int) -> np.ndarray:
    return rng.standard_normal((trials, 4, k))


def _random_relations(rng, trials: int, k: int,
                      min_imag_frac: float | None = None,
                      real_only: bool = False) -> np.ndarray:
    """Random relations with per-coordinate magnitude in [0.5, 2].

    With `min_imag_frac`, the imaginary share of every unit coordinate is at
    least that fraction. With `real_only`, coordinates are real with random
    sign.
    """
    mag = rng.uniform(0.5, 2.0, size=(trials, k))
    if real_only:
        sign = rng.choice([-1.0, 1.0], size=(trials, k))
        parts = np.zeros((trials, 4, k))
        parts[:, 0, :] = sign * mag
        return parts
    if min_imag_frac is None:
        lo = 0.0
    else:
        lo = math.asin(min(min_imag_frac, 1.0))
    angle = rng.uniform(lo, math.pi - lo, size=(trials, k))
    direction = rng.standard_normal((trials, 3, k))
    direction /= np.sqrt(np.einsum("tck,tck->tk", direction, direction))[:, None, :]
    parts = np.empty((trials, 4, k))
    parts[:, 0, :] = np.cos(angle)
    parts[:, 1:, :] = np.sin(angle)[:, None, :] * direction
    return parts * mag[:, None, :]


def _distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    diff = x - y
    return np.sqrt(np.einsum("tck,tck->t", diff, diff))


def _witness(index: int, **arrays) -> dict:
    return {"trial": int(index),
            **{name: arr[index].tolist() for name, arr in arrays.items()}}


def _equality_verdict(name: str, gaps: np.ndarray, tolerance: float, detail: dict,
                      **witness_arrays) -> PropertyVerdict:
    """Verdict of an identity checked per trial: the largest gap decides, and
    its trial is the witness."""
    worst = int(np.argmax(gaps))
    return PropertyVerdict(
        property=name,
        trials=gaps.shape[0],
        max_violation=float(gaps[worst]),
        passed=bool(gaps[worst] <= tolerance),
        tolerance=tolerance,
        detail=detail,
        witness=_witness(worst, **witness_arrays),
    )


def check_inversion(trials: int, k: int, tolerance: float = DEFAULT_TOLERANCE,
                    rng=0, use_conjugate: bool = True) -> PropertyVerdict:
    """Rotating the tail by the conjugated relation mirrors the head rotation.

    `use_conjugate=False` is the corrupted control: rotating the tail by the
    relation itself breaks the identity whenever the relation has imaginary
    parts.
    """
    gen = np.random.default_rng(rng)
    heads = _random_vectors(gen, trials, k)
    tails = _random_vectors(gen, trials, k)
    unit = quat.normalize(_random_relations(gen, trials, k, min_imag_frac=0.1))
    forward = _distance(quat.hamilton(heads, unit), tails)
    back_rel = quat.conjugate(unit) if use_conjugate else unit
    backward = _distance(quat.hamilton(tails, back_rel), heads)
    gaps = np.abs(forward - backward)
    return _equality_verdict("inversion", gaps, tolerance,
                             {"use_conjugate": use_conjugate},
                             head=heads, tail=tails, relation_unit=unit)


def check_symmetry(trials: int, k: int, rng=0,
                   inject_imaginary: bool = False) -> PropertyVerdict:
    """Real-valued relations score (h, r, t) and (t, r, h) identically.

    Each normalized real coordinate is +1 or -1, so the rotation is an
    involution. `inject_imaginary=True` is the negative control.
    """
    gen = np.random.default_rng(rng)
    heads = _random_vectors(gen, trials, k)
    tails = _random_vectors(gen, trials, k)
    rels = _random_relations(gen, trials, k,
                             real_only=not inject_imaginary,
                             min_imag_frac=0.1 if inject_imaginary else None)
    unit = quat.normalize(rels)
    forward = _distance(quat.hamilton(heads, unit), tails)
    backward = _distance(quat.hamilton(tails, unit), heads)
    gaps = np.abs(forward - backward)
    return _equality_verdict("symmetry", gaps, SYMMETRY_TOLERANCE,
                             {"inject_imaginary": inject_imaginary},
                             head=heads, tail=tails, relation=rels)


def check_antisymmetry(trials: int, k: int, rng=0,
                       real_relations: bool = False) -> PropertyVerdict:
    """Relations with imaginary parts score the two directions differently.

    Passes when the score gap exceeds ANTISYMMETRY_GAP in at least
    ANTISYMMETRY_FRACTION of eligible trials (pairs with identical head and
    tail are excluded).
    `real_relations=True` is the control: a purely real relation is symmetric,
    so the check must report failure.
    """
    gen = np.random.default_rng(rng)
    heads = _random_vectors(gen, trials, k)
    tails = _random_vectors(gen, trials, k)
    rels = _random_relations(gen, trials, k,
                             min_imag_frac=None if real_relations else 0.1,
                             real_only=real_relations)
    unit = quat.normalize(rels)
    forward = _distance(quat.hamilton(heads, unit), tails)
    backward = _distance(quat.hamilton(tails, unit), heads)
    gaps = np.abs(forward - backward)
    eligible = ~np.all(heads == tails, axis=(1, 2))
    n_eligible = int(np.count_nonzero(eligible))
    separated = int(np.count_nonzero(gaps[eligible] > ANTISYMMETRY_GAP))
    fraction = separated / n_eligible if n_eligible else 0.0
    eligible_idx = np.flatnonzero(eligible)
    worst = int(eligible_idx[np.argmin(gaps[eligible])]) if n_eligible else 0
    return PropertyVerdict(
        property="antisymmetry",
        trials=trials,
        max_violation=float(np.max(gaps)) if trials else 0.0,
        passed=bool(fraction >= ANTISYMMETRY_FRACTION),
        tolerance=None,
        detail={"min_gap": ANTISYMMETRY_GAP, "min_fraction": ANTISYMMETRY_FRACTION,
                "fraction_separated": fraction, "eligible": n_eligible,
                "real_relations": real_relations},
        witness=_witness(worst, head=heads, tail=tails, relation=rels),
    )


def check_composition(trials: int, k: int, tolerance: float = DEFAULT_TOLERANCE,
                      rng=0, reverse_order: bool = False) -> PropertyVerdict:
    """Chained rotations equal the single rotation by the relation product.

    Both groupings of (h (x) w2) (x) w3 are compared, plus the direct
    substitution of the raw product w2 (x) w3 normalized as one relation.
    `reverse_order=True` composes w3 (x) w2 instead; non-commutativity makes
    that control fail.
    """
    gen = np.random.default_rng(rng)
    heads = _random_vectors(gen, trials, k)
    tails = _random_vectors(gen, trials, k)
    rel2 = _random_relations(gen, trials, k, min_imag_frac=0.1)
    rel3 = _random_relations(gen, trials, k, min_imag_frac=0.1)
    unit2, unit3 = quat.normalize(rel2), quat.normalize(rel3)
    chained = _distance(quat.hamilton(quat.hamilton(heads, unit2), unit3), tails)
    first, second = (unit3, unit2) if reverse_order else (unit2, unit3)
    grouped = _distance(quat.hamilton(heads, quat.hamilton(first, second)), tails)
    direct = _distance(
        quat.hamilton(heads, quat.normalize(quat.hamilton(rel2, rel3))), tails)
    gaps = np.maximum(np.abs(chained - grouped), np.abs(chained - direct))
    return _equality_verdict("composition", gaps, tolerance,
                             {"reverse_order": reverse_order},
                             head=heads, tail=tails, rel2=rel2, rel3=rel3)


def check_rotate_reduction(trials: int, k: int, tolerance: float = DEFAULT_TOLERANCE,
                           rng=0, planar: bool = True) -> PropertyVerdict:
    """With c = d = 0 the distance scorer equals the complex-plane distance.

    Scores random triples from a random table whose j/k components are zeroed
    and compares with a complex128 computation on the (a, b) components.
    `planar=False` keeps the j/k components and is the negative control.
    """
    gen = np.random.default_rng(rng)
    n_entities, n_relations = 64, 8
    table = init_embeddings(n_entities, n_relations,
                            k, int(gen.integers(2**31)))
    if planar:
        table.params[:, 2:, :] = 0.0
    triples = np.stack([gen.integers(n_entities, size=trials),
                        gen.integers(n_relations, size=trials),
                        gen.integers(n_entities, size=trials)], axis=1)
    full = score_triples(table, triples, "quate_d")
    ent = table.entities[:, 0, :] + 1j * table.entities[:, 1, :]
    rel = table.relations[:, 0, :] + 1j * table.relations[:, 1, :]
    rotated = ent[triples[:, 0]] * (rel / np.abs(rel))[triples[:, 1]]
    planar_scores = np.linalg.norm(rotated - ent[triples[:, 2]], axis=1)
    gaps = np.abs(full - planar_scores)
    return _equality_verdict("rotate_reduction", gaps, tolerance, {"planar": planar},
                             triple=triples)


def check_associativity(trials: int, k: int, tolerance: float = DEFAULT_TOLERANCE,
                        rng=0, swap_inner: bool = False) -> PropertyVerdict:
    """(p (x) q) (x) r equals p (x) (q (x) r) component-wise.

    `swap_inner=True` compares against p (x) (r (x) q), which differs.
    """
    gen = np.random.default_rng(rng)
    p = _random_vectors(gen, trials, k)
    q = _random_vectors(gen, trials, k)
    r = _random_vectors(gen, trials, k)
    lhs = quat.hamilton(quat.hamilton(p, q), r)
    inner = quat.hamilton(r, q) if swap_inner else quat.hamilton(q, r)
    rhs = quat.hamilton(p, inner)
    gaps = np.max(np.abs(lhs - rhs), axis=(1, 2))
    return _equality_verdict("associativity", gaps, tolerance, {"swap_inner": swap_inner},
                             p=p, q=q, r=r)


def check_noncommutativity(trials: int, k: int, rng=0) -> PropertyVerdict:
    """There exist pairs with p (x) q != q (x) p (existence check)."""
    gen = np.random.default_rng(rng)
    p = _random_vectors(gen, trials, k)
    q = _random_vectors(gen, trials, k)
    gaps = np.max(np.abs(quat.hamilton(p, q) - quat.hamilton(q, p)), axis=(1, 2))
    best = int(np.argmax(gaps))
    return PropertyVerdict(
        property="noncommutativity",
        trials=trials,
        max_violation=float(gaps[best]),
        passed=bool(gaps[best] > NONCOMMUTATIVITY_GAP),
        tolerance=None,
        detail={"min_gap": NONCOMMUTATIVITY_GAP},
        witness=_witness(best, p=p, q=q),
    )


@dataclass
class TrainedRelationDiagnostic:
    """Descriptive statistics of one trained relation; no pass/fail."""

    relation: int
    imaginary_energy: float
    score_asymmetry: float
    score_scale: float
    pairs: int


def check_trained(table: EmbeddingTable, store: TripleStore, relation: int,
                  pairs: int = 1000, rng=0) -> TrainedRelationDiagnostic:
    """Imaginary-part energy and empirical score asymmetry of a relation.

    The energy is the imaginary share of the normalized relation's total
    squared magnitude (total is k, one per unit coordinate). Asymmetry is the
    mean |phi(h, r, t) - phi(t, r, h)| over sampled entity pairs, reported
    next to the mean score as a scale reference. Raises ValueError when no
    sampled pair holds two distinct entities, as on a one-entity store.
    """
    gen = np.random.default_rng(rng)
    unit = quat.normalize(table.relations[relation])
    imaginary = float(np.sum(unit[1:, :] ** 2) / table.k)
    n = store.n_entities
    heads = gen.integers(n, size=pairs)
    tails = gen.integers(n, size=pairs)
    distinct = heads != tails
    heads, tails = heads[distinct], tails[distinct]
    if heads.shape[0] == 0:
        raise ValueError(f"relation {relation}: none of {pairs} sampled entity "
                         "pairs holds two distinct entities")
    rel_col = np.full(heads.shape[0], relation, dtype=np.int64)
    forward = score_triples(table, np.stack([heads, rel_col, tails], axis=1))
    backward = score_triples(table, np.stack([tails, rel_col, heads], axis=1))
    return TrainedRelationDiagnostic(
        relation=int(relation),
        imaginary_energy=imaginary,
        score_asymmetry=float(np.mean(np.abs(forward - backward))),
        score_scale=float(np.mean((forward + backward) / 2.0)),
        pairs=int(heads.shape[0]),
    )


def run_standard_checks(trials: int = 10_000, k: int = 8,
                        tolerance: float = DEFAULT_TOLERANCE,
                        seed: int = 0) -> list[PropertyVerdict]:
    """The full randomized suite at one dimension, in a fixed order."""
    seeds = np.random.SeedSequence(seed).spawn(7)
    return [
        check_symmetry(trials, k, rng=seeds[0]),
        check_antisymmetry(trials, k, rng=seeds[1]),
        check_inversion(trials, k, tolerance, rng=seeds[2]),
        check_composition(trials, k, tolerance, rng=seeds[3]),
        check_rotate_reduction(min(trials, 1000), k, tolerance, rng=seeds[4]),
        check_associativity(trials, k, tolerance, rng=seeds[5]),
        check_noncommutativity(trials, k, rng=seeds[6]),
    ]
