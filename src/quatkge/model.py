"""Embedding tables, initialization, scoring functions, and checkpoint format.

Tables hold one quaternion vector per entity and per relation as
component-stacked float64 arrays of shape ``(rows, 4, k)``. Relations are
stored UNnormalized; every scoring path normalizes relation coordinates on
the fly so that training gradients can flow through the normalization.

Scoring conventions (``lower_is_better`` is the one place that says which
direction ranks first):
  * ``quate_d``   - Euclidean distance over all 4k real components between the
                    Hamilton-rotated head and the tail; smaller is better.
  * ``rotate``    - ``quate_d`` on the planar (a, b, 0, 0) view: the j and k
                    components of every gathered row are zero, which reduces
                    the Hamilton product to a complex product; smaller is
                    better.
  * ``quate_inner`` - inner product between the rotated head and the tail;
                    larger is better (comparison baseline only).

``score_triples`` scores a batch of triples and ``CandidateScorer`` sweeps
every entity for one query; both raise ``ZeroQuaternionError`` rather than
return a score computed from non-finite embeddings.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import quat
from .errors import CheckpointError, ShapeMismatchError, ZeroQuaternionError

SCORERS = ("quate_d", "rotate", "quate_inner")

_MAGIC = b"QKGE"
FORMAT_VERSION = 1


@dataclass
class EmbeddingTable:
    """Entity and relation quaternion embeddings of dimension k."""

    entities: np.ndarray   # (N, 4, k)
    relations: np.ndarray  # (M, 4, k)
    k: int
    seed: int

    @property
    def n_entities(self) -> int:
        return self.entities.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relations.shape[0]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.entities.copy(), self.relations.copy(),
                              self.k, self.seed)


def _draw_rows(rng: np.random.Generator, rows: int, k: int) -> np.ndarray:
    """Draw `rows` quaternion vectors with the scaled polar scheme.

    Per coordinate: magnitude rho uniform in [-1/sqrt(2k), 1/sqrt(2k)], angle
    theta uniform in [-pi, pi], and a uniformly random unit imaginary
    direction; the real part is rho*cos(theta) and the imaginary parts are
    rho*sin(theta) times the direction. The coordinate magnitude is |rho|.
    """
    bound = 1.0 / math.sqrt(2.0 * k)
    theta = rng.uniform(-math.pi, math.pi, size=(rows, k))
    rho = rng.uniform(-bound, bound, size=(rows, k))
    gauss = rng.standard_normal(size=(rows, 3, k))
    norms = np.sqrt(np.einsum("rck,rck->rk", gauss, gauss))
    degenerate = norms <= 1e-12
    if np.any(degenerate):
        gauss[:, 0, :][degenerate] = 1.0
        norms[degenerate] = 1.0
    direction = gauss / norms[:, None, :]
    real = (rho * np.cos(theta))[:, None, :]
    imag = (rho * np.sin(theta))[:, None, :] * direction
    return np.concatenate([real, imag], axis=1)


def init_embeddings(n_entities: int, n_relations: int, k: int, seed: int) -> EmbeddingTable:
    """Initialize a table; deterministic given seed (entities drawn first)."""
    if min(n_entities, n_relations, k) < 1:
        raise ValueError("n_entities, n_relations, and k must all be >= 1")
    rng = np.random.default_rng(seed)
    entities = _draw_rows(rng, n_entities, k)
    relations = _draw_rows(rng, n_relations, k)
    return EmbeddingTable(entities, relations, k, seed)


def lower_is_better(scorer: str) -> bool:
    """Whether a smaller score ranks first: True for the two distances."""
    return scorer != "quate_inner"


def _check_scorer(scorer: str) -> None:
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}")


def _planar(rows: np.ndarray) -> np.ndarray:
    """Copy of component-stacked rows with the j and k components zeroed."""
    out = rows.copy()
    out[..., 2:, :] = 0.0
    return out


def score_triples(table: EmbeddingTable, triples, scorer: str = "quate_d") -> np.ndarray:
    """Vectorized scores for an integer triple array of shape (B, 3)."""
    _check_scorer(scorer)
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    heads = table.entities[arr[:, 0]]
    tails = table.entities[arr[:, 2]]
    rels = table.relations[arr[:, 1]]
    if scorer == "rotate":
        heads, tails, rels = _planar(heads), _planar(tails), _planar(rels)
    # inf times a zeroed planar part would warn; the check below raises instead.
    with np.errstate(invalid="ignore", over="ignore"):
        rotated = quat.hamilton(heads, quat.normalize(rels))
        if scorer == "quate_inner":
            scores = np.einsum("bck,bck->b", rotated, tails)
        else:
            diff = rotated - tails
            scores = np.sqrt(np.einsum("bck,bck->b", diff, diff))
    if not np.all(np.isfinite(scores)):
        raise ZeroQuaternionError("non-finite score: the embedding table is not finite")
    return scores


class CandidateScorer:
    """Scores every entity in the corrupted position of a query.

    Rotation happens once per query; candidate distances then come from the
    expansion |x - e|^2 = |x|^2 + |e|^2 - 2<x, e> with cached per-row squared
    norms, so a full sweep costs one matrix-vector product. Head queries use
    the adjoint identity <Q_h (x) w, Q_t> = <Q_h, Q_t (x) conj(w)> for unit w.
    A ``rotate`` query has zero j and k components, so its sweep reads a table
    of only the (a, b) columns.
    """

    def __init__(self, table: EmbeddingTable, scorer: str = "quate_d"):
        _check_scorer(scorer)
        self.table = table
        self.scorer = scorer
        n = table.n_entities
        if scorer == "rotate":
            self._flat = np.ascontiguousarray(table.entities[:, :2, :]).reshape(n, -1)
        else:
            self._flat = table.entities.reshape(n, -1)
        self._row_sq = np.einsum("nc,nc->n", self._flat, self._flat)
        if not (np.all(np.isfinite(self._row_sq))
                and np.all(np.isfinite(table.relations))):
            raise ZeroQuaternionError("embedding table contains non-finite values")

    def _row(self, block: np.ndarray, i: int) -> np.ndarray:
        return _planar(block[i]) if self.scorer == "rotate" else block[i]

    def _sweep(self, query: np.ndarray) -> np.ndarray:
        if self.scorer == "quate_inner":
            return self._flat @ query.ravel()
        flat = query[:2].ravel() if self.scorer == "rotate" else query.ravel()
        d_sq = self._row_sq + flat @ flat - 2.0 * (self._flat @ flat)
        return np.sqrt(np.clip(d_sq, 0.0, None))

    def all_tails(self, h: int, r: int) -> np.ndarray:
        """Score (h, r, t) for every t; shape (N,)."""
        unit_rel = quat.normalize(self._row(self.table.relations, r))
        return self._sweep(quat.hamilton(self._row(self.table.entities, h), unit_rel))

    def all_heads(self, r: int, t: int) -> np.ndarray:
        """Score (h, r, t) for every h; shape (N,)."""
        unit_rel = quat.normalize(self._row(self.table.relations, r))
        return self._sweep(quat.hamilton(self._row(self.table.entities, t),
                                         quat.conjugate(unit_rel)))


# ---------------------------------------------------------------------------
# Checkpoint format: magic, binary version, canonical JSON metadata, then the
# four component arrays per table (a, b, c, d), entities before relations,
# each row-major by id then coordinate, little-endian float64.
# ---------------------------------------------------------------------------

def save_checkpoint(table: EmbeddingTable, path, scorer: str = "quate_d",
                    config_hash: str = "") -> None:
    meta = {
        "config_hash": config_hash,
        "format_version": FORMAT_VERSION,
        "k": table.k,
        "n_entities": table.n_entities,
        "n_relations": table.n_relations,
        "scorer": scorer,
        "seed": table.seed,
    }
    header = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<II", FORMAT_VERSION, len(header)))
        handle.write(header)
        for block in (table.entities, table.relations):
            for component in range(4):
                handle.write(np.ascontiguousarray(block[:, component, :], dtype="<f8").tobytes())


def _header_int(meta: dict, key: str, minimum: int, path) -> int:
    value = meta.get(key)
    if type(value) is not int or value < minimum:
        raise CheckpointError(
            f"{path}: header field {key!r} must be an integer >= {minimum}, got {value!r}")
    return value


def _read_block(handle, rows: int, k: int) -> np.ndarray:
    """Read four (rows, k) component blocks into one (rows, 4, k) table."""
    block = np.empty((rows, 4, k), dtype=np.float64)
    component = np.empty((rows, k), dtype="<f8")
    for c in range(4):
        handle.readinto(component)
        block[:, c, :] = component
    return block


def load_checkpoint(path) -> tuple[EmbeddingTable, dict]:
    """Read a checkpoint; any malformed content raises CheckpointError.

    The table is read block by block into preallocated arrays, so peak memory
    is the table plus one component block.
    """
    with open(path, "rb") as handle:
        prefix = handle.read(12)
        if prefix[:4] != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        if len(prefix) < 12:
            raise CheckpointError(f"{path}: truncated header")
        version, header_len = struct.unpack("<II", prefix[4:])
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        try:
            meta = json.loads(handle.read(header_len).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
            raise CheckpointError(f"{path}: malformed metadata: {exc}") from exc
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: metadata is not a JSON object")
        n, m, k = (_header_int(meta, key, 1, path)
                   for key in ("n_entities", "n_relations", "k"))
        seed = _header_int(meta, "seed", 0, path)
        if meta.get("scorer", SCORERS[0]) not in SCORERS:
            raise CheckpointError(f"{path}: header field 'scorer' must be one of "
                                  f"{SCORERS}, got {meta['scorer']!r}")
        payload = os.fstat(handle.fileno()).st_size - (12 + header_len)
        expected = (n + m) * 4 * k * 8
        if payload != expected:
            raise CheckpointError(
                f"{path}: payload is {payload} bytes, expected {expected}")
        entities = _read_block(handle, n, k)
        relations = _read_block(handle, m, k)
    return EmbeddingTable(entities, relations, k, seed), meta


def check_table_matches_store(table: EmbeddingTable, n_entities: int,
                              n_relations: int) -> None:
    """Raise ShapeMismatchError when checkpoint and dataset dimensions differ."""
    if table.n_entities != n_entities or table.n_relations != n_relations:
        raise ShapeMismatchError(
            f"checkpoint has {table.n_entities} entities / {table.n_relations} relations, "
            f"dataset has {n_entities} / {n_relations}")
