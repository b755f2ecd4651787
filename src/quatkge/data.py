"""Triple-file ingestion, vocabularies, filter index, and type-constraint index.

Input files are the usual benchmark format: UTF-8 text, one triple per line,
three tab-separated fields (head, relation, tail). Vocabulary ids are assigned
by first appearance over train, then valid, then test, so entities that only
occur in evaluation splits still get ids (they are never updated by training
but must exist for ranking).

Both indices are sorted arrays of unique int64 keys, one key per distinct true
triple, for N entities and M relations:

  * filter index (all splits): ``(h*M + r)*N + t`` lists the true tails of
    (h, r), and ``(t*M + r)*N + h`` the true heads of (t, r);
  * type index (train only): ``r*N + h`` and ``r*N + t`` list the heads and
    tails observed with relation r.

Every key with prefix p lies in ``[p*N, (p+1)*N)``, so two binary searches
find a prefix's ids, already ascending. Keys stay below ``N*N*M``, which must
be under 2**63: more than 87 million entities even at M = 1,200.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError

HEAD = "head"
TAIL = "tail"

RawTriple = tuple[str, str, str]
Triple = tuple[int, int, int]


def load_split(path) -> list[RawTriple]:
    """Read one split file, in file order, without deduplication."""
    triples: list[RawTriple] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(path, line_no,
                                 f"expected 3 tab-separated fields, got {len(parts)}")
            triples.append((parts[0], parts[1], parts[2]))
    return triples


@dataclass
class TripleStore:
    """Integer-encoded splits plus every index evaluation and training need.

    The four key arrays are the filter and type indices laid out in the
    module docstring, and the only index of true triples. Immutable after
    construction: all consumers only read.
    """

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    entity_names: list[str]
    entity_ids: dict[str, int]
    relation_names: list[str]
    relation_ids: dict[str, int]
    tail_keys: np.ndarray = field(repr=False)       # (h*M + r)*N + t, all splits
    head_keys: np.ndarray = field(repr=False)       # (t*M + r)*N + h, all splits
    type_head_keys: np.ndarray = field(repr=False)  # r*N + h, train
    type_tail_keys: np.ndarray = field(repr=False)  # r*N + t, train

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    def split(self, name: str) -> np.ndarray:
        if name not in ("train", "valid", "test"):
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def is_true(self, head, relation, tail):
        """Membership in the union of all three splits (filtered protocol),
        elementwise over equal-length id arrays."""
        keys = ((np.asarray(head, dtype=np.int64) * self.n_relations + relation)
                * self.n_entities + tail)
        found = self.tail_keys.searchsorted(keys)
        return self.tail_keys[np.minimum(found, self.tail_keys.size - 1)] == keys

    def type_candidates(self, relation: int, position: str) -> np.ndarray:
        """Entity ids observed at `position` for `relation` in training.

        Falls back to the full entity set when the relation never appears in
        training at that position.
        """
        if position == HEAD:
            observed = self._ids_with_prefix(self.type_head_keys, relation)
        elif position == TAIL:
            observed = self._ids_with_prefix(self.type_tail_keys, relation)
        else:
            raise ValueError(f"position must be 'head' or 'tail', got {position!r}")
        if observed.size == 0:
            return np.arange(self.n_entities, dtype=np.int64)
        return observed

    def sample_type_candidates(self, relations, position: str,
                               rng: np.random.Generator) -> np.ndarray:
        """One uniform draw from ``type_candidates(r, position)`` per r in
        `relations`, including its fallback to all entities."""
        keys = self.type_head_keys if position == HEAD else self.type_tail_keys
        base = np.asarray(relations, dtype=np.int64) * self.n_entities
        lo = keys.searchsorted(base)
        size = keys.searchsorted(base + self.n_entities) - lo
        pooled = size > 0
        ids = rng.integers(np.where(pooled, size, self.n_entities))
        ids[pooled] = keys[lo[pooled] + ids[pooled]] - base[pooled]
        return ids

    def true_competitors(self, triple: Triple, position: str) -> np.ndarray:
        """Entity ids whose substitution at `position` yields a known-true triple."""
        head, relation, tail = triple
        if position == HEAD:
            return self._ids_with_prefix(self.head_keys,
                                         tail * self.n_relations + relation)
        return self._ids_with_prefix(self.tail_keys, head * self.n_relations + relation)

    def _ids_with_prefix(self, keys: np.ndarray, prefix: int) -> np.ndarray:
        """Ascending entity ids e with ``prefix*N + e`` in `keys`."""
        base = prefix * self.n_entities
        return keys[keys.searchsorted(base):keys.searchsorted(base + self.n_entities)] - base

    def stats(self) -> dict:
        return {
            "entities": self.n_entities,
            "relations": self.n_relations,
            "triples": int(len(self.train) + len(self.valid) + len(self.test)),
            "train": int(len(self.train)),
            "valid": int(len(self.valid)),
            "test": int(len(self.test)),
        }


def _encode(raw: list[RawTriple], entity_ids: dict[str, int],
            relation_ids: dict[str, int]) -> list[Triple]:
    """Integer triples, giving each unseen name the next id in its vocabulary."""
    ent, rel = entity_ids.setdefault, relation_ids.setdefault
    return [(ent(h, len(entity_ids)), rel(r, len(relation_ids)), ent(t, len(entity_ids)))
            for h, r, t in raw]


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Ascending distinct values of non-negative `keys`."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def build_store(train: list[RawTriple], valid: list[RawTriple],
                test: list[RawTriple]) -> TripleStore:
    """Assign vocabularies and build the filter and type-constraint indices.

    Duplicate triples within a split are kept (they weight training) but the
    filter set is deduplicated.
    """
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    encoded = [_encode(raw, entity_ids, relation_ids) for raw in (train, valid, test)]
    train_arr, valid_arr, test_arr = (np.array(rows, dtype=np.int64).reshape(-1, 3)
                                      for rows in encoded)
    n, m = len(entity_ids), len(relation_ids)
    h, r, t = np.concatenate([train_arr, valid_arr, test_arr]).T

    return TripleStore(
        train=train_arr,
        valid=valid_arr,
        test=test_arr,
        entity_names=list(entity_ids),
        entity_ids=entity_ids,
        relation_names=list(relation_ids),
        relation_ids=relation_ids,
        tail_keys=_sorted_unique((h * m + r) * n + t),
        head_keys=_sorted_unique((t * m + r) * n + h),
        type_head_keys=_sorted_unique(train_arr[:, 1] * n + train_arr[:, 0]),
        type_tail_keys=_sorted_unique(train_arr[:, 1] * n + train_arr[:, 2]),
    )


def load_dataset(train_path, valid_path, test_path) -> TripleStore:
    """Load the three split files and build the store."""
    return build_store(load_split(train_path), load_split(valid_path),
                       load_split(test_path))


def dataset_dir_paths(directory) -> tuple[Path, Path, Path]:
    """Conventional file names inside a benchmark dataset directory."""
    base = Path(directory)
    return base / "train.txt", base / "valid.txt", base / "test.txt"
