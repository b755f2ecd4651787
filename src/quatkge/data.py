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
find a prefix's ids, already ascending. The lookups take a whole block of
prefixes at once, one ``searchsorted`` pair per block, and a type key
``r*N + e`` is also the flat index of (r, e) in an ``(M, N)`` table. The key
layout stays inside this module. Keys stay below ``N*N*M``, which must be
under 2**63: more than 87 million entities even at M = 1,200.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    entity_names: list[str]     # index is the entity id
    relation_names: list[str]   # index is the relation id
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

    def _prefix_ranges(self, keys: np.ndarray, prefixes):
        """``(base, lo, size)`` per prefix p: ``keys[lo:lo + size] - base`` are
        the ascending entity ids e with ``p*N + e`` in `keys`."""
        base = np.asarray(prefixes, dtype=np.int64) * self.n_entities
        lo = keys.searchsorted(base)
        return base, lo, keys.searchsorted(base + self.n_entities) - lo

    def _type_keys(self, position: str) -> np.ndarray:
        if position == HEAD:
            return self.type_head_keys
        if position == TAIL:
            return self.type_tail_keys
        raise ValueError(f"position must be 'head' or 'tail', got {position!r}")

    def type_pools(self, position: str) -> np.ndarray:
        """``(M, N)`` bool table: row r marks the entities observed at
        `position` of relation r in training.

        A relation never observed at that position gets an all-True row, the
        fallback to the full entity set.
        """
        pools = np.zeros((self.n_relations, self.n_entities), dtype=bool)
        pools.ravel()[self._type_keys(position)] = True  # r*N + e is the flat index
        pools[~pools.any(axis=1)] = True
        return pools

    def sample_type_candidates(self, relations, position: str,
                               rng: np.random.Generator) -> np.ndarray:
        """One uniform draw from row r of ``type_pools(position)`` per r in
        `relations`, including its fallback to all entities."""
        keys = self._type_keys(position)
        base, lo, size = self._prefix_ranges(keys, relations)
        pooled = size > 0
        ids = rng.integers(np.where(pooled, size, self.n_entities))
        ids[pooled] = keys[lo[pooled] + ids[pooled]] - base[pooled]
        return ids

    def true_competitors(self, rows, position: str) -> tuple[np.ndarray, np.ndarray]:
        """Known-true substitutions at `position` for a ``(B, 3)`` block.

        Returns ragged ``(row index, entity id)`` pairs: every e whose
        substitution into row i at `position` is a triple of some split, in
        ascending order of row, then id.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if position == HEAD:
            keys, prefixes = self.head_keys, rows[:, 2] * self.n_relations + rows[:, 1]
        else:
            keys, prefixes = self.tail_keys, rows[:, 0] * self.n_relations + rows[:, 1]
        base, lo, size = self._prefix_ranges(keys, prefixes)
        row = np.repeat(np.arange(rows.shape[0]), size)
        # keys position of each pair: its row's lo plus its offset in the row
        index = np.arange(row.size) + np.repeat(lo - (np.cumsum(size) - size), size)
        return row, keys[index] - base[row]

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

    # The vocabulary keys are the first-appearance strings of the raw
    # triples, scattered among every other string and tuple the parse made
    # (about 490k objects at WN18RR size). Kept by the store, they would hold
    # the allocator's arenas resident after the raw lists are freed, so the
    # store keeps fresh copies made together instead.
    return TripleStore(
        train=train_arr,
        valid=valid_arr,
        test=test_arr,
        entity_names=[name.encode().decode() for name in entity_ids],
        relation_names=[name.encode().decode() for name in relation_ids],
        tail_keys=_sorted_unique((h * m + r) * n + t),
        head_keys=_sorted_unique((t * m + r) * n + h),
        type_head_keys=_sorted_unique(train_arr[:, 1] * n + train_arr[:, 0]),
        type_tail_keys=_sorted_unique(train_arr[:, 1] * n + train_arr[:, 2]),
    )


def load_dataset(train_path, valid_path, test_path) -> TripleStore:
    """Load the three split files and build the store."""
    return build_store(load_split(train_path), load_split(valid_path),
                       load_split(test_path))

