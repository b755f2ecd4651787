"""Synthetic knowledge graphs with planted relational patterns.

The generated graph has four relations over one entity pool:

  * ``sym``      - random undirected pairs, both directions present;
  * ``antisym``  - a single-cycle permutation edge x -> s(x), never reversed;
  * ``inverse``  - the reversal s(x) -> x of every ``antisym`` edge;
  * ``compose``  - the two-hop edge x -> s(s(x)).

Held-out triples are therefore recoverable from the patterns, which is what
end-to-end training tests (and demos) need.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import RawTriple

RELATION_NAMES = ("sym", "antisym", "inverse", "compose")
HELD_OUT_FRACTION = 0.05   # of all triples, for each of valid and test


@dataclass
class PlantedGraph:
    """Raw triples split 90/5/5."""

    train: list[RawTriple]
    valid: list[RawTriple]
    test: list[RawTriple]

    def write(self, directory) -> tuple[Path, Path, Path]:
        """Write train.txt / valid.txt / test.txt under `directory`."""
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, triples in (("train", self.train), ("valid", self.valid),
                              ("test", self.test)):
            path = base / f"{name}.txt"
            with open(path, "w", encoding="utf-8") as handle:
                for h, r, t in triples:
                    handle.write(f"{h}\t{r}\t{t}\n")
            paths.append(path)
        return tuple(paths)


def _entity(i: int) -> str:
    return f"e{i}"


def planted_graph(n_entities: int = 200, sym_pairs: int = 200,
                  seed: int = 0) -> PlantedGraph:
    """Generate the four-pattern graph and split it at random."""
    if n_entities < 5:
        raise ValueError("need at least 5 entities for distinct two-hop edges")
    rng = np.random.default_rng(seed)

    # One n-cycle: no fixed points, no 2-cycles, s(s(x)) != x.
    order = rng.permutation(n_entities)
    perm = np.empty(n_entities, dtype=np.int64)
    perm[order] = np.roll(order, -1)

    triples: list[RawTriple] = []
    for x in range(n_entities):
        sx, ssx = int(perm[x]), int(perm[perm[x]])
        triples.append((_entity(x), "antisym", _entity(sx)))
        triples.append((_entity(sx), "inverse", _entity(x)))
        triples.append((_entity(x), "compose", _entity(ssx)))

    pairs: set[tuple[int, int]] = set()
    while len(pairs) < sym_pairs:
        x, y = rng.integers(n_entities, size=2)
        if x == y:
            continue
        pairs.add((min(int(x), int(y)), max(int(x), int(y))))
    for x, y in sorted(pairs):
        triples.append((_entity(x), "sym", _entity(y)))
        triples.append((_entity(y), "sym", _entity(x)))

    order = rng.permutation(len(triples))
    shuffled = [triples[i] for i in order]
    n_held = int(round(HELD_OUT_FRACTION * len(shuffled)))
    n_train = len(shuffled) - 2 * n_held
    return PlantedGraph(
        train=shuffled[:n_train],
        valid=shuffled[n_train:n_train + n_held],
        test=shuffled[n_train + n_held:],
    )
