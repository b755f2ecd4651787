"""Seeded input generator for the benchmark workloads.

Run as a script before any timed process starts:

    python3 benchmarks/inputs.py --workload wn18rr-size-eval --seed 3 --seconds 15 --out DIR

It writes the triple files (and, for ``wn18rr-size-eval``, the checkpoint) into
DIR. The program under test receives only these files. Nothing here imports
``quatkge``: the generator and the checkpoint writer are the benchmark's own, so
a change to the package cannot change the inputs it is measured on.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
from pathlib import Path

import numpy as np

# planted-fit is acceptance criterion 7's run, on criterion 7's graph for
# every --seed: its quality thresholds hold for that graph, not for every
# planted graph (graph seed 206's test split caps filtered Hits@10 at 0.88).
PLANTED_ENTITIES = 200
PLANTED_SYM_PAIRS = 200
PLANTED_GRAPH_SEED = 11
PLANTED_VALID_FRAC = 0.05
PLANTED_TEST_FRAC = 0.05

# WN18RR-size graph: WN18RR's entity count; 3 x 40,943 pattern triples plus
# 2 x 20,000 symmetric ones make a ~163k-triple filter set.
WN_ENTITIES = 40_943
WN_SYM_PAIRS = 20_000
WN_K = 100
EVAL_TEST_TRIPLES = 50      # wn18rr-size-eval: 100 queries per mode
TRAIN_TEST_TRIPLES = 25     # wn18rr-size-train: 50 queries ranked after fit
# wn18rr-size-train sizes its training split to the run length: this many
# training triples per second of --seconds. At the ~1,300 triples/s fit runs
# at k=100, neg 10, batch 10 on a 2-core x86 box, a round (fit plus its
# ranking passes) takes about a third of --seconds, so a run holds about three
# rounds to take the median of.
TRAIN_TRIPLES_PER_SECOND = 300

MAGIC = b"QKGE"
FORMAT_VERSION = 1


def planted_triples(n_entities: int, sym_pairs: int,
                    rng: np.random.Generator) -> list[tuple[str, str, str]]:
    """All triples of the four-pattern graph, shuffled.

    sym: undirected random pairs, both directions; antisym: one n-cycle
    x -> s(x); inverse: s(x) -> x; compose: x -> s(s(x)). The draw order
    matches the package's ``planted_graph`` so criterion 7's seed gives
    criterion 7's graph.
    """
    order = rng.permutation(n_entities)
    perm = np.empty(n_entities, dtype=np.int64)
    perm[order] = np.roll(order, -1)
    triples = []
    for x in range(n_entities):
        sx, ssx = int(perm[x]), int(perm[perm[x]])
        triples.append((f"e{x}", "antisym", f"e{sx}"))
        triples.append((f"e{sx}", "inverse", f"e{x}"))
        triples.append((f"e{x}", "compose", f"e{ssx}"))
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < sym_pairs:
        x, y = rng.integers(n_entities, size=2)
        if x != y:
            pairs.add((min(int(x), int(y)), max(int(x), int(y))))
    for x, y in sorted(pairs):
        triples.append((f"e{x}", "sym", f"e{y}"))
        triples.append((f"e{y}", "sym", f"e{x}"))
    shuffle = rng.permutation(len(triples))
    return [triples[i] for i in shuffle]


def write_split(path: Path, triples) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in triples)


def checkpoint_bytes(entities: np.ndarray, relations: np.ndarray, seed: int,
                     config_hash: str = "", scorer: str = "quate_d") -> bytes:
    """The README's checkpoint format for (rows, 4, k) component-stacked tables.

    Magic, little-endian u32 version and header length, canonical JSON header,
    then the a, b, c, d blocks of the entity table and of the relation table,
    each row-major by id then coordinate, little-endian float64.
    """
    k = entities.shape[2]
    header = json.dumps({
        "config_hash": config_hash, "format_version": FORMAT_VERSION, "k": k,
        "n_entities": entities.shape[0], "n_relations": relations.shape[0],
        "scorer": scorer, "seed": seed,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(header)), header]
    for block in (entities, relations):
        for component in range(4):
            parts.append(np.ascontiguousarray(block[:, component, :], dtype="<f8").tobytes())
    return b"".join(parts)


def read_checkpoint(data: bytes) -> tuple[dict, np.ndarray, np.ndarray]:
    """Header, entities and relations of a checkpoint in the README's format."""
    if data[:4] != MAGIC:
        raise ValueError("bad magic")
    version, header_len = struct.unpack("<II", data[4:12])
    if version != FORMAT_VERSION:
        raise ValueError(f"format version {version}")
    header = json.loads(data[12:12 + header_len].decode("utf-8"))
    n, m, k = header["n_entities"], header["n_relations"], header["k"]
    payload = np.frombuffer(data, dtype="<f8", offset=12 + header_len)
    if payload.size != (n + m) * 4 * k:
        raise ValueError(f"payload has {payload.size} values, expected {(n + m) * 4 * k}")
    entities = payload[:n * 4 * k].reshape(4, n, k).transpose(1, 0, 2)
    relations = payload[n * 4 * k:].reshape(4, m, k).transpose(1, 0, 2)
    return header, entities.astype(np.float64), relations.astype(np.float64)


def random_table(n_entities: int, n_relations: int, k: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    scale = 1.0 / math.sqrt(2.0 * k)
    entities = rng.standard_normal((n_entities, 4, k)) * scale
    relations = rng.standard_normal((n_relations, 4, k)) * scale
    return entities, relations


def generate(workload: str, seed: int, seconds: int, out: Path) -> None:
    """Write the workload's inputs under `out`."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if workload == "planted-fit":
        triples = planted_triples(PLANTED_ENTITIES, PLANTED_SYM_PAIRS,
                                  np.random.default_rng(PLANTED_GRAPH_SEED))
        n_valid = int(round(PLANTED_VALID_FRAC * len(triples)))
        n_test = int(round(PLANTED_TEST_FRAC * len(triples)))
        n_train = len(triples) - n_valid - n_test
        splits = {"train": triples[:n_train],
                  "valid": triples[n_train:n_train + n_valid],
                  "test": triples[n_train + n_valid:]}
    elif workload in ("wn18rr-size-eval", "wn18rr-size-train"):
        triples = planted_triples(WN_ENTITIES, WN_SYM_PAIRS, rng)
        if workload == "wn18rr-size-eval":
            n_test = EVAL_TEST_TRIPLES
            n_train = len(triples) - n_test
        else:
            n_test = TRAIN_TEST_TRIPLES
            n_train = TRAIN_TRIPLES_PER_SECOND * seconds
        # Test first, then train; every remaining triple goes to valid so the
        # vocabulary and the filter index cover the whole graph.
        splits = {"test": triples[:n_test],
                  "train": triples[n_test:n_test + n_train],
                  "valid": triples[n_test + n_train:]}
    else:
        raise ValueError(f"unknown workload {workload!r}")

    for name, split in splits.items():
        write_split(out / f"{name}.txt", split)
    if workload == "wn18rr-size-eval":
        # Entity ids follow first appearance over train, valid, test, which the
        # table need not know: a random table ranks the same under any order.
        entities, relations = random_table(WN_ENTITIES, 4, WN_K, rng)
        (out / "checkpoint.bin").write_bytes(checkpoint_bytes(entities, relations, seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.seconds, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
