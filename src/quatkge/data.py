"""Triple-file ingestion, vocabularies, filter index, and type-constraint index.

Input files are the usual benchmark format: UTF-8 text, one triple per line,
three tab-separated fields (head, relation, tail). Lines end in ``\\n``,
``\\r\\n`` or a lone ``\\r``, and blank lines are skipped. Vocabulary ids are
assigned by first appearance over train, then valid, then test, head before
tail within a line, so entities that only occur in evaluation splits still get
ids (they are never updated by training but must exist for ranking).

A split is read in bulk, without a Python object per line or field:
``load_split`` reads the file's bytes once, and numpy finds the tabs and
newlines. A ``RawSplit`` keeps the bytes and each field's ``[start, end)``
byte offsets, and builds name strings only when it is read. ``build_store``
joins the three splits' bytes and keys every field on its exact bytes: its
bytes as little-endian 8-byte words, zero past the field's end
(``ceil(longest / 8)`` words per field), plus its length when some split holds
a NUL byte. Without one, a field's last byte is not zero, so the zero padding
keeps names of different lengths apart. One sort of those keys puts equal
fields next to each other: ``argsort`` when that leaves one key, as for
WN18RR's 8-digit ids, else ``lexsort``. Neighbours that differ in any key
start a new name, so two fields share an id only when their bytes are equal.
Neither sort needs to be stable: a name's first appearance is the smallest
field index in its group.

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

import ctypes
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError

HEAD = "head"
TAIL = "tail"

RawTriple = tuple[str, str, str]

_TAB, _NEWLINE = ord("\t"), ord("\n")
# _LOW_BYTES[n] keeps the first n bytes of a little-endian 8-byte word.
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
# build_store returns its freed scratch to the OS when the splits hold at
# least this much text; below it a load's scratch is too small to be worth a
# trim, and a later load would fault the pages back in.
_TRIM_BYTES = 2**20


def _find_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none (musl,
    macOS, Windows) or cannot be opened."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):  # no symbol; TypeError on Windows
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_malloc_trim = _find_malloc_trim()


class RawSplit(Sequence):
    """One split's ``(head, relation, tail)`` name triples, in file order.

    Read-only, and backed by the split's bytes and the ``(T, 3)`` byte offsets
    of each field, ``data[starts[i, j]:ends[i, j]]``. Every field ends at a tab
    or newline byte, and `data` holds these lines and blank ones only. It
    compares equal to the list of tuples it holds.
    """

    def __init__(self, data: bytes, starts: np.ndarray, ends: np.ndarray):
        self.data, self.starts, self.ends = data, starts, ends

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return tuple(self.data[s:e].decode() for s, e in
                     zip(self.starts[index].tolist(), self.ends[index].tolist()))

    def __iter__(self):
        return (tuple(line.split("\t")) for line in self.data.decode().split("\n") if line)

    def __eq__(self, other):
        if not isinstance(other, (RawSplit, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _delimit(data: bytes):
    """Field offsets of `data`, which ends in a newline.

    Returns ``(starts, ends, malformed)``: the ``(T, 3)`` field offsets of the
    non-blank lines, and ``(line number, field count)`` of the first non-blank
    line without three fields, or None (then the offsets are None too).

    The offsets are copied out even when no line is blank. Returning the
    first arrays instead saved about 2.5 ms per 3.3 MB file, but raised the
    peak RSS of repeated WN18RR-size loads by 2-3 MB: where an array sits in
    the heap matters here as in `_id_rows`.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((buf == _TAB) | (buf == _NEWLINE))  # the byte after each field
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    last = np.flatnonzero(buf[ends] == _NEWLINE)               # each line's last field
    fields = np.diff(last, prepend=-1)
    blank = (fields == 1) & (starts[last] == ends[last])
    bad = np.flatnonzero((fields != 3) & ~blank)
    if bad.size:
        return None, None, (int(bad[0]) + 1, int(fields[bad[0]]))
    keep = np.ones(ends.size, dtype=bool)
    keep[last[blank]] = False
    return starts[keep].reshape(-1, 3), ends[keep].reshape(-1, 3), None


def _decode_fields(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The fields ``buf[starts[i]:ends[i]]`` as strings, made by one decode.

    Each field is copied with the byte after it, set to a tab, so that one
    split of the decoded text makes every string.
    """
    lengths = ends - starts + 1
    stops = np.cumsum(lengths)
    text = buf[np.arange(stops[-1] if stops.size else 0)
               + np.repeat(starts + lengths - stops, lengths)]
    text[stops - 1] = _TAB
    return text.tobytes().decode().split("\t")[:-1]


def load_split(path) -> RawSplit:
    """Read one split file, in file order, without deduplication.

    Raises ParseError naming the first line, counted with blank lines, that
    has other than three fields or holds bytes that are not UTF-8.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data and not data.endswith(b"\n"):
        data += b"\n"
    starts, ends, malformed = _delimit(data)
    problems = []
    if malformed:
        line_no, count = malformed
        problems.append((line_no, f"expected 3 tab-separated fields, got {count}"))
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        problems.append((data.count(b"\n", 0, err.start) + 1,
                         f"byte 0x{data[err.start]:02x} is not valid UTF-8"))
    if problems:
        raise ParseError(path, *min(problems))
    return RawSplit(data, starts, ends)


def _as_raw_split(triples: Sequence[RawTriple]) -> RawSplit:
    """`triples` itself if it is a RawSplit, else its name triples in that form."""
    if isinstance(triples, RawSplit):
        return triples
    lines = [f"{h}\t{r}\t{t}\n" for h, r, t in triples]
    data = "".join(lines).encode()
    if data.count(b"\t") != 2 * len(lines) or data.count(b"\n") != len(lines):
        raise ValueError("names must not contain tabs or newlines")
    starts, ends, _ = _delimit(data)
    return RawSplit(data, starts, ends)


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


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Ascending distinct values of non-negative `keys`."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _vocabulary(windows: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                has_nul: bool) -> tuple[np.ndarray, np.ndarray]:
    """Ids by first appearance for the fields ``[starts, starts + lengths)``.

    `windows` holds the 8-byte window at each byte of the buffer, which has at
    least 8 zero bytes past the longest field. A field is keyed on its bytes
    as ``ceil(longest / 8)`` words, zero past its end. Only when the buffer
    holds a NUL byte (`has_nul`) is its length keyed too: otherwise a field's
    last byte is not zero, so zero padding alone keeps names of different
    lengths apart. One key is sorted with ``argsort``, several with
    ``lexsort``; neither order needs to be stable, since each group's first
    appearance is its smallest field index.

    Returns each field's id, and the field of each id's first appearance.
    Two fields share an id only when their bytes are equal.
    """
    keys = []
    for offset in range(0, int(lengths.max(initial=1)), 8):
        word = windows[starts + offset].view("<u8")[:, 0]
        word &= _LOW_BYTES[np.clip(lengths - offset, 0, 8)]
        keys.append(word)
    if has_nul:
        keys.append(lengths)
    order = np.lexsort(keys) if len(keys) > 1 else np.argsort(keys[0])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in keys:
        column = key[order]
        new[1:] |= column[1:] != column[:-1]
    del keys, column                    # before the ids, see _id_rows
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    by_appearance = np.argsort(first)
    id_of_group = np.empty_like(first)
    id_of_group[by_appearance] = np.arange(first.size)
    ids = np.empty_like(order)
    ids[order] = id_of_group[np.cumsum(new) - 1]
    return ids, first[by_appearance]


def _id_rows(splits: list[RawSplit]) -> tuple[np.ndarray, list[str], list[str]]:
    """The splits' ``(h, r, t)`` id rows, one after another, and the entity
    and relation names in id order.

    The large temporaries (the joined bytes, the field offsets, the sort
    keys) are freed before each array that outlives them is made: the ids,
    the rows, and the store's key arrays in `build_store`. Those arrays then
    reuse the freed heap; made earlier, they sit above it and keep it
    resident. On the WN18RR-size graph, repeated set-ups and a ranking pass
    peaked 6-12 MB higher in RSS that way. Freed, the scratch stays in the
    heap until `build_store` returns it to the OS, with glibc and at least
    ``_TRIM_BYTES`` of text.
    """
    bases = np.cumsum([0] + [len(split.data) for split in splits])
    starts = np.concatenate([split.starts + base for split, base in zip(splits, bases)])
    ends = np.concatenate([split.ends + base for split, base in zip(splits, bases)])
    lengths = ends - starts
    padding = bytes(int(lengths.max(initial=0)) + 8)
    buf = np.frombuffer(b"".join([split.data for split in splits] + [padding]),
                        dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(buf, 8)
    has_nul = any(b"\0" in split.data for split in splits)
    # Entity fields in first-appearance order: line by line, head then tail.
    entity_ids, entity_first = _vocabulary(windows, starts[:, ::2].ravel(),
                                           lengths[:, ::2].ravel(), has_nul)
    relation_ids, relation_first = _vocabulary(windows, starts[:, 1], lengths[:, 1],
                                               has_nul)
    entity_first = np.divmod(entity_first, 2)
    entity_names = _decode_fields(buf, starts[:, ::2][entity_first], ends[:, ::2][entity_first])
    relation_names = _decode_fields(buf, starts[relation_first, 1], ends[relation_first, 1])
    del buf, windows, starts, ends, lengths
    entity_ids = entity_ids.reshape(-1, 2)
    return (np.column_stack([entity_ids[:, 0], relation_ids, entity_ids[:, 1]]),
            entity_names, relation_names)


def build_store(train: Sequence[RawTriple], valid: Sequence[RawTriple],
                test: Sequence[RawTriple]) -> TripleStore:
    """Assign vocabularies and build the filter and type-constraint indices.

    Each split is a RawSplit or a sequence of ``(head, relation, tail)`` name
    triples. Duplicate triples within a split are kept (they weight training)
    but the filter set is deduplicated.

    When the splits hold at least ``_TRIM_BYTES`` (1 MiB) of text, the
    allocator's free pages are returned to the OS once the store is built,
    through glibc's ``malloc_trim(0)``. Otherwise the heap that the scratch
    of `_id_rows` and the key sorts freed stays resident, and every later
    peak carries it: with `load_dataset`, whose split bytes and offsets are
    freed before the trim too, about 23 MB on the WN18RR-size graph. Where
    the C library has no ``malloc_trim`` (musl, macOS, Windows) nothing is
    returned. The store is the same either way.
    """
    return _build_store([train, valid, test])


def _build_store(splits: list) -> TripleStore:
    """`build_store` of the three `splits`. It empties the list once their
    ids are made, so that splits only the list holds, as `load_dataset`'s
    are, are freed before the trim."""
    splits[:] = [_as_raw_split(split) for split in splits]
    text_bytes = sum(len(split.data) for split in splits)
    bounds = np.cumsum([len(split) for split in splits])[:-1]
    rows, entity_names, relation_names = _id_rows(splits)
    splits.clear()
    train_arr, valid_arr, test_arr = np.split(rows, bounds)
    n, m = len(entity_names), len(relation_names)
    h, r, t = rows.T

    store = TripleStore(
        train=train_arr,
        valid=valid_arr,
        test=test_arr,
        entity_names=entity_names,
        relation_names=relation_names,
        tail_keys=_sorted_unique((h * m + r) * n + t),
        head_keys=_sorted_unique((t * m + r) * n + h),
        type_head_keys=_sorted_unique(train_arr[:, 1] * n + train_arr[:, 0]),
        type_tail_keys=_sorted_unique(train_arr[:, 1] * n + train_arr[:, 2]),
    )
    if _malloc_trim is not None and text_bytes >= _TRIM_BYTES:
        _malloc_trim(0)
    return store


def load_dataset(train_path, valid_path, test_path) -> TripleStore:
    """Load the three split files and build the store."""
    return _build_store([load_split(path) for path in (train_path, valid_path, test_path)])

