"""Embedding tables, initialization, scoring functions, and checkpoint format.

A table holds one quaternion vector per entity and per relation in one
component-stacked float64 array of shape ``(N + M, 4, k)``: the N entity rows
first, then the M relation rows, so relation r is row N + r. Relations are
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

``score_triples`` scores a batch of triples and ``CandidateScorer`` scores
every entity for a query or a block of queries; both raise
``ZeroQuaternionError`` rather than return a score computed from non-finite
embeddings.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import quat
from .errors import CheckpointError, ShapeMismatchError, ZeroQuaternionError

SCORERS = ("quate_d", "rotate", "quate_inner")

_MAGIC = b"QKGE"
FORMAT_VERSION = 1
# Bytes of scratch that initialization and checkpoint I/O hold at a time
# beyond the table itself.
_CHUNK_BYTES = 2**20
# Variables that set OpenBLAS's thread count when it loads, by precedence.
# Two ranking threads that each ran a two-thread OpenBLAS product ranked
# about 10% slower than one (N = 40,943, k = 100, 2-vCPU VM).
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Fewest table bytes that checkpoint reads and writes give a span of their
# own: about 3 ms of reading against about 0.1 ms to start and join a thread
# (2-vCPU VM).
_SPAN_BYTES = 2**22


@dataclass
class EmbeddingTable:
    """Entity and relation quaternion embeddings of dimension k."""

    params: np.ndarray  # (N + M, 4, k): entity rows, then relation rows
    n_entities: int
    seed: int

    @property
    def entities(self) -> np.ndarray:
        """(N, 4, k) view of the entity rows."""
        return self.params[:self.n_entities]

    @property
    def relations(self) -> np.ndarray:
        """(M, 4, k) view of the relation rows."""
        return self.params[self.n_entities:]

    @property
    def k(self) -> int:
        return self.params.shape[2]

    @property
    def n_relations(self) -> int:
        return self.params.shape[0] - self.n_entities

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.params.copy(), self.n_entities, self.seed)


def _chunk_rows(row_bytes: int) -> int:
    """Rows of `row_bytes` bytes each that fit in one ``_CHUNK_BYTES`` chunk
    (at least one)."""
    return max(1, _CHUNK_BYTES // row_bytes)


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity set, which ``taskset``
    narrows, where the platform reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS or Windows
        return os.cpu_count() or 1


def _worker_count() -> int:
    """Ranking threads: ``_cpu_count()`` divided by the threads each BLAS
    product runs on.

    BLAS libraries take every CPU unless one of _BLAS_THREAD_VARS limits
    them when they load, so an unlimited BLAS leaves one ranking thread and
    a one-thread BLAS one per CPU.
    """
    cpus = _cpu_count()
    for name in _BLAS_THREAD_VARS:
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


def _over_spans(fn, n: int, spans: int) -> list:
    """``[fn(i, lo, hi) for each span i]``, where the `spans` spans
    [lo, hi) cut range(n) into contiguous runs as equal as whole numbers
    allow (1 <= spans <= n): span 0 on the calling thread and every other
    span as a future of an executor of ``spans - 1`` worker threads, named
    ``quatkge-span_<j>``, so one span starts no thread.

    numpy releases the interpreter lock in the products, ufuncs, einsums,
    copies and random draws the spans run, and a file object in its reads
    and writes, so the threads overlap. The call returns once every worker
    has ended; if a span raised, the exception of the first such span is
    raised then.
    """
    bounds = [n * i // spans for i in range(spans + 1)]
    with ThreadPoolExecutor(max(1, spans - 1), thread_name_prefix="quatkge-span") as pool:
        others = [pool.submit(fn, i, bounds[i], bounds[i + 1]) for i in range(1, spans)]
        first = fn(0, bounds[0], bounds[1])
    return [first] + [future.result() for future in others]


def _streams(rng: np.random.Generator, rows: int, k: int) -> list[np.random.Generator]:
    """Copies of the PCG64 generator `rng` advanced by 0, rows*k and 2*rows*k
    64-bit draws: where the theta, rho and Gaussian draws of a one-shot draw
    of `rows` rows start. ``Generator.uniform`` takes one 64-bit draw per
    value, so theta and rho each span rows*k draws."""
    return [np.random.Generator(copy.deepcopy(rng.bit_generator).advance(offset * rows * k))
            for offset in range(3)]


def _draw_rows(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the (rows, 4, k) array `out` with the scaled polar scheme.

    Per coordinate: magnitude rho uniform in [-1/sqrt(2k), 1/sqrt(2k)], angle
    theta uniform in [-pi, pi], and a uniformly random unit imaginary
    direction; the real part is rho*cos(theta) and the imaginary parts are
    rho*sin(theta) times the direction. The coordinate magnitude is |rho|.

    RNG order: all of theta, then all of rho, then the (rows, 3, k) Gaussian
    directions in C order, all from the PCG64 generator `rng`. The three are
    read through three copies of `rng` that start at those stream offsets
    (``_streams``), one chunk of rows at a time; each draw fills in C order,
    so the chunks continue their streams and the table does not depend on
    the chunk size. `rng` then continues where the Gaussian stream ended, as
    after a one-shot draw.

    The draw runs on two threads: every chunk's theta and rho draw is
    submitted up front to a one-worker executor, which writes rho*cos(theta)
    into plane 0 and rho*sin(theta) into plane 1 chunk by chunk, while the
    calling thread draws each chunk's directions, whose rejection sampling
    fixes no stream offset in advance, waits for that chunk's future, which
    re-raises a worker error, and scales the directions by the sine in plane
    1. On a return or a raise the futures not yet started are cancelled and
    leaving the executor joins its worker. Each value comes from the same
    ufuncs on the same inputs whatever thread or CPU runs them, so the table
    is the same at any CPU count. Beyond `out`, each thread holds only one
    chunk's draws and temporaries.
    """
    rows, _, k = out.shape
    bound = 1.0 / math.sqrt(2.0 * k)
    thetas, rhos, directions = _streams(rng, rows, k)
    step = _chunk_rows(3 * k * 8)
    parts = [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]

    def polar(part: slice) -> None:
        n = part.stop - part.start
        theta = thetas.uniform(-math.pi, math.pi, size=(n, k))
        rho = rhos.uniform(-bound, bound, size=(n, k))
        np.multiply(rho, np.cos(theta), out=out[part, 0, :])
        np.multiply(rho, np.sin(theta), out=out[part, 1, :])

    def unit_directions(part: slice) -> np.ndarray:
        gauss = directions.standard_normal(size=(part.stop - part.start, 3, k))
        norms = np.sqrt(np.einsum("rck,rck->rk", gauss, gauss))
        degenerate = norms <= 1e-12
        if np.any(degenerate):
            gauss[:, 0, :][degenerate] = 1.0
            norms[degenerate] = 1.0
        gauss /= norms[:, None, :]
        return gauss

    def imaginary(part: slice, unit: np.ndarray) -> None:
        # The direction times rho*sin(theta), which plane 1 holds until this
        # write; numpy reads an input that overlaps the output as if it did
        # not.
        np.multiply(unit, out[part, 1:2, :], out=out[part, 1:, :])

    with ThreadPoolExecutor(1, thread_name_prefix="quatkge-span-draw") as worker:
        polars = [worker.submit(polar, part) for part in parts]
        try:
            for part, future in zip(parts, polars):
                unit = unit_directions(part)
                future.result()  # re-raises the worker's error
                imaginary(part, unit)
        finally:
            for future in polars:
                future.cancel()
    # advance() dropped any buffered 32-bit half-draw, which none of the
    # 64-bit draws above would have used, so keep the caller's.
    rng.bit_generator.state = {**rng.bit_generator.state,
                               "state": directions.bit_generator.state["state"]}


def init_embeddings(n_entities: int, n_relations: int, k: int, seed: int) -> EmbeddingTable:
    """Initialize a table; deterministic given seed (entities drawn first).

    Both blocks come from one PCG64 stream in the order ``_draw_rows`` gives,
    read through three stream offsets per block, so init holds the table
    plus a chunk of draws on each of the two threads that draw a block
    (``taskset -c 0`` puts both on one CPU); the table is the same at any
    CPU count.
    """
    if min(n_entities, n_relations, k) < 1:
        raise ValueError("n_entities, n_relations, and k must all be >= 1")
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(np.empty((n_entities + n_relations, 4, k)), n_entities, seed)
    _draw_rows(rng, table.entities)
    _draw_rows(rng, table.relations)
    return table


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
    """Scores every entity in the corrupted position of a block of queries.

    A query is the rotated head h (x) w_hat of a tail query, or the rotated
    tail t (x) conj(w_hat) of a head query: for unit w_hat,
    |e (x) w_hat - t| = |t (x) conj(w_hat) - e| for a candidate head e. Queries
    are compared with entities through a ranking key, lower first, that
    costs one matrix product per column range of the entity table: the key
    |e|^2 - 2<q, e> for the distance scorers (computed as (-2q) @ E.T plus the
    cached |e|^2) and -<q, e> for ``quate_inner``. The key orders candidates
    as the score does up to rounding at the scale |q|^2 + max |e|^2, which is
    why ranking settles near ties with ``score_triples``. A ``rotate`` query
    has zero j and k components, so its products read only the (a, b)
    columns of each table row.

    |e|^2 is computed when a key first reads a row (``_row_norms``) and
    cached, so a call over rows that are all cached norms nothing; a
    non-finite |e|^2 raises ZeroQuaternionError before any key is formed.
    ``keys``, ``gathered_keys`` and ``pair_keys`` return the |e|^2 of the
    rows they read with their keys, and ranking takes its tie band from
    them. The constructor checks the relation rows; ``queries`` checks each
    query.

    ``all_tails`` and ``all_heads`` return the scores themselves: the key over
    the whole table, then, for the distances, plus |q|^2, clipped at 0 and
    square-rooted; a (B, N) float64 array for B queries.
    """

    def __init__(self, table: EmbeddingTable, scorer: str = "quate_d"):
        _check_scorer(scorer)
        if not np.all(np.isfinite(table.relations)):
            raise ZeroQuaternionError("embedding table contains non-finite values")
        self.table = table
        self.scorer = scorer
        # C key columns per row: (a, b) for rotate, all four components else
        self._width = (2 if scorer == "rotate" else 4) * table.k
        # (N, C) view of the entity columns the products read
        self._cols = table.entities.reshape(table.n_entities, -1)[:, :self._width]
        # |e|^2 of each row a key has read; NaN for the others
        self._row_sq = np.full(table.n_entities, np.nan)
        self.key_scale = -1.0 if scorer == "quate_inner" else -2.0

    def _row_norms(self, ids, rows: np.ndarray) -> np.ndarray:
        """|e|^2 of the entity rows `ids`, a slice or an id array, whose key
        columns a product is about to read as `rows`.

        When any of them is not cached yet, all of them are normed from
        `rows` with one einsum, whose sum for each row does not depend on the
        rows beside it, and cached. Norming only the uncached rows would
        copy them out of `rows`: nearly every tile holds a gold that
        ``pair_keys`` cached first, and those copies raised the peak RSS of
        a WN18RR-size ranking pass (N = 40,943, k = 100, two threads) from
        187 to 199 MB. Ranking threads call this on disjoint rows.
        """
        row_sq = self._row_sq[ids]
        if np.isnan(row_sq).any():
            row_sq = np.einsum("nc,nc->n", rows, rows)
            # NaN and inf rows make the maximum non-finite
            if not math.isfinite(row_sq.max()):
                raise ZeroQuaternionError("embedding table contains non-finite values")
            self._row_sq[ids] = row_sq
        return row_sq

    def _rows(self, block: np.ndarray, ids) -> np.ndarray:
        return _planar(block[ids]) if self.scorer == "rotate" else block[ids]

    def _flat(self, rotated: np.ndarray) -> np.ndarray:
        """(..., 4, k) rotated queries as (rows, C) rows of the key's columns."""
        return rotated.reshape(-1, 4 * self.table.k)[:, :self._width]

    def queries(self, rows: np.ndarray) -> np.ndarray:
        """(2B, C) queries of a (B, 3) block: its B tail queries, then its B
        head queries.

        ``[h; t]`` and ``[w_hat; conj(w_hat)]`` are gathered into
        component-major arrays, whose planes are contiguous, and one product
        over their 2B rows writes a third, before the one copy to (2B, C)
        rows. Each row is computed as a product of its own pair would be.
        The three share one allocation: as three at planted size, glibc
        returned the heap top to the OS and faulted it back in on every call,
        which made the build slower than two products.
        """
        b = rows.shape[0]
        h, r, t = rows.T
        x, y, out = np.empty((3, 4, 2 * b, self.table.k)).transpose(0, 2, 1, 3)
        x[:] = self._rows(self.table.entities, np.concatenate([h, t]))
        y[:b] = quat.normalize(self._rows(self.table.relations, r))
        quat.conjugate(y[:b], out=y[b:])
        # inf times a zero would warn; the check below raises instead
        with np.errstate(invalid="ignore", over="ignore"):
            quat.hamilton(x, y, out=out)
        if not np.isfinite(out).all():
            raise ZeroQuaternionError("embedding table contains non-finite values")
        return self._flat(np.ascontiguousarray(out))

    def keys(self, scaled: np.ndarray, lo: int, hi: int,
             out=None) -> tuple[np.ndarray, np.ndarray]:
        """(B, hi - lo) keys of entities lo..hi-1 for queries `scaled`, which
        are the (B, C) queries times ``key_scale``, and their |e|^2."""
        rows = self._cols[lo:hi]
        row_sq = self._row_norms(slice(lo, hi), rows)
        keys = np.matmul(scaled, rows.T, out=out)
        if self.scorer != "quate_inner":
            keys += row_sq
        return keys, row_sq

    def gathered_keys(self, scaled: np.ndarray, ids: np.ndarray, rows: np.ndarray,
                      out=None) -> tuple[np.ndarray, np.ndarray]:
        """(B, len(ids)) keys of entities `ids` for queries `scaled`, and
        their |e|^2; their columns are first gathered into `rows`, a
        (len(ids), C) float64 buffer."""
        # take buffers its result in its default mode, "raise"; the ids are
        # in range, so "clip" copies straight into `rows`
        np.take(self._cols, ids, axis=0, out=rows, mode="clip")
        row_sq = self._row_norms(ids, rows)
        keys = np.matmul(scaled, rows.T, out=out)
        if self.scorer != "quate_inner":
            keys += row_sq
        return keys, row_sq

    def pair_keys(self, scaled: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(B,) key of entity ids[i] for query i of `scaled`, and the |e|^2
        of ids[i]; the key may differ from the same pair's ``keys`` entry in
        the last bits."""
        rows = self._cols[ids]
        row_sq = self._row_norms(ids, rows)
        keys = np.einsum("bc,bc->b", scaled, rows)
        if self.scorer != "quate_inner":
            keys += row_sq
        return keys, row_sq

    def exact(self, triples: np.ndarray) -> np.ndarray:
        """``score_triples`` of (B, 3) triples, negated for ``quate_inner``
        so that lower ranks first, as with the key."""
        scores = score_triples(self.table, triples, self.scorer)
        return scores if lower_is_better(self.scorer) else -scores

    # _scores, all_tails and all_heads stay only because the benchmark's
    # tracer hooks all_tails and all_heads as ``model.sweep`` and
    # tests/test_tracer_hooks.py asserts that the hook installs; ranking
    # does not call them. They go when the tracer times ``keys`` instead.
    def _scores(self, rotated: np.ndarray) -> np.ndarray:
        """Scores of (..., 4, k) rotated queries against every entity: (..., N)."""
        flat = self._flat(rotated)
        scores, _ = self.keys(self.key_scale * flat, 0, self.table.n_entities)
        if self.scorer == "quate_inner":
            np.negative(scores, out=scores)
        else:
            scores += np.einsum("bc,bc->b", flat, flat)[:, None]
            np.clip(scores, 0.0, None, out=scores)
            np.sqrt(scores, out=scores)
        return scores.reshape(rotated.shape[:-2] + (-1,))

    def all_tails(self, h, r) -> np.ndarray:
        """Score (h, r, t) for every t: shape (N,) for ids, (B, N) for id arrays."""
        unit_rel = quat.normalize(self._rows(self.table.relations, r))
        return self._scores(quat.hamilton(self._rows(self.table.entities, h), unit_rel))

    def all_heads(self, r, t) -> np.ndarray:
        """Score (h, r, t) for every h: shape (N,) for ids, (B, N) for id arrays."""
        unit_rel = quat.normalize(self._rows(self.table.relations, r))
        return self._scores(quat.hamilton(self._rows(self.table.entities, t),
                                          quat.conjugate(unit_rel)))


# ---------------------------------------------------------------------------
# Checkpoint format: magic, binary version, canonical JSON metadata, then the
# four component arrays per table (a, b, c, d), entities before relations,
# each row-major by id then coordinate, little-endian float64.
# ---------------------------------------------------------------------------

def save_checkpoint(table: EmbeddingTable, path, config_hash: str = "") -> None:
    """Write `table` with scorer ``quate_d``, the only scorer training implements.

    The bytes go to a temporary file beside `path` that then replaces it, so a
    write that fails or is killed midway leaves an earlier file at `path` as
    it was. The table's rows are written in spans, as ``load_checkpoint``
    reads them (``_write_rows``): one per CPU the process may use and at most
    one per ``_SPAN_BYTES`` of payload, run by ``_over_spans`` a chunk of
    rows at a time, so the write holds one chunk of scratch beyond the
    table. The file is the same for any span count. A chunk that holds a
    non-finite value raises ZeroQuaternionError before `path` is replaced.
    """
    meta = {
        "config_hash": config_hash,
        "format_version": FORMAT_VERSION,
        "k": table.k,
        "n_entities": table.n_entities,
        "n_relations": table.n_relations,
        "scorer": "quate_d",
        "seed": table.seed,
    }
    header = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(struct.pack("<II", FORMAT_VERSION, len(header)))
            handle.write(header)
            _write_rows(handle, temporary, path, table, 12 + len(header))
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise


def _row_spans(table: EmbeddingTable) -> tuple[int, int, list[np.ndarray]]:
    """How ``_write_rows`` and ``_read_rows`` cut the payload of `table`:
    the span count, the rows of a chunk, and one (4, rows, k) ``<f8``
    buffer per span (together one ``_CHUNK_BYTES`` chunk, allocated on the
    calling thread)."""
    rows, _, k = table.params.shape
    row_bytes = 4 * k * 8
    spans = min(_cpu_count(), rows, -(-rows * row_bytes // _SPAN_BYTES))
    step = min(_chunk_rows(spans * row_bytes), -(-rows // spans))
    return spans, step, [np.empty((4, step, k), dtype="<f8") for _ in range(spans)]


def _chunks(table: EmbeddingTable, payload: int, lo: int, hi: int, step: int):
    """The chunks of table rows lo..hi-1 in a checkpoint whose payload
    starts at byte `payload`: for each, its slice of rows, at most `step`
    and all in the entity block or all in the relation block, and the byte
    offset of each of its 4 components' rows. Component c of row `start` of
    the block (first, count) lies 4*first + c*count + start - first rows of
    k values into the payload."""
    row_bytes = table.k * 8
    for first, count in ((0, table.n_entities), (table.n_entities, table.n_relations)):
        end = min(hi, first + count)
        for start in range(max(lo, first), end, step):
            yield (slice(start, min(start + step, end)),
                   [payload + (4 * first + c * count + start - first) * row_bytes
                    for c in range(4)])


def _write_rows(handle, temporary, path, table: EmbeddingTable, payload: int) -> None:
    """Write ``table.params`` as the checkpoint payload that starts at byte
    `payload` of the file `temporary`, open for writing as `handle`, which
    is to replace `path`.

    The mirror of ``_read_rows``: the payload is written as the table's
    N + M rows, cut into the same spans. Span 0 writes through `handle` and
    every other span opens `temporary`. Each span copies a chunk of rows at
    a time into its (4, rows, k) buffer, with one transposed copy, and then
    writes each component's rows where they lie in the file. A chunk that
    holds a non-finite value raises ZeroQuaternionError before it is
    written.
    """
    spans, step, buffers = _row_spans(table)

    def write(span: int, lo: int, hi: int) -> None:
        buffer = buffers[span]
        with contextlib.nullcontext(handle) if span == 0 else open(temporary, "r+b") as sink:
            for rows, offsets in _chunks(table, payload, lo, hi, step):
                part = buffer[:, :rows.stop - rows.start]
                np.copyto(part, table.params[rows].transpose(1, 0, 2))
                if not np.isfinite(part).all():
                    raise ZeroQuaternionError(
                        f"{path}: not written: the table holds a non-finite value")
                for offset, component in zip(offsets, part):
                    sink.seek(offset)
                    sink.write(component.data)

    _over_spans(write, table.params.shape[0], spans)


def _header_int(meta: dict, key: str, minimum: int, path) -> int:
    value = meta.get(key)
    if type(value) is not int or value < minimum:
        raise CheckpointError(
            f"{path}: header field {key!r} must be an integer >= {minimum}, got {value!r}")
    return value


def _read_rows(handle, path, table: EmbeddingTable, payload: int) -> None:
    """Fill ``table.params`` from the checkpoint payload that starts at byte
    `payload` of the open file `handle`, read from `path`.

    The payload is read as the table's N + M rows, cut into spans by
    ``_over_spans``, so a span can cross from the entity block into the
    relation block. Span 0 reads through `handle`; every other span opens
    `path`, which must still be the file `handle` reads, or CheckpointError
    is raised. Each span reads a chunk of rows at a time: the rows of each
    component into a (4, rows, k) buffer, its share of one ``_CHUNK_BYTES``
    chunk, whose rows then go into the table in one contiguous write. A short
    read raises CheckpointError, and a chunk that holds a non-finite value
    ZeroQuaternionError before it is copied.
    """
    spans, step, buffers = _row_spans(table)
    opened = os.fstat(handle.fileno())

    def read(span: int, lo: int, hi: int) -> None:
        buffer = buffers[span]
        with contextlib.nullcontext(handle) if span == 0 else open(path, "rb") as source:
            if not os.path.samestat(os.fstat(source.fileno()), opened):
                raise CheckpointError(f"{path}: the file was replaced while it was read")
            for rows, offsets in _chunks(table, payload, lo, hi, step):
                part = buffer[:, :rows.stop - rows.start]
                for offset, component in zip(offsets, part):
                    source.seek(offset)
                    if source.readinto(component) != component.nbytes:
                        raise CheckpointError(
                            f"{path}: payload ended before its declared size")
                if not np.isfinite(part).all():
                    raise ZeroQuaternionError(f"{path}: the table holds a non-finite value")
                table.params[rows] = part.transpose(1, 0, 2)

    _over_spans(read, table.params.shape[0], spans)


def load_checkpoint(path) -> tuple[EmbeddingTable, dict]:
    """Read a checkpoint; any malformed content raises CheckpointError, and a
    non-finite value ZeroQuaternionError, as ``save_checkpoint`` refuses to
    write one.

    The table is read into one preallocated array in spans of rows, one per
    CPU the process may use (``taskset`` narrows them) and at most one per
    ``_SPAN_BYTES`` of payload, run by ``_over_spans``. The spans read
    a chunk of rows at a time and share one chunk of scratch, so peak memory
    is the table plus one chunk. The table is the same for any span count.
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
        table = EmbeddingTable(np.empty((n + m, 4, k)), n, seed)
        _read_rows(handle, path, table, 12 + header_len)
    return table, meta


def check_table_matches_store(table: EmbeddingTable, n_entities: int,
                              n_relations: int) -> None:
    """Raise ShapeMismatchError when checkpoint and dataset dimensions differ."""
    if table.n_entities != n_entities or table.n_relations != n_relations:
        raise ShapeMismatchError(
            f"checkpoint has {table.n_entities} entities / {table.n_relations} relations, "
            f"dataset has {n_entities} / {n_relations}")
