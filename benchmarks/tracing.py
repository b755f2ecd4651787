"""Run-time spans and counters around the package's layer entry points.

The tracer replaces module-level functions (and ``CandidateScorer`` methods)
with timing wrappers while a traced round runs, and puts the originals back
afterwards. Nothing under ``src/`` changes. A hook whose target no longer
exists is recorded as missing; the run goes on without it.

Spans are ``[name, start, end, parent]`` lists (parent is an index into the
span list, -1 at the top) kept in memory and written out by the caller when
the run ends.
"""

from __future__ import annotations

import functools
import logging
import os
import time
from collections import Counter

# (metric name, unit). The order is the order of BENCHMARK.json's per_layer.
PER_LAYER = [
    ("quat.hamilton.s", "s"), ("quat.hamilton.calls", "count"),
    ("data.load_split.s", "s"), ("data.build_store.s", "s"),
    ("model.load_checkpoint.s", "s"),
    ("model.init_embeddings.s", "s"), ("model.save_checkpoint.s", "s"),
    ("model.save_checkpoint.bytes", "B"),
    ("model.sweep.s", "s"), ("model.sweep.calls", "count"),
    ("model.sweep.ms_per_query", "ms"), ("model.scorer_init.s", "s"),
    ("train.sample_negatives.s", "s"), ("train.sample_negatives.calls", "count"),
    ("train.sample_negatives.attempt_bound_hits", "count"),
    ("train.sample_negatives.true_triples_returned", "count"),
    ("train.forward.s", "s"), ("train.backward.s", "s"), ("train.aggregate.s", "s"),
    ("train.aggregate.rows_in", "count"), ("train.aggregate.rows_out", "count"),
    ("train.loss_and_grads.s", "s"),
    ("train.adagrad_step.s", "s"), ("train.adagrad_step.rows", "count"),
    ("train.steps", "count"), ("train.step_ms", "ms"),
    ("train.hinge.active_fraction", "fraction"),
    ("train.validation.s", "s"),
    ("evaluation.candidate_mask.s", "s"), ("evaluation.mean_rank.s", "s"),
    ("evaluation.queries", "count"), ("evaluation.gold_reinserted", "count"),
    ("trace.overhead_s", "s"), ("trace.missing_hooks", "count"),
]


class _AttemptBoundCounter(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        if "attempt bound" in record.getMessage():
            self.counts["train.sample_negatives.attempt_bound_hits"] += 1


class Tracer:
    """Spans and counters for one traced round; install() ... remove()."""

    def __init__(self, is_true_named=None):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._handler = _AttemptBoundCounter(self.counts)
        self._is_true_named = is_true_named

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner, attr: str, span: str | None, after=None) -> None:
        """Time calls of owner.attr as `span` (None: count only) and run `after`."""
        target = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(target)
            return
        spans, stack, missing = self.spans, self._stack, self.missing

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if span is None:
                result = original(*args, **kwargs)
            else:
                index = len(spans)
                spans.append([span, time.perf_counter(), None, stack[-1] if stack else -1])
                stack.append(index)
                try:
                    result = original(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = time.perf_counter()
            if after is not None:
                try:
                    after(args, kwargs, result)
                except Exception:       # the hooked function changed shape
                    if target not in missing:
                        missing.append(target)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self, quatkge) -> None:
        """Wrap the entry point of every measured layer of the package."""
        quat, data, model = quatkge.quat, quatkge.data, quatkge.model
        train, evaluation = quatkge.train, quatkge.evaluation
        count = self.counts
        self.wrap(quat, "hamilton", "quat.hamilton")
        self.wrap(data, "load_split", "data.load_split")
        self.wrap(data, "build_store", "data.build_store")
        self.wrap(model, "load_checkpoint", "model.load_checkpoint")
        # fit resolves these through the train module's own namespace.
        self.wrap(train, "init_embeddings", "model.init_embeddings")
        self.wrap(train, "save_checkpoint", "model.save_checkpoint",
                  after=lambda a, kw, r: count.update(
                      {"model.save_checkpoint.bytes":
                       os.path.getsize(kw.get("path", a[1] if len(a) > 1 else None))}))
        scorer = getattr(model, "CandidateScorer", None)
        if scorer is None:
            self.missing.append("quatkge.model.CandidateScorer")
        else:
            self.wrap(scorer, "__init__", "model.scorer_init")
            self.wrap(scorer, "all_tails", "model.sweep")
            self.wrap(scorer, "all_heads", "model.sweep")
        self.wrap(train, "fit", "train.fit")
        self.wrap(train, "sample_negatives", "train.sample_negatives",
                  after=self._count_negatives)
        self.wrap(train, "_phi_terms", "train.forward")
        self.wrap(train, "_backward", "train.backward")
        self.wrap(train, "_aggregate", "train.aggregate",
                  after=lambda a, kw, r: count.update(
                      {"train.aggregate.rows_in": int(a[0].size),
                       "train.aggregate.rows_out": int(r[0].size)}))
        self.wrap(train, "_loss_and_grads", "train.loss_and_grads")
        self.wrap(train, "_hinge_weights", None,
                  after=lambda a, kw, r: count.update(
                      {"hinge.active": int((r[2] != 0).sum()), "hinge.pairs": int(r[2].size)}))
        self.wrap(train, "adagrad_step", "train.adagrad_step",
                  after=lambda a, kw, r: count.update(
                      {"train.adagrad_step.rows":
                       int(a[2].entity_ids.size + a[2].relation_ids.size)}))
        self.wrap(evaluation, "link_prediction", "evaluation.link_prediction")
        self.wrap(evaluation, "_candidate_mask", "evaluation.candidate_mask",
                  after=lambda a, kw, r: count.update(
                      {"evaluation.queries": 1, "evaluation.gold_reinserted": int(r[1])}))
        self.wrap(evaluation, "_mean_rank", "evaluation.mean_rank")
        logging.getLogger("quatkge.train").addHandler(self._handler)

    def remove(self) -> None:
        logging.getLogger("quatkge.train").removeHandler(self._handler)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _count_negatives(self, args, kwargs, result) -> None:
        store = args[0]
        if self._is_true_named is None:
            return
        ents, rels = store.entity_names, store.relation_names
        self.counts["train.sample_negatives.true_triples_returned"] += sum(
            self._is_true_named((ents[h], rels[r], ents[t])) for h, r, t in result)

    # -- aggregation ---------------------------------------------------------
    def _self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _under(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every PER_LAYER metric; a layer the round did not enter reads 0."""
        own = self._self_times()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        validation = 0.0
        fit_extras = 0.0          # init, validation and snapshots inside fit
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += own[i]
            total_s[name] += end - start
            calls[name] += 1
            if name == "evaluation.link_prediction" and self._under(i, "train.fit"):
                validation += end - start
            if (name in ("model.init_embeddings", "model.save_checkpoint")
                    and self._under(i, "train.fit")):
                fit_extras += end - start
        steps = calls["train.adagrad_step"]
        count = self.counts
        out = {f"{name}.s": self_s[name] for name in (
            "quat.hamilton", "data.load_split", "data.build_store",
            "model.load_checkpoint", "model.init_embeddings", "model.save_checkpoint",
            "model.sweep", "model.scorer_init", "train.sample_negatives",
            "train.forward", "train.backward", "train.aggregate",
            "train.loss_and_grads", "train.adagrad_step",
            "evaluation.candidate_mask", "evaluation.mean_rank")}
        out.update({
            "quat.hamilton.calls": calls["quat.hamilton"],
            "model.save_checkpoint.bytes": count["model.save_checkpoint.bytes"],
            "model.sweep.calls": calls["model.sweep"],
            "model.sweep.ms_per_query": (1000.0 * total_s["model.sweep"] / calls["model.sweep"]
                                         if calls["model.sweep"] else 0.0),
            "train.sample_negatives.calls": calls["train.sample_negatives"],
            "train.sample_negatives.attempt_bound_hits":
                count["train.sample_negatives.attempt_bound_hits"],
            "train.sample_negatives.true_triples_returned":
                count["train.sample_negatives.true_triples_returned"],
            "train.aggregate.rows_in": count["train.aggregate.rows_in"],
            "train.aggregate.rows_out": count["train.aggregate.rows_out"],
            "train.adagrad_step.rows": count["train.adagrad_step.rows"],
            "train.steps": steps,
            "train.step_ms": (1000.0 * (total_s["train.fit"] - validation - fit_extras) / steps
                              if steps else 0.0),
            "train.hinge.active_fraction": (count["hinge.active"] / count["hinge.pairs"]
                                            if count["hinge.pairs"] else 0.0),
            "train.validation.s": validation,
            "evaluation.queries": count["evaluation.queries"],
            "evaluation.gold_reinserted": count["evaluation.gold_reinserted"],
            "trace.overhead_s": overhead_s,
            "trace.missing_hooks": len(self.missing),
        })
        if set(out) != {name for name, _ in PER_LAYER}:
            raise RuntimeError("per-layer metrics and PER_LAYER disagree")
        return out
