"""One benchmark workload, run in a process of its own.

    python3 benchmarks/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --inputs DIR --result FILE

``run.py`` starts it after the inputs are written and with the checkout's
``src`` on PYTHONPATH. It sets up, runs whole rounds of the workload through
the package's public entry points until --seconds have been measured, takes
the peak resident memory, then checks every output against ``reference``
and writes the result as JSON to FILE. With --trace 1 it runs a set-up and
a round untraced, then traced, then untraced again, and reports the
per-layer figures of the traced pair instead.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import reference as ref
from tracing import Tracer

import quatkge
from quatkge import data, evaluation, model, train

# Criterion 7's planted run with a fixed epoch budget: patience exceeds the
# number of validations, so early stopping cannot fire and every run does the
# same work. Validation MRR is above 0.85 from epoch 20 on for every graph
# seed tried, so 40 epochs leave the quality checks a margin.
PLANTED_EPOCHS = 40
PLANTED_CONFIG = dict(k=50, margin=1.0, lr=0.02, neg_rate=5, batch_size=10,
                      epochs=PLANTED_EPOCHS, seed=42, eval_every=20,
                      patience=PLANTED_EPOCHS // 20 + 1)
# The README's WN18RR settings; one epoch over a split sized to --seconds.
WN_TRAIN_CONFIG = dict(k=inputs.WN_K, margin=1.0, lr=0.02, neg_rate=10, batch_size=10,
                       epochs=1, seed=0, constraint_mode="type_constrained",
                       eval_every=0)

# Set-up samples per run (setup_s is their median) and ranking passes per
# round. The samples are spread over the run: sample i (from 0) is taken as
# soon as i/SETUP_REPS of --seconds has been measured, so that they see the
# same stretches of host speed as the rounds do. A sample repeats the set-up
# until SETUP_SAMPLE_S have passed and takes the mean per set-up:
# planted-fit's ~10 ms set-up is too short to time alone. planted-fit ranks
# 200 queries in 10-20 ms a pass while the host's speed moves by a third from
# one second to the next, so its ranking rate needs seconds of passes: 300
# time about 8 s a run (50 timed ~1 s and spread up to 34% between runs) and
# keep ranking under half of the round.
SETUP_REPS = 3
SETUP_SAMPLE_S = 1.0
PASSES = {"planted-fit": 300, "wn18rr-size-eval": 1, "wn18rr-size-train": 2}
MODES = ("raw", "filtered")

STEPS, QUERIES, WRITES = "training steps", "ranking queries", "checkpoint writes"


@dataclass
class Ledger:
    """Operations attempted and failed, by kind, plus what failed and why."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def add(self, kind: str, n: int, problems: list[str]) -> None:
        self.attempted[kind] += n
        if problems:
            self.failed[kind] += n
            self.problems.extend(problems)


@dataclass
class Pass:
    reports: dict
    seconds: float
    queries: int


@dataclass
class Round:
    seconds: float
    passes: list[Pass]
    fit_s: float = 0.0
    result: object = None
    digest: str = ""


def table_digest(table) -> str:
    digest = hashlib.sha256()
    for block in (table.entities, table.relations):
        digest.update(np.ascontiguousarray(block).data)
    return digest.hexdigest()


def read_raw(directory: Path):
    return [data.load_split(directory / f"{name}.txt") for name in ("train", "valid", "test")]


def rank_pass(table, store, constraint: bool) -> Pass:
    start = time.perf_counter()
    reports = {mode: evaluation.link_prediction(table, store, mode=mode,
                                                constraint=constraint)
               for mode in MODES}
    seconds = time.perf_counter() - start
    return Pass(reports, seconds, sum(r.count for r in reports.values()))


class Workload:
    """Set-up, one round, and the checks of one workload."""

    constraint = False

    def __init__(self, name: str, seed: int, seconds: int, directory: Path):
        self.name, self.seed, self.seconds, self.dir = name, seed, seconds, directory
        self.paths = tuple(directory / f"{s}.txt" for s in ("train", "valid", "test"))
        self.store = None
        self.table = None

    def setup(self) -> float:
        self.store = None
        gc.collect()
        start = time.perf_counter()
        self.store = data.load_dataset(*self.paths)
        return time.perf_counter() - start

    def round(self) -> Round:
        raise NotImplementedError

    def passes(self, table) -> list[Pass]:
        return [rank_pass(table, self.store, self.constraint)
                for _ in range(PASSES[self.name])]

    # -- checks ----------------------------------------------------------------
    def graph(self) -> ref.Graph:
        graph = ref.Graph(*read_raw(self.dir))
        if (graph.entity_names != self.store.entity_names
                or graph.relation_names != self.store.relation_names):
            raise AssertionError("store vocabulary differs from first-appearance order")
        return graph

    def check_passes(self, ledger: Ledger, passes: list[Pass], expected: dict) -> None:
        for p in passes:
            problems = []
            for mode, report in p.reports.items():
                problems += [f"{mode} ranking: {msg}" for msg in expected[mode].compare(
                    report.mr, report.mrr, report.hits, report.count,
                    report.gold_reinserted)]
            ledger.add(QUERIES, p.queries, problems)

    def check(self, ledger: Ledger, rounds: list[Round], graph: ref.Graph) -> dict:
        raise NotImplementedError


class TrainingWorkload(Workload):
    config: dict = {}

    def train_config(self) -> "train.TrainConfig":
        return train.TrainConfig(**self.config)

    def round(self) -> Round:
        # Only the latest round keeps its table, so that peak memory does not
        # grow with the number of rounds that fit in --seconds.
        if self.table is not None:
            self.table = self.last.result.table = None
            gc.collect()
        start = time.perf_counter()
        result = train.fit(self.store, self.train_config(),
                           checkpoint_path=self.dir / "fit.bin")
        fit_s = time.perf_counter() - start
        passes = self.passes(result.table)
        self.last = rnd = Round(time.perf_counter() - start, passes, fit_s, result)
        self.table = result.table
        rnd.digest = table_digest(result.table)
        return rnd

    def steps(self, result) -> int:
        epochs = result.log[-1]["epoch"] if result.log else 0
        return epochs * math.ceil(self.store.train.shape[0] / self.config["batch_size"])

    def check_fit(self, ledger: Ledger, rounds: list[Round], graph: ref.Graph,
                  extra) -> dict:
        """Checks shared by the training workloads; `extra` adds fit problems."""
        config = self.train_config()
        table = rounds[-1].result.table     # every round must reproduce it
        expected_ranks = ref.rank_split(graph, table.entities, table.relations,
                                        graph.test, MODES, self.constraint)
        finite = bool(np.all(np.isfinite(table.entities))
                      and np.all(np.isfinite(table.relations)))
        written = (self.dir / "fit.bin").read_bytes()
        documented = inputs.checkpoint_bytes(table.entities, table.relations, table.seed,
                                             config.config_hash())
        for rnd in rounds:
            problems = [] if finite else ["returned table is not finite"]
            if rnd.digest != rounds[-1].digest:
                problems.append("fit is not deterministic across rounds")
            ledger.add(STEPS, self.steps(rnd.result), problems + extra(rnd))
            ledger.add(WRITES, 1, [] if written == documented else
                       ["checkpoint bytes differ from the documented format"])
            self.check_passes(ledger, rnd.passes, expected_ranks)
        return {f"reference_{mode}_mrr": r.mrr() for mode, r in expected_ranks.items()}


class PlantedFit(TrainingWorkload):
    config = PLANTED_CONFIG

    def check(self, ledger, rounds, graph):
        sym, anti = graph.relation_names.index("sym"), graph.relation_names.index("antisym")
        facts = {}

        def quality(rnd: Round) -> list[str]:
            table = rounds[-1].result.table
            report = rnd.passes[0].reports["filtered"]
            sym_energy = ref.imaginary_energy(table.relations[sym])
            anti_energy = ref.imaginary_energy(table.relations[anti])
            facts.update({"test_filtered_hits@10": report.hits[10],
                          "test_filtered_mrr": report.mrr, "sym_energy": sym_energy,
                          "antisym_energy": anti_energy,
                          "best_epoch": rnd.result.best_epoch})
            problems = []
            if not (report.hits[10] >= 0.90 and report.mrr >= 0.60):
                problems.append(f"test filtered Hits@10 {report.hits[10]:.3f} (>= 0.90) "
                                f"and MRR {report.mrr:.3f} (>= 0.60) not both met")
            if not (sym_energy < 0.10 <= anti_energy):
                problems.append(f"imaginary energy sym {sym_energy:.3f} (< 0.10), "
                                f"antisym {anti_energy:.3f} (>= 0.10)")
            return problems

        facts.update(self.check_fit(ledger, rounds, graph, quality))
        return facts


class WnTrain(TrainingWorkload):
    config = WN_TRAIN_CONFIG
    constraint = True

    def check(self, ledger, rounds, graph):
        table = rounds[-1].result.table
        initial = quatkge.init_embeddings(self.store.n_entities, self.store.n_relations,
                                          self.config["k"], self.config["seed"])
        negatives = ref.seeded_negatives(graph, graph.train, self.seed, constraint=True)
        margin = self.config["margin"]
        before = ref.margin_loss(initial.entities, initial.relations, graph.train,
                                 negatives, margin)
        after = ref.margin_loss(table.entities, table.relations, graph.train,
                                negatives, margin)
        problems = ([] if after < before else
                    [f"training margin loss did not fall: {before:.4f} -> {after:.4f}"])
        facts = self.check_fit(ledger, rounds, graph, lambda rnd: problems)
        facts.update({"loss_before": before, "loss_after": after})
        return facts


class WnEval(Workload):
    constraint = True

    def setup(self) -> float:
        self.store = self.table = None
        gc.collect()
        start = time.perf_counter()
        self.store = data.load_dataset(*self.paths)
        self.table, _ = model.load_checkpoint(self.dir / "checkpoint.bin")
        return time.perf_counter() - start

    def round(self) -> Round:
        start = time.perf_counter()
        passes = self.passes(self.table)
        return Round(time.perf_counter() - start, passes)

    def check(self, ledger, rounds, graph):
        _, entities, relations = inputs.read_checkpoint(
            (self.dir / "checkpoint.bin").read_bytes())
        if not (np.array_equal(entities, self.table.entities)
                and np.array_equal(relations, self.table.relations)):
            raise AssertionError("load_checkpoint returned other values than were written")
        expected = ref.rank_split(graph, entities, relations, graph.test, MODES,
                                  self.constraint)
        for rnd in rounds:
            self.check_passes(ledger, rnd.passes, expected)
        return {"reference_filtered_mr": expected["filtered"].mr(),
                "gold_reinserted": expected["filtered"].gold_reinserted}


WORKLOADS = {"planted-fit": PlantedFit, "wn18rr-size-eval": WnEval,
             "wn18rr-size-train": WnTrain}


def planned_ops(work: Workload) -> dict:
    """Operations one round attempts, for counting a round or check that raised."""
    queries = 2 * len(MODES) * work.store.test.shape[0] * PASSES[work.name]
    ops = {QUERIES: queries}
    if isinstance(work, TrainingWorkload):
        ops[STEPS] = work.config["epochs"] * math.ceil(
            work.store.train.shape[0] / work.config["batch_size"])
        ops[WRITES] = 1
    return ops


def blas() -> str:
    """BLAS library, version and the thread count it runs with in this process."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = str(getter())
                break
    return f"{info.get('name')} {info.get('version')}, {threads} threads"


def setup_sample(work: Workload) -> float:
    """Mean seconds per set-up over repeated set-ups lasting SETUP_SAMPLE_S."""
    total, calls = 0.0, 0
    while total < SETUP_SAMPLE_S:
        total += work.setup()
        calls += 1
    return total / calls


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: int, traced: bool, directory: Path) -> dict:
    work = WORKLOADS[name](name, seed, seconds, directory)
    ledger = Ledger()
    rounds: list[Round] = []
    out: dict = {"workload": name, "record": {"blas": blas()}}
    if not traced:
        setups: list[float] = []
        measured = 0.0
        while True:
            # Every threshold lies below --seconds, so all samples are taken
            # by the time the loop ends; the first comes before any round.
            while (len(setups) < SETUP_REPS
                   and measured >= seconds * len(setups) / SETUP_REPS):
                setups.append(setup_sample(work))
            if measured >= seconds:
                break
            try:
                rnd = work.round()
            except Exception:
                for kind, n in planned_ops(work).items():
                    ledger.add(kind, n, [f"round raised:\n{traceback.format_exc()}"])
                break
            rounds.append(rnd)
            measured += rnd.seconds
        peak = peak_rss_mb()
        passes = [p for rnd in rounds for p in rnd.passes]
        if rounds:
            out["metrics"] = {
                "setup_s": statistics.median(setups),
                # Totals, not medians: on a shared host whole stretches of a
                # run are fast or slow, and a median over rounds jumps between
                # the two modes where the totals move with the mix.
                "round_s": sum(r.seconds for r in rounds) / len(rounds),
                "eval_queries_per_s": (sum(p.queries for p in passes)
                                       / sum(p.seconds for p in passes)),
                "peak_rss_mb": peak,
            }
        out["record"].update({"setup_samples": len(setups), "rounds": len(rounds),
                              "ranking_passes": len(passes)})
        if rounds and isinstance(work, TrainingWorkload):
            fit_s = statistics.median(r.fit_s for r in rounds)
            epochs = rounds[0].result.log[-1]["epoch"] if rounds[0].result.log else 0
            out["record"].update({
                "fit_s": fit_s,
                "train_triples_per_s": epochs * work.store.train.shape[0] / fit_s})
    else:
        graph_names = ref.Graph(*read_raw(directory)).true_names
        tracer = Tracer(is_true_named=lambda triple: triple in graph_names)

        def set_up_and_round() -> float:
            start = time.perf_counter()
            work.setup()
            rounds.append(work.round())
            return time.perf_counter() - start

        # Untraced before and after the traced pair, so that warm-up and
        # drift fall on both sides of the overhead.
        plain = set_up_and_round()
        tracer.install(quatkge)
        try:
            traced_s = set_up_and_round()
        finally:
            tracer.remove()
        plain = (plain + set_up_and_round()) / 2
        metrics = tracer.metrics(overhead_s=traced_s - plain)
        out["metrics"] = metrics
        out["missing_hooks"] = tracer.missing
        out["spans"] = tracer.spans
        if metrics["train.sample_negatives.true_triples_returned"] > \
                metrics["train.sample_negatives.attempt_bound_hits"]:
            ledger.problems.append("sample_negatives returned true triples without "
                                   "hitting the attempt bound")
    if rounds:
        try:
            out["facts"] = work.check(ledger, rounds, work.graph())
        except Exception:
            problem = f"check raised:\n{traceback.format_exc()}"
            ledger = Ledger()
            for _ in rounds:
                for kind, n in planned_ops(work).items():
                    ledger.add(kind, n, [problem])
    out["attempted"] = dict(ledger.attempted)
    out["failed"] = dict(ledger.failed)
    out["problems"] = list(dict.fromkeys(ledger.problems))
    out["sizes"] = work.store.stats() if work.store is not None else {}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.inputs)
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
