"""The benchmark tracer finds every package function it hooks, and its
training hooks read what those functions take and return.

A renamed hook target, or a hook that raises on a changed argument or
result, would otherwise show up only as ``trace.missing_hooks`` in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import quatkge

from conftest import random_store

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def new_tracer():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_installs_every_hook():
    fit = quatkge.train.fit
    tracer = new_tracer()
    tracer.install(quatkge)
    try:
        assert tracer.missing == []
    finally:
        tracer.remove()
    assert quatkge.train.fit is fit


def test_training_hooks_run_cleanly():
    # eval_every=0: no validation, so only the training hooks run.
    store = random_store(np.random.default_rng(5), n_entities=12, n_train=25,
                         n_valid=5, n_test=5)
    config = quatkge.TrainConfig(k=4, epochs=2, batch_size=7, neg_rate=2, eval_every=0)
    tracer = new_tracer()
    tracer.install(quatkge)
    try:
        quatkge.train.fit(store, config)
    finally:
        tracer.remove()
    assert tracer.missing == []
    rows = tracer.counts["train.adagrad_step.rows"]
    assert rows > 0 and rows == tracer.counts["train.aggregate.rows_out"]
