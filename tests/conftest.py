import threading
import time
import tracemalloc

import numpy as np
import pytest

from quatkge.data import build_store
from quatkge.model import init_embeddings
from quatkge.synthetic import planted_graph
from quatkge.train import TrainConfig, fit

# Hyperparameters of the planted end-to-end run shared by the training and
# acceptance tests: 200 entities, four patterned relations, 90/5/5 split.
PLANTED_SEED = 11
PLANTED_TRAIN_SEED = 42
PLANTED_CONFIG = dict(k=50, margin=1.0, lr=0.02, neg_rate=5, batch_size=10,
                      epochs=2000, seed=PLANTED_TRAIN_SEED, eval_every=20,
                      patience=5)


@pytest.fixture(autouse=True)
def no_worker_left():
    """Fail every test after which a thread of the package is still alive:
    every call that starts workers joins them before it returns or raises."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("quatkge-")]
    assert not left, f"worker threads still alive after the test: {left}"


@pytest.fixture(scope="session")
def planted():
    return planted_graph(n_entities=200, sym_pairs=200, seed=PLANTED_SEED)


@pytest.fixture(scope="session")
def planted_store(planted):
    return build_store(planted.train, planted.valid, planted.test)


@pytest.fixture(scope="session")
def planted_config():
    return TrainConfig(**PLANTED_CONFIG)


@pytest.fixture(scope="session")
def planted_result(planted_store, planted_config):
    """One full training run on the planted graph (the expensive fixture)."""
    start = time.perf_counter()
    result = fit(planted_store, planted_config)
    result.wall_seconds = time.perf_counter() - start
    return result


def make_store(raw_train, raw_valid=(), raw_test=()):
    return build_store(list(raw_train), list(raw_valid), list(raw_test))


@pytest.fixture
def tiny_store():
    """Five entities, two relations, a handful of triples in every split."""
    train = [("a", "r1", "b"), ("b", "r1", "c"), ("c", "r2", "d"),
             ("d", "r2", "e"), ("a", "r2", "c")]
    valid = [("b", "r1", "d")]
    test = [("a", "r1", "c")]
    return make_store(train, valid, test)


def wide_store(n_entities, n_train=40, n_valid=5):
    """A store of at least `n_entities` entities whose train split names only
    the first n_train + 1: a chain e0 -> e1 -> ... over two relations. The
    valid split links chain entities; the test split names the rest, two
    entities per triple."""
    train = [(f"e{i}", f"r{i % 2}", f"e{i + 1}") for i in range(n_train)]
    valid = [(f"e{i}", "r0", f"e{i + 2}") for i in range(n_valid)]
    test = [(f"x{i}", "r1", f"x{i + 1}") for i in range(0, n_entities - n_train - 1, 2)]
    return make_store(train, valid, test)


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc traces during `call()` above what it
    traced before the call. tracemalloc sees numpy's data buffers."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def random_store(rng, n_entities=20, n_relations=3, n_train=30, n_valid=10,
                 n_test=10):
    """Random store with unique triples spread over the three splits."""
    seen = set()
    triples = []
    while len(triples) < n_train + n_valid + n_test:
        h = int(rng.integers(n_entities))
        r = int(rng.integers(n_relations))
        t = int(rng.integers(n_entities))
        if h == t or (h, r, t) in seen:
            continue
        seen.add((h, r, t))
        triples.append((f"e{h}", f"r{r}", f"e{t}"))
    return make_store(triples[:n_train],
                      triples[n_train:n_train + n_valid],
                      triples[n_train + n_valid:])


@pytest.fixture
def fixture50():
    """The 50-triple, 20-entity ranking fixture plus a random table."""
    rng = np.random.default_rng(7)
    store = random_store(rng)
    table = init_embeddings(store.n_entities, store.n_relations, k=6, seed=13)
    return store, table
