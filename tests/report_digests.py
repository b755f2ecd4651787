"""Digests of the reports of a short pipeline shaped like the README demo.

    PYTHONPATH=src python3 tests/report_digests.py

rewrites ``tests/report_digests.json``, which ``test_report_digests.py``
checks. The pipeline generates the planted 200-entity graph (seed 11), prints
its stats, trains briefly, ranks the test split raw and filtered with type
constraints off and on for every scorer, classifies the test triples, and
inspects and property-checks the checkpoint. Two more short trains cover the
pointwise loss and, type-constrained, the l1/l2 penalties. A 10,003-row,
k = 16 table drawn by ``init_embeddings`` and its checkpoint cover
initialization and checkpoint writing at a size that spans several of their
chunks. Each keyvalue report, each checkpoint and the drawn table's bytes
are recorded by their sha256.

Training rounding follows numpy's SIMD dispatch and ranking follows the BLAS
kernel, so the digests are stored with the platform that made them: the
numpy version, the BLAS library and the CPU features numpy detected.
Regenerate them, and list the moved fields in CHANGES.md, only when a change
is meant to move an output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from quatkge import cli
from quatkge.model import SCORERS, init_embeddings, save_checkpoint
from quatkge.synthetic import planted_graph

DIGESTS = Path(__file__).with_name("report_digests.json")

TRAIN_FLAGS = ["--k", "16", "--margin", "1", "--lr", "0.02", "--neg", "5",
               "--batch", "10", "--epochs", "12", "--eval-every", "4",
               "--patience", "5", "--seed", "42"]


def platform() -> dict:
    """What the digests depend on besides the source."""
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_configuration": blas.get("openblas configuration", ""),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"quatkge {' '.join(argv)} exited {code}")


def run_pipeline(work: Path) -> dict[str, str]:
    """sha256 of every keyvalue report, checkpoint and drawn table, keyed by path."""
    splits = planted_graph(n_entities=200, sym_pairs=200, seed=11).write(work / "demo")
    data = [arg for flag, path in zip(("--train", "--valid", "--test"), splits)
            for arg in (flag, str(path))]
    run = work / "run"
    _run("stats", *data, "--out", str(run / "stats"))
    _run("train", *data, *TRAIN_FLAGS, "--out", str(run))
    _run("train", *data, *TRAIN_FLAGS, "--epochs", "4", "--loss-form", "pointwise",
         "--out", str(run / "train_pointwise"))
    _run("train", *data, *TRAIN_FLAGS, "--epochs", "4", "--type-constraints", "on",
         "--l1", "0.05", "--l2", "0.05", "--out", str(run / "train_penalized"))
    checkpoint = ["--checkpoint", str(run / "checkpoint.bin")]
    _run("inspect", *checkpoint, "--out", str(run / "inspect"))
    _run("properties", "--trials", "50", "--dim", "16", "--seed", "0", "--pairs", "50",
         *checkpoint, *data, "--out", str(run / "properties"))
    for scorer in SCORERS:
        for constraint in ("off", "on"):
            _run("eval", *checkpoint, *data, "--scorer", scorer,
                 "--type-constraints", constraint,
                 "--out", str(run / f"eval_{scorer}_{constraint}"))
    _run("classify", *checkpoint, *data, "--seed", "0", "--out", str(run / "classify"))
    table = init_embeddings(10_000, 3, 16, seed=5)
    (run / "chunk_scale").mkdir()
    (run / "chunk_scale" / "init_params.bin").write_bytes(table.params.astype("<f8").tobytes())
    save_checkpoint(table, run / "chunk_scale" / "checkpoint.bin")
    outputs = sorted(run.rglob("*.keyvalue")) + sorted(run.rglob("*.bin"))
    return {path.relative_to(run).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in outputs}


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        digests = run_pipeline(Path(work))
    DIGESTS.write_text(json.dumps({"platform": platform(), "digests": digests},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
