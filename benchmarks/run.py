"""The repository's benchmark: one workload, one run, one JSON result line.

    python3 benchmarks/run.py --workload planted-fit --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. It generates the workload's inputs from
--seed in one process, runs the workload on them in another (with the
checkout's ``src`` on PYTHONPATH), prints the run record, and prints as its
last line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Scratch files go
under ``.bench_work/`` in the checkout; the span list of a traced run is kept
there as ``traces/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("planted-fit", "wn18rr-size-eval", "wn18rr-size-train")
# (name, unit); the order of BENCHMARK.json's end_to_end.
END_TO_END = [("setup_s", "s"), ("round_s", "s"),
              ("eval_queries_per_s", "queries/s"), ("peak_rss_mb", "MB")]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run at the benchmark's 15 s must end within 180 s, the first included.
# Longer runs get DEADLINE_PER_EXTRA_S more for each second above 15: the
# measured time itself, and wn18rr-size-train's training split, fit and
# reference checks, which all grow with --seconds.
DEADLINE_S = 170.0
DEADLINE_PER_EXTRA_S = 8.0


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> list[str]:
    import numpy as np

    return [f"commit: {commit()}", f"source digest (src/**/*.py): {source_digest()}",
            f"nproc: {os.cpu_count()}", f"python: {platform.python_version()}",
            f"numpy: {np.__version__}"]


def child(args: list[str], deadline: float) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One BLAS thread. With the default two on the 2-vCPU reference box, a
    # candidate sweep took either ~5 ms or ~16 ms depending on how the kernel
    # placed the BLAS worker after a stretch of single-threaded work, so
    # eval_queries_per_s spread 30-50% between runs; with one thread it
    # reads ~12 ms per sweep and repeats within a few percent.
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    # subprocess.run kills the child and waits for it when the timeout expires.
    subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (SRC / "quatkge" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'quatkge'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = (time.monotonic() + DEADLINE_S
                + DEADLINE_PER_EXTRA_S * max(0, args.seconds - 15))
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    inputs_dir, result_path = work / "inputs", work / "result.json"
    try:
        child([str(HERE / "inputs.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--out", str(inputs_dir)], deadline)
        child([str(HERE / "workloads.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--inputs", str(inputs_dir),
               "--result", str(result_path)], deadline)
        result = json.loads(result_path.read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in environment():
        print(line)
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  "
          f"trace: {args.trace}")
    print(f"inputs: {result['sizes']}")
    for key, value in {**result.get("record", {}), **result.get("facts", {})}.items():
        print(f"{key}: {value}")
    for kind, n in result["attempted"].items():
        print(f"{kind}: {n} attempted, {result['failed'].get(kind, 0)} failed")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        print(f"missing hooks: {result['missing_hooks'] or 'none'}")
        trace_file = ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                          "spans": result["spans"]}))
        print(f"spans: {len(result['spans'])} written to {trace_file.relative_to(ROOT)}")
        from tracing import PER_LAYER
        units = dict(PER_LAYER)
    else:
        units = dict(END_TO_END)
    metrics = result.get("metrics", {})
    print(json.dumps({
        "correct": not result["problems"] and len(metrics) == len(units),
        "attempted": sum(result["attempted"].values()),
        "failed": sum(result["failed"].values()),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
