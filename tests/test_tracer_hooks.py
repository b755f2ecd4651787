"""The benchmark tracer finds every package function it hooks.

A renamed hook target would otherwise show up only as ``trace.missing_hooks``
in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import quatkge

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_tracer_installs_every_hook():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    fit = quatkge.train.fit
    tracer = tracing.Tracer()
    tracer.install(quatkge)
    try:
        assert tracer.missing == []
    finally:
        tracer.remove()
    assert quatkge.train.fit is fit
