"""Compiler-side benchmark: how fast is the transformation itself?

The paper's tool is a source-to-source compiler pass; its cost matters
for build-time integration, and the ``prepush`` pass pipeline runs on
every PreparedApp/sweep transform.  These benchmarks time it — parse →
interchange → plan → commgen/indirect-elim → unparse — plus the
opportunity detection it starts from.  Each workload's compile time
goes into ``extra_info`` so CI's ``BENCH_pipeline.json`` artifact
records the per-app numbers.  (The pipeline's output is pinned by the
golden parity suite, ``tests/transform/test_pipeline.py``.)

``smoke`` benchmarks: they finish in seconds and run in CI's
``--benchmark-smoke`` job.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.apps import build_app
from repro.transform import TransformOptions
from repro.transform.pipeline import get_variant

pytestmark = pytest.mark.smoke

#: One representative geometry per transformation shape.
APPS = (
    ("fft", {"n": 128, "nranks": 8, "steps": 1, "stages": 6}),
    ("figure2", {"n": 4096, "nranks": 8, "steps": 1, "stages": 6}),
    ("indirect", {"n": 32, "nranks": 8, "stages": 6}),
    ("nodeloop", {"n": 96, "nranks": 8, "steps": 1, "stages": 6}),
)


def test_pipeline_compile_speed(benchmark):
    apps = [build_app(name, **kwargs) for name, kwargs in APPS]
    pipeline = get_variant("prepush")

    def compile_all():
        return [
            pipeline.run(app.source, oracle=app.oracle) for app in apps
        ]

    reports = benchmark(compile_all)
    assert all(report.transformed for report in reports)

    # per-app compile time for the BENCH_pipeline.json trajectory
    for app in apps:
        t0 = perf_counter()
        pipeline.run(app.source, oracle=app.oracle)
        benchmark.extra_info[f"compile_{app.name}_s"] = round(
            perf_counter() - t0, 5
        )
    benchmark.extra_info["apps"] = len(apps)


def test_transform_pipeline_speed(benchmark):
    """Text in, text out on the FFT workload, without the per-pass
    snapshots (what the CLI ``transform`` verb runs)."""
    app = build_app("fft", n=128, nranks=8, steps=1, stages=6)
    pipeline = get_variant("prepush")
    options = TransformOptions(tile_size=16)

    def transform():
        return pipeline.run(app.source, options, snapshots=False).unparse()

    out = benchmark(transform)
    assert "mpi_isend" in out


def test_detection_speed(benchmark):
    from repro.analysis.patterns import find_opportunities
    from repro.lang import parse

    app = build_app("indirect", n=32, nranks=8, stages=6)
    ast = parse(app.source)

    result = benchmark(find_opportunities, ast)
    assert len(result.opportunities) == 1
