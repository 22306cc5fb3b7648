"""Sweep-engine throughput: cold-vs-warm wall time of a cached sweep.

The content-addressed cache (DESIGN.md §7) is only worth its complexity
if a warm re-run is dramatically cheaper than simulating — this
benchmark records both wall times (as ``extra_info``, so the CI
``BENCH_*.json`` artifact tracks the trajectory) and asserts the two
invariants that make the cache *correct* rather than merely fast: the
warm run performs zero simulations and reproduces the cold measurements
bit-identically.

A ``smoke`` benchmark: it finishes in seconds and runs in CI's
``--benchmark-smoke`` job.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.api import Session
from repro.harness.sweep import SweepCache, SweepSpec

pytestmark = pytest.mark.smoke


def _spec() -> SweepSpec:
    return SweepSpec(
        name="bench-sweep",
        app="fft",
        app_kwargs={"n": 24, "steps": 1, "stages": 4},
        nranks=(4,),
        tile_sizes=(2, 4, 8),
        networks=("hostnet", "gmnet", "rdma-100g"),
        verify=True,
    )


def test_sweep_cold_vs_warm(benchmark, tmp_path):
    cache_dir = tmp_path / "sweep-cache"

    t0 = perf_counter()
    cold = Session(cache_dir=SweepCache(cache_dir)).sweep(_spec())
    cold_s = perf_counter() - t0
    assert cold.stats.simulated > 0

    def warm_once():
        cache = SweepCache(cache_dir)
        t0 = perf_counter()
        res = Session(cache_dir=cache).sweep(_spec())
        return perf_counter() - t0, res, cache

    warm_s, warm, warm_cache = benchmark.pedantic(
        warm_once, rounds=3, iterations=1
    )

    # correctness invariants of the §7 cache
    assert warm.stats.simulated == 0
    assert warm_cache.stats.misses == 0
    for a, b in zip(cold.runs, warm.runs):
        assert a.axes == b.axes
        assert a.measurement == b.measurement  # bit-identical

    benchmark.extra_info["sweep_cold_s"] = round(cold_s, 4)
    benchmark.extra_info["sweep_warm_s"] = round(warm_s, 4)
    benchmark.extra_info["sweep_points"] = cold.stats.points
    benchmark.extra_info["warm_speedup"] = round(cold_s / warm_s, 1)
    # a warm run does no simulation work; anything close to the cold
    # time means the cache is being bypassed
    assert warm_s < cold_s
