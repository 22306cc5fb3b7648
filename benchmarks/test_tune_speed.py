"""Tune-driver throughput: evaluations/sec cold vs warm (DESIGN.md §12).

The auto-tuner's pitch is that the content-addressed sweep cache is its
memo table: a warm re-run of the same seeded search replays the whole
trajectory without a single simulation.  This benchmark records both
rates (``extra_info``, so the CI ``bench/`` artifact tracks the
trajectory over time) and asserts the two invariants that make the
search *reproducible* rather than merely fast: the warm run simulates
nothing, and its flag-stripped search fingerprint matches the cold
run's bit-for-bit.  It also counts ``Pipeline.run`` calls
(``pipeline_runs_cold``/``pipeline_runs_warm``): the session's
transform memo means a warm search in the same session transforms
nothing either.

A ``smoke`` benchmark: it finishes in seconds and runs in CI's
``--benchmark-smoke`` job.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.api import Session
from repro.transform.pipeline import Pipeline
from repro.tune import default_space, tune

pytestmark = pytest.mark.smoke

BUDGET = 12
SEED = 7


def _space():
    return default_space(
        "fft",
        app_kwargs={"n": 16, "steps": 1, "stages": 2},
        nranks=(4,),
        tile_sizes=("auto", 4),
    )


def test_tune_cold_vs_warm(benchmark, tmp_path, monkeypatch):
    pipeline_runs = []
    run = Pipeline.run

    def counting_run(self, *args, **kwargs):
        pipeline_runs.append(self.name)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Pipeline, "run", counting_run)
    with Session(cache_dir=tmp_path / "tune-cache") as session:
        t0 = perf_counter()
        cold = tune(
            _space(),
            session=session,
            strategy="hill-climb",
            budget=BUDGET,
            seed=SEED,
        )
        cold_s = perf_counter() - t0
        assert cold.simulations > 0
        runs_cold = len(pipeline_runs)
        del pipeline_runs[:]

        def warm_once():
            t0 = perf_counter()
            res = tune(
                _space(),
                session=session,
                strategy="hill-climb",
                budget=BUDGET,
                seed=SEED,
            )
            return perf_counter() - t0, res

        warm_s, warm = benchmark.pedantic(warm_once, rounds=3, iterations=1)
        runs_warm = len(pipeline_runs)

    # correctness invariants of the cache-as-memo-table contract
    assert warm.simulations == 0
    assert warm.cache_hits == warm.evaluations == cold.evaluations
    assert (
        warm.trajectory.search_fingerprint()
        == cold.trajectory.search_fingerprint()
    )
    assert warm.best_candidate == cold.best_candidate

    benchmark.extra_info["tune_cold_s"] = round(cold_s, 4)
    benchmark.extra_info["tune_warm_s"] = round(warm_s, 4)
    benchmark.extra_info["tune_evaluations"] = cold.evaluations
    benchmark.extra_info["evals_per_s_cold"] = round(
        cold.evaluations / cold_s, 2
    )
    benchmark.extra_info["evals_per_s_warm"] = round(
        warm.evaluations / warm_s, 2
    )
    benchmark.extra_info["warm_speedup"] = round(cold_s / warm_s, 1)
    benchmark.extra_info["pipeline_runs_cold"] = runs_cold
    benchmark.extra_info["pipeline_runs_warm"] = runs_warm
    # a warm search does no simulation work; anything close to the cold
    # time means the memo table is being bypassed
    assert warm_s < cold_s
    # the session's transform memo answers every warm expansion
    assert runs_cold > 0
    assert runs_warm == 0
