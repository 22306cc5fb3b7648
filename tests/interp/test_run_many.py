"""The batch runner: RunBatch mode surfacing and the fallback paths.

The serial fallback used to be silent — a sandbox without working
multiprocessing would quietly run a "parallel" sweep in-process.  These
tests pin that every path reports how it actually executed.
"""

import pytest

from repro.api import Session
from repro.apps import build_app
from repro.interp.runner import ClusterJob, RunBatch, run_many


def make_jobs(count=2, nranks=2):
    app = build_app("fft", n=8, nranks=nranks, steps=1, stages=1)
    return [
        ClusterJob(program=app.source, nranks=nranks, network="gmnet")
        for _ in range(count)
    ]


class _FakePool:
    """Executor stand-in that maps in-process.

    Lets the pool bookkeeping path run deterministically even in
    sandboxes where real multiprocessing is unavailable.
    """

    def __init__(self, max_workers=None):
        self._max_workers = max_workers

    def map(self, fn, items):
        return [fn(item) for item in items]


class _BrokenPool(_FakePool):
    def map(self, fn, items):
        raise OSError("no process support in this sandbox")


class TestRunManyModes:
    def test_no_pool_requested(self):
        batch = run_many(make_jobs())
        assert isinstance(batch, RunBatch)
        assert batch.mode == "serial"
        assert batch.reason == "no pool requested"
        assert batch.processes == 1
        assert len(batch) == 2

    def test_single_job_stays_serial(self):
        batch = run_many(make_jobs(count=1), executor=_FakePool(8))
        assert batch.mode == "serial"
        assert "too small" in batch.reason

    def test_unpicklable_jobs_fall_back(self):
        app = build_app("indirect-external", n=4, nranks=2, stages=1)
        jobs = [
            ClusterJob(
                program=app.source, nranks=2, externals=app.externals
            )
            for _ in range(2)
        ]
        batch = run_many(jobs, executor=_FakePool(4))
        assert batch.mode == "serial"
        assert "not picklable" in batch.reason

    def test_pool_mode_reported(self):
        batch = run_many(make_jobs(count=3), executor=_FakePool(2))
        assert batch.mode == "pool"
        assert batch.reason == ""
        assert batch.processes == 2  # min(workers, len(jobs))
        assert len(batch) == 3

    def test_broken_pool_falls_back_with_reason(self):
        batch = run_many(make_jobs(), executor=_BrokenPool(2))
        assert batch.mode == "serial"
        assert "pool unavailable" in batch.reason
        assert len(batch) == 2

    def test_pool_and_serial_results_identical(self):
        """Both paths must return the same results in the same order —
        the §3.2 determinism argument the sweep cache is built on."""
        jobs = make_jobs(count=3)
        serial = run_many(jobs)
        pooled = run_many(jobs, executor=_FakePool(2))
        assert pooled.mode == "pool"
        for a, b in zip(serial, pooled):
            assert a.result.time == b.result.time
            assert a.result.rank_times == b.result.rank_times
            assert a.result.stats == b.result.stats

    def test_real_pool_is_left_running(self):
        """A live pool maps the batch and stays usable afterwards: the
        owner (a Session) reuses it across batches."""
        with Session(jobs=2) as session:
            pool = session.pool()
            if pool is None:
                pytest.skip("multiprocessing unavailable in this environment")
            jobs = make_jobs(count=2)
            first = run_many(jobs, executor=pool)
            second = run_many(jobs, executor=pool)
        assert first.mode == second.mode == "pool"
        assert first.processes == 2
        for a, b in zip(first, second):
            assert a.result.time == b.result.time
            assert a.result.stats == b.result.stats
