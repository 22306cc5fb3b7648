"""Engine and interpreter throughput: the substrate's raw speed.

Every figure in this repository is bounded by how fast the
discrete-event engine can process operations and the interpreter can
execute statements.  These benchmarks record both rates (as
``extra_info`` on the pytest-benchmark entries) and assert conservative
floors so a catastrophic fast-path regression fails the suite rather
than silently tripling every other benchmark's runtime.

Both are ``smoke`` benchmarks: they finish in seconds and run in CI's
``--benchmark-smoke`` job.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from repro.interp.runner import run_serial
from repro.runtime import Compute, Engine, Irecv, Isend, Wait

pytestmark = pytest.mark.smoke

NRANKS = 4
ROUNDS = 400
COMPUTES_PER_ROUND = 40


def _ring_programs():
    """A ring exchange interleaved with many small Compute yields.

    Exercises the scheduler paths a real workload hits: consecutive
    Compute batching, isend/irecv matching, NIC scheduling, and waits.
    """
    buffers = [np.zeros(64, dtype=np.int64) for _ in range(NRANKS)]

    def program(rank):
        payload = np.arange(64, dtype=np.int64) + rank
        dest = (rank + 1) % NRANKS
        src = (rank - 1) % NRANKS
        for _ in range(ROUNDS):
            for _ in range(COMPUTES_PER_ROUND):
                yield Compute(seconds=1e-7)
            h_r = yield Irecv(
                source=src, tag=0, buffer=buffers[rank], nbytes=512
            )
            h_s = yield Isend(dest=dest, tag=0, data=payload)
            yield Wait(handles=[h_r, h_s])

    return [program(r) for r in range(NRANKS)]


def test_engine_event_throughput(benchmark):
    def run_once():
        engine = Engine(_ring_programs(), "gmnet")
        t0 = perf_counter()
        result = engine.run()
        elapsed = perf_counter() - t0
        assert result.time > 0
        return engine.ops_processed / elapsed

    events_per_sec = benchmark.pedantic(run_once, rounds=3, iterations=1)
    benchmark.extra_info["events_per_sec"] = round(events_per_sec)
    # conservative floor: orders of magnitude below the fast-path rate
    assert events_per_sec > 20_000


SERIAL_SRC = """
program speed
  integer :: a(1:256)
  integer :: i, j, s

  s = 0
  do j = 1, 200
    do i = 1, 256
      a(i) = mod(i * j + s, 1024)
    enddo
    do i = 1, 256
      s = s + a(i)
    enddo
  enddo
  print *, s
end program speed
"""

#: executed statements: per j-iteration, 2 do-headers + 512 assigns,
#: plus the outer do, s = 0, and the print
SERIAL_STMTS = 200 * (2 + 512) + 3


def test_interpreter_statement_throughput(benchmark):
    def run_once():
        t0 = perf_counter()
        run = run_serial(SERIAL_SRC)
        elapsed = perf_counter() - t0
        assert run.outputs[0]  # the print fired
        return SERIAL_STMTS / elapsed

    stmts_per_sec = benchmark.pedantic(run_once, rounds=3, iterations=1)
    benchmark.extra_info["statements_per_sec"] = round(stmts_per_sec)
    # the generated fast path sustains millions; fail well before the
    # tree-walking regime (~100k) is reached again
    assert stmts_per_sec > 150_000
