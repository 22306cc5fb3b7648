"""The compiled fast path: purity analysis and semantic/timing parity.

The code generator (repro.interp.compiler) must be invisible: same
values, same printed output, same virtual-time totals as the generator
slow path.  These tests pin the behaviors that are easiest to get
subtly wrong — control flow exceptions crossing generated functions,
recursion through generated subroutine bodies, and Compute-event
batching.  The programs are module constants so the codegen parity
suite (test_codegen_parity.py) runs them too.
"""

import pytest

from repro import Job, Session
from repro.errors import InterpError
from repro.interp import Interpreter
from repro.interp.runner import run_serial
from repro.lang import parse
from repro.runtime.costmodel import CostModel


MUTUAL_RECURSION_SRC = """
program t
  integer :: ierr, n

  n = 2
  call a(n, ierr)
end program t

subroutine a(n, r)
  integer :: n, r

  call b(n, r)
  call mpi_barrier(0, r)
end subroutine a

subroutine b(n, r)
  integer :: n, r

  if (n > 0) then
    n = n - 1
    call a(n, r)
  endif
end subroutine b
"""

EXIT_CYCLE_SRC = """
program t
  integer :: i, j, hits

  hits = 0
  do i = 1, 5
    do j = 1, 5
      if (j == 3) then
        cycle
      endif
      if (j == 4 .and. i >= 3) then
        exit
      endif
      hits = hits + 1
    enddo
  enddo
  print *, hits, i, j
end program t
"""

WHILE_EXIT_SRC = """
program t
  integer :: n, steps

  n = 27
  steps = 0
  do while (n /= 1)
    if (steps > 200) then
      exit
    endif
    if (mod(n, 2) == 0) then
      n = n / 2
    else
      n = 3 * n + 1
    endif
    steps = steps + 1
  enddo
  print *, n, steps
end program t
"""

RECURSIVE_SRC = """
program t
  integer :: r

  r = 0
  call fact(5, r)
  print *, r
end program t

subroutine fact(n, r)
  integer :: n, r

  if (n <= 1) then
    r = 1
  else
    call fact(n - 1, r)
    r = r * n
  endif
end subroutine fact
"""

TIMING_SRC = """
program t
  integer :: a(1:32)
  integer :: i, k, s, ierr

  s = 0
  do k = 1, 4
    do i = 1, 32
      a(i) = i * k
    enddo
    call mpi_barrier(0, ierr)
    do i = 1, 32
      s = s + a(i)
    enddo
  enddo
  print *, s
end program t
"""


class TestPurity:
    def test_mpi_statements_are_impure(self):
        src = """
program t
  integer :: x, ierr

  x = 1
  call mpi_barrier(0, ierr)
end program t
"""
        it = Interpreter(parse(src))
        compiler = it._compiler
        body = it.source.main.body
        assert compiler.stmt_is_pure(body[0])  # x = 1
        assert not compiler.stmt_is_pure(body[1])  # mpi_barrier

    def test_loop_containing_mpi_is_impure_but_compute_loop_is_pure(self):
        src = """
program t
  integer :: i, x, ierr

  do i = 1, 3
    x = i
  enddo
  do i = 1, 3
    call mpi_barrier(0, ierr)
  enddo
end program t
"""
        it = Interpreter(parse(src))
        body = it.source.main.body
        assert it._compiler.stmt_is_pure(body[0])
        assert not it._compiler.stmt_is_pure(body[1])

    def test_call_purity_follows_the_call_graph(self):
        src = """
program t
  integer :: ierr

  call leaf(ierr)
  call comm(ierr)
end program t

subroutine leaf(r)
  integer :: r

  r = 1
end subroutine leaf

subroutine comm(r)
  integer :: r

  call mpi_barrier(0, r)
end subroutine comm
"""
        it = Interpreter(parse(src))
        body = it.source.main.body
        assert it._compiler.stmt_is_pure(body[0])  # leaf is compute-only
        assert not it._compiler.stmt_is_pure(body[1])  # comm reaches MPI


class TestMutualRecursionPurity:
    def test_impurity_propagates_through_a_cycle(self):
        """A member of a mutual-recursion cycle whose partner reaches MPI
        must be classified impure — an optimistic recursive memo would
        finalize it as pure and crash the compiled fast path."""
        src = MUTUAL_RECURSION_SRC
        it = Interpreter(parse(src))
        compiler = it._compiler
        for unit in it.subroutines.values():
            assert not compiler.sub_is_pure(unit)
        # and the program actually runs on the cluster without tripping
        # the fast path's pure-region invariant
        run = Session().run(Job(program=src, nranks=2, network="ideal"))
        assert run.time > 0


class TestControlFlowParity:
    def test_exit_and_cycle_in_nested_pure_loops(self):
        src = EXIT_CYCLE_SRC
        run = run_serial(src)
        # i = 1, 2: j skips 3, completes -> 4 hits each; i = 3..5: j = 1, 2
        # hit, 3 cycles, 4 exits -> 2 hits each
        assert run.outputs[0] == [(14, 6, 4)]

    def test_while_loop_with_exit(self):
        src = WHILE_EXIT_SRC
        run = run_serial(src)
        assert run.outputs[0] == [(1, 111)]  # collatz(27) reaches 1 in 111 steps

    def test_recursive_subroutine_through_lazy_compile(self):
        src = RECURSIVE_SRC
        run = run_serial(src)
        assert run.outputs[0] == [(120,)]

    def test_undeclared_scalar_still_raises(self):
        src = """
program t
  integer :: x

  y = x
end program t
"""
        with pytest.raises(InterpError, match="undeclared scalar"):
            run_serial(src)

    def test_out_of_bounds_still_raises(self):
        src = """
program t
  integer :: a(1:4)

  a(5) = 1
end program t
"""
        with pytest.raises(InterpError, match="out of bounds"):
            run_serial(src)


class TestTimingParity:
    SRC = TIMING_SRC

    def test_flush_threshold_does_not_change_totals(self):
        """Compute batching granularity must be timing-invisible: the
        fast path accumulates whole pure regions regardless of the
        threshold, and totals at MPI boundaries are exact."""
        session = Session()
        default = session.run(Job(program=self.SRC, nranks=2, network="ideal"))
        tiny = session.run(
            Job(
                program=self.SRC,
                nranks=2,
                network="ideal",
                cost_model=CostModel(flush_threshold=1e-12),
            )
        )
        assert default.result.time == tiny.result.time
        assert default.result.rank_times == tiny.result.rank_times
        assert default.outputs == tiny.outputs

    def test_determinism_across_runs(self):
        session = Session()
        a = session.run(Job(program=self.SRC, nranks=2, network="ideal"))
        b = session.run(Job(program=self.SRC, nranks=2, network="ideal"))
        assert a.result.time == b.result.time
        assert a.result.stats == b.result.stats


class TestEngineBatching:
    def test_consecutive_computes_batch_to_same_total(self):
        import numpy as np

        from repro.runtime import Compute, Engine

        def chunks():
            for _ in range(1000):
                yield Compute(seconds=1e-6)

        def single():
            yield Compute(seconds=1000 * 1e-6)

        a = Engine([chunks()], "ideal").run()
        b = Engine([single()], "ideal").run()
        assert a.time == pytest.approx(b.time)
        assert a.stats[0].compute_time == pytest.approx(
            b.stats[0].compute_time
        )

    def test_ops_processed_counts_batched_computes(self):
        from repro.runtime import Compute, Engine

        def prog():
            for _ in range(50):
                yield Compute(seconds=1e-6)

        engine = Engine([prog()], "ideal")
        engine.run()
        assert engine.ops_processed >= 50


class TestCopyOnWritePayloads:
    def test_inflight_mutation_still_detected_and_snapshot_delivered(self):
        import numpy as np

        from repro.runtime import Compute, Engine, Irecv, Isend, Wait

        received = np.zeros(4, dtype=np.int64)
        buf = np.array([1, 2, 3, 4], dtype=np.int64)

        def sender():
            h = yield Isend(dest=1, tag=0, data=buf)
            buf[0] = 99  # mutate with the transfer in flight: a race
            yield Compute(seconds=1.0)
            yield Wait(handles=[h])

        def receiver():
            h = yield Irecv(source=0, tag=0, buffer=received, nbytes=32)
            yield Wait(handles=[h])

        result = Engine([sender(), receiver()], "gmnet").run()
        # the receiver sees the isend-time payload, not the mutated buffer
        assert list(received) == [1, 2, 3, 4]
        assert any("modified while the transfer" in w for w in result.warnings)

    def test_no_false_race_when_buffer_untouched(self):
        import numpy as np

        from repro.runtime import Engine, Irecv, Isend, Wait

        received = np.zeros(4, dtype=np.int64)
        buf = np.array([5, 6, 7, 8], dtype=np.int64)

        def sender():
            h = yield Isend(dest=1, tag=0, data=buf)
            yield Wait(handles=[h])

        def receiver():
            h = yield Irecv(source=0, tag=0, buffer=received, nbytes=32)
            yield Wait(handles=[h])

        result = Engine([sender(), receiver()], "gmnet").run()
        assert list(received) == [5, 6, 7, 8]
        assert result.warnings == []
